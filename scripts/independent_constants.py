#!/usr/bin/env python3
"""Re-derive every strategy constant along an independent code path.

The library derives (gamma, t, omega, k, tau, epsilon) with exact rational
arithmetic; the cap measure behind omega is bracketed in scaled integers.
This script rebuilds the same chain from scratch — high-precision mpmath for
the transcendental step, stdlib fractions for everything else, its own greedy
thinning for the flagship family — and compares against the package,
including that every mpmath cap measure lies inside the package's exact
bracket.  Any disagreement exits nonzero.  The pinned constants in the test
suite were frozen only after this script agreed with the library.

Usage:
    python3 scripts/independent_constants.py [--json out.json]
"""
import argparse
import json
import sys
from fractions import Fraction

import mpmath

from badapprox.geometry import cap_measure_bounds
from badapprox.schedule import derive_params

DYADIC_BITS = 40
BRACKET_BITS = 128

PARAM_SETS = {
    "golden": (Fraction(1, 4), Fraction(1, 2), 3, 1),
    "third": (Fraction(1, 3), Fraction(1, 3), 3, 1),
    "plane-n2": (Fraction(1, 4), Fraction(1, 2), 3, 2),
    "plane-n3": (Fraction(1, 4), Fraction(1, 2), 3, 3),
}


def mp_cap_fraction(radius: mpmath.mpf, n: int) -> mpmath.mpf:
    """Normalized sphere-cap measure, written from the textbook formulas
    rather than the library's integral routine."""
    if n == 1:
        return mpmath.mpf("0.5")
    if n == 2:
        return radius / mpmath.pi
    if n == 3:
        return (1 - mpmath.cos(radius)) / 2
    num = mpmath.quad(lambda u: mpmath.sin(u) ** (n - 2), [0, radius])
    den = mpmath.quad(lambda u: mpmath.sin(u) ** (n - 2), [0, mpmath.pi])
    return num / den


def independent_chain(alpha: Fraction, beta: Fraction, m: int, n: int) -> dict:
    gamma = 1 + alpha * beta - 2 * alpha
    p = alpha * beta

    t = 1
    pt = p
    while not 2 * pt < gamma:
        t += 1
        pt *= p

    if n == 1:
        omega = Fraction(1, 2)
        reduced = None
    else:
        with mpmath.workdps(60):
            reduced = mpmath.asin(mpmath.mpf(gamma.numerator) / gamma.denominator / 2) \
                - mpmath.asin(mpmath.mpf((gamma * pt).numerator) / (gamma * pt).denominator)
            assert reduced > 0
            w = mp_cap_fraction(reduced, n)
            scaled = int(mpmath.floor(w * (1 << DYADIC_BITS))) - 2
        omega = Fraction(max(1, scaled), 1 << DYADIC_BITS)

    one_minus = 1 - omega
    inv_p = 1 / p
    k = None
    for cand in range(1, 200_001):
        c = 0
        pow_c = Fraction(1)
        while cand * pow_c > 1:
            c += 1
            pow_c *= one_minus
        tau = t * c
        if inv_p**tau < Fraction(m) ** (cand - 2):
            k = cand
            break
    assert k is not None, "budget scan exhausted"

    eps = gamma / (4 * Fraction(m) ** (k + 2))
    return {
        "gamma": gamma, "t": t, "omega": omega, "k": k, "tau": tau, "epsilon": eps,
        "reduced_radius": None if reduced is None else float(reduced),
        "cap_measure": None if reduced is None else w,
        "sines": (gamma / 2, gamma * pt),
    }


def fibonacci_thinning(m: int = 3, cap: int = 1000):
    """Greedy lacunary thinning of the Fibonacci sizes, done locally."""
    fibs = [1, 2]
    while fibs[-1] + fibs[-2] <= cap:
        fibs.append(fibs[-1] + fibs[-2])
    picked = []
    for f in fibs:
        if not picked or f >= m * picked[-1]:
            picked.append(f)
    return picked


def check(label: str, independent, package, failures: list) -> None:
    ok = independent == package
    mark = "ok " if ok else "MISMATCH"
    print(f"  {label:<22} independent={independent}  package={package}  [{mark}]")
    if not ok:
        failures.append(label)


def bracketed(label: str, independent, sin_a: Fraction, sin_b: Fraction, n: int,
              failures: list) -> None:
    """The mpmath value lies inside the package's exact bracket."""
    lo, hi = cap_measure_bounds(sin_a, sin_b, n, BRACKET_BITS)
    with mpmath.workdps(60):
        scaled = independent * mpmath.mpf(2) ** BRACKET_BITS
        ok = lo <= scaled <= hi
    mark = "ok " if ok else "MISMATCH"
    print(f"  {label:<22} independent={mpmath.nstr(independent, 20)}  "
          f"package in [{lo / 2**BRACKET_BITS:.17g}, {hi / 2**BRACKET_BITS:.17g}]  [{mark}]")
    if not ok:
        failures.append(label)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", default=None, help="also dump the comparison as JSON")
    args = ap.parse_args(argv)

    failures: list = []
    dump = {}

    for name, (alpha, beta, m, n) in PARAM_SETS.items():
        print(f"[{name}] alpha={alpha} beta={beta} M={m} n={n}")
        ind = independent_chain(alpha, beta, m, n)
        pkg = derive_params(alpha, beta, m, n)
        check("gamma", ind["gamma"], pkg.gamma, failures)
        check("escape_rounds", ind["t"], pkg.escape_rounds, failures)
        check("cap_measure_lb", ind["omega"], pkg.cap_measure_lb, failures)
        check("plane_budget", ind["k"], pkg.plane_budget, failures)
        check("avoidance_rounds", ind["tau"], pkg.avoidance_rounds, failures)
        check("margin", ind["epsilon"], pkg.margin, failures)
        if n > 1:
            bracketed("reduced cap measure", ind["cap_measure"], *ind["sines"], n, failures)
        dump[name] = {k: str(v) for k, v in ind.items()}

    print("[spherical caps] full escape cap at gamma=5/8")
    caps = {}
    with mpmath.workdps(60):
        full = mpmath.asin(mpmath.mpf(5) / 16)
        for n in range(2, 7):
            caps[n] = mp_cap_fraction(full, n)
    for n, cap in caps.items():
        bracketed(f"cap measure n={n}", cap, Fraction(5, 16), Fraction(0), n, failures)
    dump["caps"] = {f"n{n}": float(cap) for n, cap in caps.items()}

    print("[flagship family] greedy thinning and block thresholds (rho0=1/2)")
    sizes = fibonacci_thinning()
    check("thinned sizes", sizes, [1, 3, 13, 55, 233, 987], failures)
    golden = derive_params(Fraction(1, 4), Fraction(1, 2), 3, 1)
    rho0 = Fraction(1, 2)
    p = golden.alpha * golden.beta
    threshold1 = (2 * rho0) ** -2 * p ** (-2 * 1 * golden.avoidance_rounds)
    check("block-1 threshold", threshold1, Fraction(262144), failures)
    check("threshold straddles", sizes[4] ** 2 < threshold1 <= sizes[5] ** 2, True, failures)
    dump["thresholds"] = {"sizes": sizes, "block1": str(threshold1)}

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if failures:
        print(f"FAILED: {len(failures)} mismatches: {', '.join(failures)}")
        return 1
    print("all constants agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
