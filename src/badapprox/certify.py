"""Independent certification of badly-approximable shifts.

Everything here recomputes from raw inputs (theta, eta, a size bound) by
exhaustive enumeration over integer vectors — deliberately sharing nothing
with the game/strategy machinery beyond the exact-arithmetic helpers, so a
passing report is evidence, not circularity.  All minima are exact rationals
with deterministic (value, then lexicographic argmin) tie-breaking.

Theta and eta are brought to one common denominator D, each functional is
compared as an integer key, and the key is scaled back to a rational (by
D^n, or D^p * c^q) only once the minimum is known.  No scan walks its box
point by point: the sizes go in dyadic bands, and each band lists only the
points of the lattice {(x, u) : u = A x mod D} whose distances could tie or
beat the best key so far (``_lattice_min`` on ``exact.box_points``), for
every shape.  A 1x1 theta first looks for an exact hit, which is found in
O(1) and never listed.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Sequence
from fractions import Fraction

from .exact import (
    Rat,
    Record,
    box_points,
    ceil_frac,
    floor_frac,
    int_dist,
    iroot,
    over_common_denominator,
    rat,
    rat_str,
    rat_vec,
)
from .resonance import EmptySequence, ResonanceSequence, ThetaMatrix


class TableRangeExceeded(Exception):
    """A table-backed decay profile was asked outside its covered range."""


class PowerLaw(Record, frozen=True):
    """psi(t) = (c*t)^(-sigma) with sigma kept as the literal pair p/q.

    The pair is *not* reduced: comparisons use the normal form
    r^p * (c*s)^q, which is the badness functional raised to the p-th power —
    keeping p and q as given makes reports with sigma = n/m literally match
    the product functional r^n s^m.
    """

    __slots__ = ("c", "sigma_num", "sigma_den")

    def __init__(self, c: Rat, sigma_num: int, sigma_den: int):
        c = rat(c)
        if c <= 0:
            raise ValueError("c must be positive")
        if sigma_num <= 0 or sigma_den <= 0:
            raise ValueError("sigma must be a positive rational")
        set_c, set_sigma_num, set_sigma_den = self._setters
        set_c(self, c)
        set_sigma_num(self, sigma_num)
        set_sigma_den(self, sigma_den)

    def to_jsonable(self) -> dict:
        return {
            "kind": "power",
            "c": rat_str(self.c),
            "sigma": f"{self.sigma_num}/{self.sigma_den}",
        }


class DecayTable(Record, frozen=True):
    """Tabulated decay profile: pairs (t_i, psi_i), sizes increasing and
    psi strictly decreasing.  rho(s) = largest t_i with 1/psi_i <= s.

    The table only speaks for sizes s in [ceil(1/psi_1), floor(1/psi_last)]
    — below that no entry qualifies, above it the true rho outgrows the
    table.  Lookups inside that window are exact; the decay-weighted
    functional skips sizes below the window and refuses limits beyond it.
    """

    __slots__ = ("sizes", "values")

    def __init__(self, sizes: tuple[int, ...], values: Sequence[Rat]):
        values = tuple(rat(v) for v in values)
        if len(sizes) != len(values) or not sizes:
            raise ValueError("table must be nonempty and aligned")
        if any(type(t) is not int for t in sizes):
            raise ValueError(f"table sizes must be integers: {list(sizes)}")
        for a, b in zip(sizes, sizes[1:]):
            if b <= a:
                raise ValueError("table sizes must increase")
        if sizes[0] < 1:  # rho weighs a distance; the scan needs it >= 1
            raise ValueError(f"table sizes must be positive: {list(sizes)}")
        for a, b in zip(values, values[1:]):
            if b >= a:
                raise ValueError("table values must strictly decrease")
        if any(v <= 0 for v in values):
            raise ValueError("table values must be positive")
        set_sizes, set_values = self._setters
        set_sizes(self, sizes)
        set_values(self, values)

    @property
    def s_min(self) -> int:
        return ceil_frac(1 / self.values[0])

    @property
    def s_max(self) -> int:
        return floor_frac(1 / self.values[-1])

    @property
    def thresholds(self) -> list[int]:
        """ceil(1/psi_i): rho(s) = sizes[i] for the largest i with
        thresholds[i] <= s.  They do not decrease with i."""
        return [ceil_frac(1 / v) for v in self.values]

    def to_jsonable(self) -> dict:
        return {
            "kind": "table",
            "sizes": list(self.sizes),
            "values": [rat_str(v) for v in self.values],
        }


def parse_power_spec(text: str) -> PowerLaw:
    """Parse "power:c=1,sigma=1" (sigma may be "p/q", kept unreduced)."""
    body = text.split(":", 1)
    if body[0].strip() != "power" or len(body) != 2:
        raise ValueError(f"not a power spec: {text!r}")
    c = Fraction(1)
    num, den = 1, 1
    for part in body[1].split(","):
        key, _, val = part.partition("=")
        key = key.strip()
        val = val.strip()
        if key == "c":
            c = rat(val)
        elif key == "sigma":
            if "/" in val:
                a, b = val.split("/")
                num, den = int(a), int(b)
            else:
                num, den = int(val), 1
        else:
            raise ValueError(f"unknown power-spec key {key!r}")
    return PowerLaw(c, num, den)


class BadnessReport(Record):
    __slots__ = ("functional", "value", "argmin", "limit", "extras", "warnings")

    def __init__(
        self,
        functional: str,
        value: Fraction,
        argmin: tuple[int, ...],
        limit: int,
        extras: dict | None = None,
        warnings: list[str] | None = None,
    ):
        self.functional = functional
        self.value = value
        self.argmin = argmin
        self.limit = limit
        self.extras = {} if extras is None else extras
        self.warnings = [] if warnings is None else warnings

    def to_jsonable(self) -> dict:
        return {
            "functional": self.functional,
            "value": rat_str(self.value),
            "argmin": list(self.argmin),
            "limit": self.limit,
            "extras": self.extras,
            "warnings": self.warnings,
        }


def _surrogate_warnings(theta: ThetaMatrix, limit: int) -> list[str]:
    den = 1
    for row in theta.rows:
        for x in row:
            den = max(den, x.denominator)
    n_max = math.isqrt(den)
    if limit > n_max:
        return [
            f"size bound {limit} exceeds sqrt(denominator) = {n_max}; beyond it a "
            "rational surrogate no longer mirrors an irrational target's behavior"
        ]
    return []


def _table_rho(table: DecayTable) -> Callable[[int], int]:
    """s -> rho(s) for s in the table's window, by bisection over its
    thresholds."""
    thresholds, sizes = table.thresholds, table.sizes
    return lambda s: sizes[bisect_right(thresholds, s) - 1]


def _lattice_min(
    coeffs: Sequence[Sequence[int]],
    offsets: Sequence[int],
    den: int,
    limit: int,
    power: int,
    weight: Callable[[int], int],
    s_floor: int,
) -> tuple[int, tuple[int, ...]]:
    """Exact min of (key, x) over s_floor <= s <= limit, s = max|x_i|, where
    key = (max_j int_dist(sum_i coeffs[i][j] x_i - offsets[j], den))^power
    * weight(s), ties going to the lex-smallest x (a walk of the box in lex
    order keeps the first minimum).

    ``weight`` must be a positive integer that does not decrease with s.
    The pairs (x, u) with u = A x mod den, A = coeffs, form an
    (m + n)-dimensional lattice, and the distance of form j at x is
    |u_j - e_j| for the representative u_j within den/2 of e_j.  The sizes
    go in dyadic bands lo <= s <= hi, in increasing order.  With K the best
    key so far, a point of the band ties or beats K only if every
    |u_j - e_j| <= V, V the largest integer with V^power * weight(lo) <= K
    (at most den // 2), and ``exact.box_points`` lists every lattice point
    of the box [-hi, hi]^m x [e - V, e + V]^n, its basis reduced from the
    previous band's.  Before the first key, V starts where the box holds
    about one lattice point (volume den^n) and doubles until the band holds
    one; the band is then listed at the V of its key, so a size window that
    starts far out does not list a share of its box.  The search never
    stops early: once weight(lo) > K,
    or K = 0, V is 0 and the later bands list only the exact hits, so the
    lex-smallest hit anywhere in range still wins.
    """
    m, n = len(coeffs), len(offsets)
    e = [v % den for v in offsets]
    basis = [[int(i == h) for h in range(m)] + list(row) for i, row in enumerate(coeffs)]
    basis += [[0] * m + [den * (j == h) for h in range(n)] for j in range(n)]
    half = den // 2
    center = [0] * m + e

    def bound(key: int) -> int:  # the V of a band starting at lo, for the best key
        cap = key // weight(lo)
        return half if half**power <= cap else iroot(cap, power)

    best = None
    lo = s_floor
    while lo <= limit:
        hi = min(limit, (1 << lo.bit_length()) - 1)
        v = bound(best[0]) if best else min(half, iroot(den**n // (2 * hi + 1) ** m, n) // 2)
        while True:
            basis, points = box_points(basis, center, [hi] * m + [v] * n)
            for p in points:
                x = p[:m]
                s = max(map(abs, x))
                if s >= lo:
                    cand = (max(abs(u - ej) for u, ej in zip(p[m:], e)) ** power * weight(s), x)
                    if best is None or cand < best:
                        best = cand
            if best and bound(best[0]) <= v:
                break
            v = bound(best[0]) if best else min(half, 2 * v + 1)
        lo = hi + 1
    return best


def _scan_min(
    theta: ThetaMatrix,
    eta: Sequence[Fraction],
    limit: int,
    power: int,
    weight: int | DecayTable,
) -> tuple[int, int, tuple[int, ...]]:
    """Exact min of (D r(x))^power * w(s) over the sizes s the weight
    covers, s <= limit, with the argmin: (key, D, argmin).

    r(x) = max_j || sum_i theta[i][j] x_i  -  eta[j] ||, s = max|x_i|, and
    D is the common denominator of theta and eta, so every key is an
    integer.  The size weight is an exponent q (w(s) = s^q, s >= 1) or a
    DecayTable (w(s) = rho(s), over its window).  Ties go to the
    lex-smallest x.  Every shape goes to the banded lattice enumeration
    ``_lattice_min``, whose work grows with log(limit).  A 1x1 theta
    (theta = a/D, eta = e/D) first looks for an exact hit: the x with
    a x = e mod D are one residue class mod D / gcd(a, D), or none, and the
    class's smallest signed member with s_floor <= |x| <= limit, if any,
    scores 0 and wins the lex tie, so dense hits are never listed.
    """
    if len(eta) != theta.n:
        raise ValueError(f"eta has dimension {len(eta)}, expected {theta.n}")
    table = weight if isinstance(weight, DecayTable) else None
    s_floor = table.s_min if table else 1
    w = _table_rho(table) if table else (lambda s: s**weight)
    m, n = theta.shape
    den, ints = over_common_denominator([x for row in theta.rows for x in row] + list(eta))
    coeffs = [ints[i * n:(i + 1) * n] for i in range(m)]
    if (m, n) == (1, 1):
        a, e = ints
        g = math.gcd(a, den)
        if e % g == 0:
            period = den // g
            x0 = e // g * pow(a // g, -1, period) % period
            x = (x0 + limit) % period - limit  # the smallest hit >= -limit
            if x > -s_floor:
                x = (x0 - s_floor) % period + s_floor  # the smallest hit >= s_floor
            if x <= limit:
                return 0, den, (x,)
    key, argmin = _lattice_min(coeffs, ints[m * n:], den, limit, power, w, s_floor)
    return key, den, argmin


def theorem1_constant(
    theta: ThetaMatrix, eta: Sequence, limit: int
) -> BadnessReport:
    """min over 0 < max|x| <= limit of (max_j ||L_j(x) - eta_j||)^n (max|x_i|)^m.

    A positive value is finite-range evidence that eta is a badly
    approximable shift for the system theta; zero pinpoints an exact hit.
    """
    eta_v = rat_vec(eta)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    m, n = theta.shape
    key, den, argmin = _scan_min(theta, eta_v, limit, n, m)
    return BadnessReport(
        functional="product",
        value=Fraction(key, den**n),
        argmin=argmin,
        limit=limit,
        extras={"shape": [m, n]},
        warnings=_surrogate_warnings(theta, limit),
    )


def jarnik_constant(
    theta: ThetaMatrix, eta: Sequence, psi, limit: int
) -> BadnessReport:
    """min of the decay-weighted badness functional r(x) * rho(max|x_i|).

    For a PowerLaw psi the comparison runs in the exact normal form
    r^p * (c*s)^q; for a DecayTable, rho is the table lookup, the value is
    the plain rational product, and sizes below the table's coverage window
    are excluded (the table certifies nothing there).  Raises
    TableRangeExceeded when the limit itself falls outside coverage.
    """
    eta_v = rat_vec(eta)
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if isinstance(psi, PowerLaw):
        p, q, c = psi.sigma_num, psi.sigma_den, psi.c
        key, den, argmin = _scan_min(theta, eta_v, limit, p, q)
        value = Fraction(key * c.numerator**q, den**p * c.denominator**q)
        extras = {"psi": psi.to_jsonable(), "normal_form_power": p}
    elif isinstance(psi, DecayTable):
        if limit < psi.s_min or limit > psi.s_max:
            raise TableRangeExceeded(
                f"limit {limit} outside table coverage "
                f"[{psi.s_min}, {psi.s_max}]"
            )
        key, den, argmin = _scan_min(theta, eta_v, limit, 1, psi)
        value = Fraction(key, den)
        extras = {
            "psi": psi.to_jsonable(),
            "coverage": [psi.s_min, min(psi.s_max, limit)],
        }
    else:
        raise TypeError(f"unsupported psi spec: {type(psi).__name__}")
    return BadnessReport(
        functional="decay-weighted",
        value=value,
        argmin=argmin,
        limit=limit,
        extras=extras,
        warnings=_surrogate_warnings(theta, limit),
    )


def resonance_margin(
    seq: ResonanceSequence, eta: Sequence, r_max: int | None = None
) -> BadnessReport:
    """min over families r <= r_max of ||u_r · eta||, with the realizing r.
    eta must have the family's dimension (ValueError otherwise)."""
    eta_v = rat_vec(eta)
    if len(eta_v) != seq.dimension:
        raise ValueError(f"eta has dimension {len(eta_v)}, expected {seq.dimension}")
    hi = len(seq) if r_max is None else min(r_max, len(seq))
    if hi < 1:
        raise EmptySequence("no families to measure against")
    den, eta_ints = over_common_denominator(eta_v)
    best: tuple[int, int] | None = None
    for r in range(1, hi + 1):
        d = int_dist(sum(c * e for c, e in zip(seq.vector(r), eta_ints)), den)
        if best is None or d < best[0]:
            best = (d, r)
    assert best is not None
    return BadnessReport(
        functional="resonance-margin",
        value=Fraction(best[0], den),
        argmin=(best[1],),
        limit=hi,
        extras={"norm_sq": seq.norm_sq_of(best[1])},
    )
