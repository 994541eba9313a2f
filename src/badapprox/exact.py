"""Exact rational arithmetic helpers.

Everything on the game/certificate path works over ``fractions.Fraction``;
comparisons against square roots are decided by squaring, never by floating
point.  The only floats in the package live in reporting and in the
measure-theoretic oracles, which are clearly marked as such.

The brute-force scans of ``certify`` and ``resonance`` share one integer
kernel, ``box_distances``: every rational input is brought to a common
denominator D, so ``||v / D|| = min(v mod D, D - v mod D) / D`` and all
comparisons are between integers.
"""
from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from operator import mod, sub
from typing import Iterable, Iterator, Sequence, Union

Rat = Union[int, Fraction]

#: The "p/q" form rat_str writes; rat parses it without Fraction's own regex.
_CANONICAL = re.compile(r"(-?[0-9]+)/([0-9]+)")


def rat(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _CANONICAL.fullmatch(value)
        if m:
            return Fraction(int(m[1]), int(m[2]))
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r}; pass a string or Fraction")
    raise TypeError(f"cannot coerce {type(value).__name__} to Fraction")


def rat_str(value: Rat) -> str:
    """Canonical "p/q" rendering (denominator always present, lowest terms)."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def rat_vec(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(rat(v) for v in values)


# -- square-root comparators -------------------------------------------------
#
# All of these decide an inequality involving sqrt(X) for rational X >= 0
# using only rational arithmetic.


def gt_sqrt(lhs: Rat, x_sq: Rat) -> bool:
    """Decide lhs > sqrt(x_sq) exactly (x_sq >= 0)."""
    if x_sq < 0:
        raise ValueError("x_sq must be nonnegative")
    if lhs <= 0:
        return x_sq == 0 and lhs > 0
    return lhs * lhs > x_sq


def gt_sum_two_sqrt(lhs: Rat, x_sq: Rat, y_sq: Rat) -> bool:
    """Decide lhs > sqrt(x_sq) + sqrt(y_sq) exactly.

    Standard double-squaring: with D = lhs^2 - x - y, the inequality holds
    iff lhs > 0, D > 0 and D^2 > 4xy.  (Both x_sq and y_sq nonnegative.)
    """
    if x_sq < 0 or y_sq < 0:
        raise ValueError("squared operands must be nonnegative")
    if lhs <= 0:
        return lhs > 0 and x_sq == 0 and y_sq == 0
    d = lhs * lhs - x_sq - y_sq
    if d <= 0:
        return False
    return d * d > 4 * x_sq * y_sq


# -- rational sqrt bounds (reporting only) -----------------------------------


def sqrt_lower(x_sq: Rat, bits: int = 64) -> Fraction:
    """A rational lower bound on sqrt(x_sq), within 2^-bits relative-ish slack.

    Used only for human-readable report fields, never for decisions.
    """
    x = Fraction(x_sq)
    if x < 0:
        raise ValueError("x_sq must be nonnegative")
    if x == 0:
        return Fraction(0)
    scale = 1 << bits
    n = x.numerator * scale * scale
    d = x.denominator
    # floor(sqrt(n/d)) / scale <= sqrt(x)
    root = math.isqrt(n // d)
    return Fraction(root, scale)


def sqrt_upper(x_sq: Rat, bits: int = 64) -> Fraction:
    """A rational upper bound on sqrt(x_sq).  Reporting only."""
    x = Fraction(x_sq)
    if x < 0:
        raise ValueError("x_sq must be nonnegative")
    if x == 0:
        return Fraction(0)
    scale = 1 << bits
    n = x.numerator * scale * scale
    d = x.denominator
    root = math.isqrt(-(-n // d)) + 1
    return Fraction(root, scale)


def ceil_frac(x: Rat) -> int:
    return -((-Fraction(x).numerator) // Fraction(x).denominator)


def floor_frac(x: Rat) -> int:
    f = Fraction(x)
    return f.numerator // f.denominator


# -- integer lattice kernel --------------------------------------------------

#: Most points one chunk of ``box_distances`` holds; bounds its memory.
CHUNK = 4096


def over_common_denominator(values: Iterable) -> tuple[int, list[int]]:
    """(D, [v * D for v in values]) with D the least common denominator."""
    vals = [rat(v) for v in values]
    den = math.lcm(*(v.denominator for v in vals))
    return den, [v.numerator * (den // v.denominator) for v in vals]


def int_dist(v: int, den: int) -> int:
    """Numerator of ||v / den|| over den: min(v mod den, den - v mod den)."""
    v %= den
    return min(v, den - v)


def sup_norms(head_norm: int, lo: int, hi: int) -> Iterator[int]:
    """max(head_norm, |x|) for x = lo, ..., hi - 1, as C-level ranges."""
    return itertools.chain(
        range(-lo, -min(hi, -head_norm), -1),
        itertools.repeat(head_norm, max(0, min(hi, head_norm + 1) - max(lo, -head_norm))),
        range(max(lo, head_norm + 1), hi),
    )


def box_distances(
    coeffs: Sequence[Sequence[int]],
    offsets: Sequence[int],
    den: int,
    limit: int,
    half: bool = False,
) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """Walk the integer box [-limit, limit]^k in lex order, a chunk at a time.

    Form f at the point x is ``offsets[f] + sum_i coeffs[i][f] * x_i`` over
    the denominator ``den``.  Yields ``(head, lo, nums)``: head is
    (x_1, ..., x_{k-1}), and nums[j] is the numerator over den of
    max_f ||form_f|| at the point head + (lo + j,), i.e. the largest
    ``int_dist`` of the forms.  Chunks hold at most CHUNK consecutive
    points of one innermost row.  With ``half`` only the points after the
    origin in lex order are walked: those whose first nonzero entry is
    positive, one of each +/- pair.

    Along a row each form is the progression ``(b + a * x) mod den``; it is
    shifted by h = den // 2 so that the distance is ``|v - h|`` with
    v = (b + h + a * x) mod den, and every pass is a C-level ``map``.
    """
    k = len(coeffs)
    h = den // 2
    steps = [c % den for c in coeffs[-1]]
    heads: Iterator[tuple[int, ...]] = itertools.product(
        range(-limit, limit + 1), repeat=k - 1
    )
    if half:  # the zero head sits in the middle of the product
        heads = itertools.islice(heads, ((2 * limit + 1) ** (k - 1) - 1) // 2, None)
    for head in heads:
        base = [
            off + h + sum(row[f] * x for row, x in zip(coeffs, head))
            for f, off in enumerate(offsets)
        ]
        lo = 1 if half and not any(head) else -limit
        while lo <= limit:
            count = min(CHUNK, limit + 1 - lo)
            forms = []
            for b, a in zip(base, steps):
                b = (b + a * lo) % den
                vals = (
                    map(mod, range(b, b + a * count, a), itertools.repeat(den))
                    if a else itertools.repeat(b, count)
                )
                forms.append(map(abs, map(sub, vals, itertools.repeat(h))))
            yield head, lo, list(forms[0] if len(forms) == 1 else map(max, *forms))
            lo += count
