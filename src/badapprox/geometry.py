"""Exact geometric primitives: balls, integer-normal hyperplanes, halfspaces.

Containment predicates are exact (no epsilon anywhere on the legality path).
Floats appear in two places only, never in an in-game decision: the chart
that rational_unit_direction rationalizes (its output is an exact unit
vector), and the spherical-cap measure helpers at the bottom, which feed
derived constants (rounded conservatively before use) and the independent
constants check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .exact import Rat, over_common_denominator, rat, rat_str, rat_vec

Vec = tuple[Fraction, ...]


def _same_dimension(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")


def dot(a: Sequence[Rat], b: Sequence[Rat]) -> Fraction:
    """Exact inner product of int/Fraction vectors; a float operand raises."""
    _same_dimension(a, b)
    total = sum(map(mul, a, b))
    if isinstance(total, int):
        return Fraction(total)
    if not isinstance(total, Fraction):  # a float anywhere makes the sum a float
        raise TypeError(f"dot takes int and Fraction operands, got {type(total).__name__}")
    return total


def add(a: Vec, b: Vec) -> Vec:
    _same_dimension(a, b)
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Vec, b: Vec) -> Vec:
    _same_dimension(a, b)
    return tuple(x - y for x, y in zip(a, b))


def scale(a: Sequence[Rat], c: Rat) -> Vec:
    """c * a as a tuple of Fractions: c is coerced once, and each int or
    Fraction entry of a multiplies it directly."""
    cc = rat(c)
    return tuple(x * cc for x in a)


def norm_sq(a: Sequence[Rat]) -> Fraction:
    return dot(a, a)


def nearest_int_dist(x: Rat) -> Fraction:
    """Distance from x to the nearest integer, exact."""
    f = Fraction(x)
    frac = f - (f.numerator // f.denominator)
    return min(frac, 1 - frac)


def lex_sign(v: Sequence[Rat]) -> int:
    """+1 if the first nonzero entry is positive, -1 if negative, 0 if zero."""
    for x in v:
        if x > 0:
            return 1
        if x < 0:
            return -1
    return 0


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball with exact rational center and radius."""

    center: Vec
    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", rat_vec(self.center))
        object.__setattr__(self, "radius", rat(self.radius))
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    @property
    def dimension(self) -> int:
        return len(self.center)

    def contains_ball(self, inner: "Ball") -> bool:
        """Exact test: inner ⊆ self.  ||c_i - c_o|| <= R - r, via squares.

        Both centers are brought to one common denominator D and the slack
        R - r = p/q, so the test is sum (a_j - b_j)^2 * q^2 <= p^2 * D^2 over
        the integer numerators a, b: one gcd (for D), where the same test in
        Fraction arithmetic reduces every intermediate sum and square.
        """
        n = len(self.center)
        _same_dimension(inner.center, self.center)
        slack = self.radius - inner.radius
        if slack < 0:
            return False
        den, nums = over_common_denominator(inner.center + self.center)
        dist_sq = sum((a - b) ** 2 for a, b in zip(nums[:n], nums[n:]))
        p, q = slack.numerator, slack.denominator
        return dist_sq * q * q <= p * p * den * den

    def to_jsonable(self) -> dict:
        return {"center": [rat_str(c) for c in self.center], "radius": rat_str(self.radius)}

    @classmethod
    def from_jsonable(cls, obj: dict) -> "Ball":
        return cls(tuple(obj["center"]), obj["radius"])  # __post_init__ parses each value


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {y : u·y = a} with integer normal u and offset a."""

    normal: tuple[int, ...]
    offset: int

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(int(c) for c in self.normal))
        object.__setattr__(self, "offset", int(self.offset))
        if all(c == 0 for c in self.normal):
            raise ValueError("hyperplane normal must be nonzero")

    @property
    def norm_sq(self) -> int:
        return sum(c * c for c in self.normal)

    def residual(self, p: Sequence[Rat]) -> Fraction:
        """Signed u·p - a (NOT normalized; divide by |u| for distance)."""
        return dot(self.normal, p) - self.offset

    def to_jsonable(self) -> dict:
        return {"u": list(self.normal), "a": self.offset}


@dataclass(frozen=True)
class Halfspace:
    """{y : direction · (y - anchor) >= threshold} with exact unit direction."""

    direction: Vec
    threshold: Fraction
    anchor: Vec

    def __post_init__(self):
        object.__setattr__(self, "direction", rat_vec(self.direction))
        object.__setattr__(self, "threshold", rat(self.threshold))
        object.__setattr__(self, "anchor", rat_vec(self.anchor))
        if norm_sq(self.direction) != 1:
            raise ValueError("halfspace direction must be an exact unit vector")

    def height(self, p: Vec) -> Fraction:
        return dot(self.direction, sub(p, self.anchor))

    def contains_ball(self, ball: Ball) -> bool:
        """Exact: height of the center clears threshold + radius."""
        return self.height(ball.center) - self.threshold >= ball.radius


# -- exact unit directions from a stereographic chart ------------------------

#: rational_unit_direction refines until its float distance to v/|v| is below this.
DIRECTION_TOL = 2.0**-30


def stereo_chart(u: Sequence[float]) -> tuple[int, int, list[float]]:
    """Chart of a float unit vector u for stereo_unit: the axis of largest
    |u_i| (the first on a tie), the sign s of u_axis, and the chart point
    w_j = u_j / (1 + |u_axis|) over the other axes, so the lift of w is u."""
    axis = max(range(len(u)), key=lambda i: abs(u[i]))
    sign = 1 if u[axis] > 0 else -1
    denom = 1.0 + abs(u[axis])
    return axis, sign, [x / denom for i, x in enumerate(u) if i != axis]


def stereo_unit(w: Sequence[Fraction], n: int, axis: int, sign: int) -> Vec:
    """Inverse stereographic projection of a rational chart point w in Q^(n-1):
    d_axis = s(1-|w|^2)/(1+|w|^2) and d_j = 2 w_j/(1+|w|^2) over the other
    axes, so |d| = 1 identically."""
    wsq = sum((x * x for x in w), Fraction(0))
    lift = 1 + wsq
    d = [Fraction(0)] * n
    d[axis] = Fraction(sign) * (1 - wsq) / lift
    rest = [i for i in range(n) if i != axis]
    for j, i in enumerate(rest):
        d[i] = 2 * w[j] / lift
    return tuple(d)


def rational_unit_direction(v: Sequence[Rat]) -> Vec:
    """An exact unit vector (sum of squares == 1) within DIRECTION_TOL of v/|v|.

    The chart point of v/|v| (stereo_chart, well conditioned around the axis
    of largest |component|) is rationalized with a growing denominator
    bound until the lift lands within DIRECTION_TOL, in float distance.
    """
    v = rat_vec(v)
    n = len(v)
    if all(x == 0 for x in v):
        raise ValueError("cannot normalize the zero vector")

    nonzero = [i for i, x in enumerate(v) if x != 0]
    if len(nonzero) == 1:
        # axis-aligned: exact unit vector, no approximation needed
        i = nonzero[0]
        out = [Fraction(0)] * n
        out[i] = Fraction(1 if v[i] > 0 else -1)
        return tuple(out)

    fv = [float(x) for x in v]
    fnorm = math.sqrt(math.fsum(x * x for x in fv))
    target = [x / fnorm for x in fv]
    axis, sign, w_ideal = stereo_chart(target)

    max_den = 1 << 20
    for _ in range(8):
        d = stereo_unit([Fraction(x).limit_denominator(max_den) for x in w_ideal], n, axis, sign)
        err = math.sqrt(math.fsum((float(d[i]) - target[i]) ** 2 for i in range(n)))
        if err < DIRECTION_TOL:
            return d
        max_den <<= 14
    raise ValueError("direction refinement failed to reach tolerance")


# -- spherical caps (float territory) ----------------------------------------


def cap_fraction_angular(radius: float, n: int) -> float:
    """Normalized (n-1)-sphere measure of a cap of angular radius `radius`.

    n = 1: the 0-sphere is two points; any positive radius captures one of
    them, fraction 1/2.  n = 2: arc fraction radius/pi.  n >= 3: the standard
    sin^(n-2) integral ratio, evaluated with mpmath.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not 0 < radius <= math.pi:
        raise ValueError(f"angular radius out of range: {radius}")
    if n == 1:
        return 0.5 if radius < math.pi else 1.0
    if n == 2:
        return radius / math.pi
    import mpmath

    with mpmath.workdps(40):
        num = mpmath.quad(lambda t: mpmath.sin(t) ** (n - 2), [0, radius])
        den = mpmath.quad(lambda t: mpmath.sin(t) ** (n - 2), [0, mpmath.pi])
        return float(num / den)


def cap_fraction(gamma: Rat, n: int) -> float:
    """Fraction of the unit sphere within angle arcsin(gamma/2) of a point."""
    g = float(Fraction(gamma))
    if not 0 < g < 2:
        raise ValueError("gamma must lie in (0, 2)")
    return cap_fraction_angular(math.asin(g / 2), n)
