"""Exact geometric primitives: balls, integer-normal hyperplanes, halfspaces.

A Ball holds its center as integers over one common denominator (its form,
read by every integer test) and derives the Fraction center from it once,
on the first read (Ball).  Containment predicates are exact (no epsilon
anywhere on the legality path).  Floats appear in one place only, never in
an in-game decision: the chart that rational_unit_direction rationalizes
(its output is an exact unit direction (v, L)).  The spherical-cap measure
at the bottom, which feeds the derived constants, is bracketed in scaled
integers (exact.scaled_bounds).
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from operator import mul

from .exact import (
    InvariantError,
    Rat,
    Record,
    _read_rat,
    asin_bounds,
    fraction,
    json_list,
    json_rat,
    over_common_denominator,
    pi_bounds,
    rat,
    rat_str,
    rat_vec,
    scaled_bounds,
    sqrt_bounds,
)

Vec = tuple[Fraction, ...]
#: An exact unit direction v/L as ints (v, L): sum v^2 = L^2, L > 0, gcd(L, v) = 1.
Direction = tuple[tuple[int, ...], int]


def same_dimension(a: Sequence, b: Sequence) -> None:
    """Raise ValueError("dimension mismatch ...") unless a and b have one length."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")


def dot(a: Sequence[Rat], b: Sequence[Rat]) -> Fraction:
    """Exact inner product of int/Fraction vectors; a float operand raises."""
    same_dimension(a, b)
    total = sum(map(mul, a, b))
    if isinstance(total, int):
        return Fraction(total)
    if not isinstance(total, Fraction):  # a float anywhere makes the sum a float
        raise TypeError(f"dot takes int and Fraction operands, got {type(total).__name__}")
    return total


def sub(a: Vec, b: Vec) -> Vec:
    same_dimension(a, b)
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


class _Kept:
    """The slots a ball keeps beside its fields: `form`, its center as
    integers over one common denominator, and `_text`, the strings a ball
    read from JSON was read from (Ball.from_jsonable).  Neither is a field
    of the record: equality, hash, repr, copy and pickle never see them."""

    __slots__ = ("form", "_text")


_set_form, _set_text = _Kept.form.__set__, _Kept._text.__set__


class Ball(Record, _Kept, frozen=True):
    """Closed Euclidean ball with exact rational center and radius.

    The ball holds its center in one form, ``form = (D, N)``: the ints N
    over a common denominator D > 0, not always the least, so a reader may
    take from it only what is the same over every common denominator.
    run_game gives a moved ball its fold's (D, N) and a held one the form
    object of the ball before it; the constructor and the loader build the
    least form from the Fractions they hold.  Every integer test on a ball
    reads the form.  The field ``center``, Fractions in lowest terms, is
    derived from the form on its first read and kept in its slot, so
    equality, hash, repr, copy and pickle are by value.  The radius is a
    Fraction in lowest terms."""

    __slots__ = ("center", "radius")

    def __init__(self, center: Sequence[Rat], radius: Rat):
        center, radius = rat_vec(center), rat(radius)
        if radius.numerator <= 0:  # a Fraction's denominator is positive
            raise ValueError(f"radius must be positive, got {radius}")
        den, nums = over_common_denominator(center)
        _set_form(self, (den, tuple(nums)))
        _set_center(self, center)
        _set_radius(self, radius)
        _set_text(self, None)

    def __getattr__(self, name):
        # only an unset slot gets here: the center before its first read
        if name != "center":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        den, nums = self.form
        center = tuple([fraction(x, den) for x in nums])
        _set_center(self, center)
        return center

    @property
    def dimension(self) -> int:
        return len(self.form[1])

    def to_jsonable(self) -> dict:
        return {"center": [rat_str(c) for c in self.center], "radius": rat_str(self.radius)}

    def _center_strs(self) -> Iterable[str]:
        """The center's "p/q" strings: the text the ball was read from, when
        it kept any (from_jsonable), else rat_str's rendering."""
        text = self._text
        return map(rat_str, self.center) if text is None else text[0]

    def _radius_str(self) -> str:
        """The radius's "p/q" string, kept or rendered as _center_strs."""
        text = self._text
        return rat_str(self.radius) if text is None else text[1]

    @classmethod
    def from_jsonable(cls, obj: dict, held: Ball | None = None) -> "Ball":
        """The ball of {"center": [...], "radius": ...}.  `held` is a ball
        read before from a "center" list equal to obj's; when that list holds
        only strings, the one JSON type that equals only itself ([1] == [True]
        == [1.0] in Python), its form, center and center text are reused.

        When the radius and every center entry are strings spelled as
        rat_str writes them, the ball keeps them as its text, a tuple of the
        center strings and the radius string: the very strings of `obj`,
        never copies, which a writer reuses instead of rendering 1500-bit
        integers again.  Any other spelling keeps no text.  make_ball builds
        the ball from the values parsed here, as it builds run_game's."""
        center = obj["center"]
        # kept text means held was read from nothing but strings
        if held is not None and not (held._text is not None or all(type(c) is str for c in center)):
            held = None
        if held is None:
            center = json_list(center, "center")
            kinds = set(map(type, center))
            if not kinds <= {str, int}:  # checked in one pass
                for c in center:
                    json_rat(c, "center coordinate")  # raises, naming the culprit
        radius = obj["radius"]
        if type(radius) is str:
            value, canonical = _read_rat(radius)
        else:
            value, canonical = json_rat(radius, "radius"), False
        if held is not None:
            form, center, text = held.form, held.center, held._text and held._text[0]
        else:
            if kinds == {str}:
                text = tuple(center)
                center, canonical_entries = zip(*map(_read_rat, text))
                if not all(canonical_entries):
                    text = None
            else:
                center, text = tuple(map(rat, center)), None
            den, nums = over_common_denominator(center)
            form = den, tuple(nums)
        if value.numerator <= 0:
            raise ValueError(f"radius must be positive, got {value}")
        ball = make_ball(form, value, center)
        if canonical and text:
            _set_text(ball, (text, radius))
        return ball


_set_center, _set_radius = Ball._setters
_new = object.__new__


def make_ball(form: tuple[int, tuple[int, ...]], radius: Fraction, center: Vec | None = None) -> Ball:
    """The Ball of a form (D, N), a radius in lowest terms and, if built
    already, its center, from values its caller made and checked itself:
    a bare instance whose slots are set, past the constructor's checks."""
    ball = _new(Ball)
    _set_form(ball, form)
    _set_radius(ball, radius)
    _set_text(ball, None)
    if center is not None:
        _set_center(ball, center)
    return ball


def _integer(value, what: str) -> int:
    """An int, or a Fraction with denominator 1 as its int; a float, a bool or
    any other rational is refused, never truncated."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"hyperplane {what} must be an integer, got {value!r}")


class Hyperplane(Record, frozen=True):
    """Affine hyperplane {y : u·y = a} with integer normal u and offset a."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal: Sequence[int], offset: int):
        normal = tuple(normal)
        if not {type(offset), *map(type, normal)} <= {int}:  # checked in one pass
            normal = tuple(_integer(c, "normal entry") for c in normal)
            offset = _integer(offset, "offset")
        if not any(normal):
            raise ValueError("hyperplane normal must be nonzero")
        set_normal, set_offset = self._setters
        set_normal(self, normal)
        set_offset(self, offset)

    @property
    def norm_sq(self) -> int:
        return sum(c * c for c in self.normal)

    def residual(self, p: Sequence[Rat]) -> Fraction:
        """Signed u·p - a (NOT normalized; divide by |u| for distance)."""
        return dot(self.normal, p) - self.offset


class Halfspace(Record, frozen=True):
    """{y : direction · (y - anchor) >= threshold} for the exact unit
    direction (v, L) (Direction).  The unit check and contains_ball are
    decided on integers."""

    __slots__ = ("direction", "threshold", "anchor")

    def __init__(self, direction: Direction, threshold: Rat, anchor: Sequence[Rat]):
        v, el = direction
        v, threshold, anchor = tuple(v), rat(threshold), rat_vec(anchor)
        same_dimension(v, anchor)
        # math.gcd raises TypeError on anything but ints
        if el <= 0 or sum(x * x for x in v) != el * el or math.gcd(el, *v) != 1:
            raise ValueError("halfspace direction must be an exact unit (v, L) in lowest terms")
        set_direction, set_threshold, set_anchor = self._setters
        set_direction(self, (v, el))
        set_threshold(self, threshold)
        set_anchor(self, anchor)

    def contains_ball(self, ball: Ball) -> bool:
        """Exact: height of the center clears threshold + radius.  With the
        direction v/L, the center C/D (the ball's form) and the anchor A/E
        over its least common denominator, the height is h/(LDE) for
        h = v·(C E - A D); for threshold p/q and radius r/s the test is
        h q s >= (p s + r q) L D E."""
        v, el = self.direction
        den, nums = ball.form
        same_dimension(nums, v)
        aden, anums = over_common_denominator(self.anchor)
        h = sum(x * (c * aden - a * den) for x, c, a in zip(v, nums, anums))
        t, r = self.threshold, ball.radius
        q, s = t.denominator, r.denominator
        return h * q * s >= (t.numerator * s + r.numerator * q) * el * den * aden


# -- exact unit directions from a stereographic chart ------------------------

#: rational_unit_direction refines until its float distance to v/|v| is below this.
DIRECTION_TOL = 2.0**-30

#: rational_unit_direction first scales a vector whose largest |entry| reaches
#: 2^500, or lies below 2^-500, by a power of two, so its squares stay floats.
_FLOAT_BITS = 500


def stereo_chart(u: Sequence[float]) -> tuple[int, int, list[float]]:
    """Chart of a float unit vector u for chart_lift: the axis of largest
    |u_i| (the first on a tie), the sign s of u_axis, and the chart point
    w_j = u_j / (1 + |u_axis|) over the other axes, so the lift of w is u."""
    axis = max(range(len(u)), key=lambda i: abs(u[i]))
    sign = 1 if u[axis] > 0 else -1
    denom = 1.0 + abs(u[axis])
    return axis, sign, [x / denom for i, x in enumerate(u) if i != axis]


def chart_lift(a: Sequence[int], c: int, axis: int, sign: int) -> tuple[tuple[int, ...], int]:
    """(v, L) of the inverse stereographic lift of the chart point w = a/c,
    v over its least common denominator L, so that sum v^2 = L^2.  Times c^2,
    with A = sum a_j^2, the lift is s(c^2 - A) on the axis and 2c a_j on the
    other axes, over c^2 + A; the gcd of all n + 1 integers divides out."""
    c_sq, big_a = c * c, sum(x * x for x in a)
    v = [2 * c * x for x in a]
    v.insert(axis, sign * (c_sq - big_a))
    el = c_sq + big_a
    g = math.gcd(el, *v)
    return tuple(x // g for x in v), el // g


def rational_unit_direction(v: Sequence[Rat]) -> Direction:
    """An exact unit direction (v, L) within DIRECTION_TOL of v/|v|.

    The chart point of v/|v| (stereo_chart, well conditioned around the axis
    of largest |component|) is rationalized with a growing denominator
    bound, brought to one denominator c and lifted by chart_lift, until the
    lift lands within DIRECTION_TOL, in float distance.  The direction of v
    is that of v * 2^k, and floats scale exactly by powers of two, so a v
    past the float range is divided down to entries below 2^501 first, and
    one below it multiplied up to entries near 1.
    """
    v = rat_vec(v)
    if all(x == 0 for x in v):
        raise ValueError("cannot normalize the zero vector")

    if sum(x != 0 for x in v) == 1:
        # axis-aligned: the signs of the entries are the exact (±e_i, 1)
        return tuple((x > 0) - (x < 0) for x in v), 1

    top = max(map(abs, v))
    bits = top.numerator.bit_length() - top.denominator.bit_length()
    # an exact scaling by a power of two keeps every float bit of an input
    # that fits, and brings the squares of any other into range
    if bits > _FLOAT_BITS:
        v = tuple(x / (1 << (bits - _FLOAT_BITS)) for x in v)
    elif bits < -_FLOAT_BITS:
        v = tuple(x * (1 << -bits) for x in v)
    fv = [float(x) for x in v]
    fnorm = math.sqrt(math.fsum(x * x for x in fv))
    target = [x / fnorm for x in fv]
    axis, sign, w_ideal = stereo_chart(target)

    max_den = 1 << 20
    for _ in range(8):
        w = [Fraction(x).limit_denominator(max_den) for x in w_ideal]
        c = math.lcm(*(x.denominator for x in w))
        d, el = chart_lift([x.numerator * (c // x.denominator) for x in w], c, axis, sign)
        err = math.sqrt(math.fsum((x / el - t) ** 2 for x, t in zip(d, target)))
        if err < DIRECTION_TOL:
            return d, el
        max_den <<= 14
    raise InvariantError("direction refinement failed to reach tolerance")


# -- the spherical-cap measure, bracketed exactly ----------------------------


def cap_measure_bounds(sin_a: Fraction, sin_b: Fraction, n: int, prec: int) -> tuple[int, int]:
    """Bracket, at precision prec (exact.scaled_bounds), the normalized
    measure of a cap of angular radius r = A - B on the unit sphere of R^n,
    n >= 2, where sin A = sin_a and sin B = sin_b, 0 <= sin_b < sin_a <= 1/2
    (so 0 < r <= pi/6).

    cos r = cos A cos B + sin A sin B and sin r = sin A cos B - cos A sin B
    take two rational square roots.  With k = n - 2 the measure is
    I_k(r) / W_k, where I_k(r) is the integral of sin^k over [0, r]:
        I_k = ((k-1) I_(k-2) - sin^(k-1) r cos r) / k,  I_0 = r,  I_1 = 1 - cos r,
    and W_k = I_k(pi) = (k-1)/k W_(k-2), W_0 = pi, W_1 = 2.  So n = 3 gives
    (1 - cos r)/2, odd n needs the square roots only, and even n also needs
    r = asin(sin_a) - asin(sin_b) and pi.
    """
    if n < 2:
        raise ValueError("the cap measure is bracketed for dimension >= 2")
    if not 0 <= sin_b < sin_a <= Fraction(1, 2):
        raise ValueError(f"need 0 <= sin_b < sin_a <= 1/2, got {sin_b}, {sin_a}")
    one = 1 << prec
    k = n - 2
    odd = k % 2
    if odd:
        wallis = Fraction(2)  # W_k
    else:
        a_lo, a_hi = asin_bounds(sin_a, prec)
        b_lo, b_hi = asin_bounds(sin_b, prec)
        i_lo, i_hi = a_lo - b_hi, a_hi - b_lo
        wallis = Fraction(1)  # W_k / pi
    if k:
        ca_lo, ca_hi = sqrt_bounds(1 - sin_a * sin_a, prec)
        cb_lo, cb_hi = sqrt_bounds(1 - sin_b * sin_b, prec)
        ss_lo, ss_hi = scaled_bounds(sin_a * sin_b, prec)
        a_num, a_den = sin_a.numerator, sin_a.denominator
        b_num, b_den = sin_b.numerator, sin_b.denominator
        # 0 < r <= pi/6: sin r > 0 and cos r <= 1 clamp the brackets
        cos_lo = (ca_lo * cb_lo >> prec) + ss_lo
        cos_hi = min(one, -(-ca_hi * cb_hi >> prec) + ss_hi)
        sin_lo = max(0, cb_lo * a_num // a_den + (-ca_hi * b_num // b_den))
        sin_hi = -(-cb_hi * a_num // a_den) - ca_lo * b_num // b_den
        sq_lo, sq_hi = sin_lo * sin_lo >> prec, -(-sin_hi * sin_hi >> prec)
        if odd:
            i_lo, i_hi = one - cos_hi, one - cos_lo
            t_lo, t_hi = sq_lo, sq_hi  # sin^(j-1) r at j = 3
        else:
            t_lo, t_hi = sin_lo, sin_hi  # at j = 2
        t_lo, t_hi = t_lo * cos_lo >> prec, -(-t_hi * cos_hi >> prec)
        for j in range(2 + odd, k + 1, 2):
            i_lo, i_hi = ((j - 1) * i_lo - t_hi) // j, -((t_lo - (j - 1) * i_hi) // j)
            wallis *= Fraction(j - 1, j)
            t_lo, t_hi = t_lo * sq_lo >> prec, -(-t_hi * sq_hi >> prec)
    i_lo = max(0, i_lo)  # the cap has positive measure
    num, den = wallis.numerator, wallis.denominator
    if odd:
        return i_lo * den // num, -(-i_hi * den // num)
    pi_lo, pi_hi = pi_bounds(prec)
    return (i_lo * den << prec) // (num * pi_hi), -(-(i_hi * den << prec) // (num * pi_lo))
