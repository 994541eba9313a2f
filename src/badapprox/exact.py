"""Exact rational arithmetic helpers.

The game's values are ``fractions.Fraction``s; where only a comparison is
needed they are brought to integers over positive common denominators
(``over_common_denominator``, ``round_half_even``), and comparisons against
square roots are decided by squaring, never by floating point.  Where a
constant is irrational (the square roots, arcsines and pi of the
spherical-cap measure) it is bracketed by integers scaled by 2^prec,
rounded outward at every step, so a decision taken on the bracket is exact.

``fraction(n, d)`` is ``Fraction(n, d)`` for denominators that are mostly
a power of two, as the game's centers are (every round scales the radius by
alpha*beta).  It reduces by gcd(n, 2^k o) = 2^min(v2(n), k) gcd(n mod o, o)
for odd o, a shift and a gcd on the small odd part, which is exact because
2^k and o are coprime.  It is the one place that builds a Fraction from a
pair already in lowest terms: a bare instance whose two slots,
``_numerator`` and ``_denominator``, it sets itself, the one route on every
Python version.  ``rat`` parses every "p/q" string with it, reading the two
halves by int() without a regular expression; ``fractions_over`` reduces
the coordinates of a center over one shared denominator, split once, and
the engine builds every moved center with it.

The exhaustive scans of ``certify`` and ``resonance`` bring every rational
input to a common denominator D, so ``||v / D|| = min(v mod D, D - v mod D) / D``
and all comparisons are between integers.  None of them walks its box point
by point: they list only the points of an integer lattice that can hold a
minimum or a record.  ``box_points`` lists the lattice points of an axis
box: a plane lattice by Lagrange-Gauss reduction and ``lattice_box``, any
other by ``lll_reduce`` (Cohen's integral LLL) and Fincke-Pohst
enumeration.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii

Rat = int | Fraction

# Rationals cross the text boundary (rat, rat_str, trace files) at any size,
# past the default limit of 4300 digits on int <-> str that 3.10.7 added.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


class InvariantError(RuntimeError):
    """An internal invariant broke: a bug in the package, never bad input."""


def _refuse_assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of frozen {type(self).__name__}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r} of frozen {type(self).__name__}")


def _hash_fields(self) -> int:
    return hash(self._values())


class Record:
    """Base of the package's value records.

    A record's fields are its ``__slots__``, in order.  The base ``__init__``
    stores them as given, by position or by name; a missing, unknown,
    repeated or surplus field raises TypeError.  Records compare equal when
    they are of the same class with equal fields, and ``repr`` shows each
    field by name.  ``class X(Record, frozen=True)`` refuses assignment and
    deletion with AttributeError and hashes by its fields; any other record
    is mutable and unhashable.  A changed copy is built by calling the
    constructor, so its checks and coercions run again.

    ``_setters`` holds each field's slot setter, in field order: a record
    that checks or coerces its fields stores them through it in its own
    ``__init__``, past a frozen record's refusing ``__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)
        if frozen:
            cls.__setattr__ = _refuse_assign
            cls.__delattr__ = _refuse_delete
            cls.__hash__ = _hash_fields

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        rest = fields[len(args):]
        for field in rest:
            if field not in kwargs:
                raise TypeError(f"{name} is missing field {field!r}")
        if len(kwargs) > len(rest):  # a keyword repeats a positional field or names none
            extra = next(k for k in kwargs if k not in rest)
            raise TypeError(f"{name} got field {extra!r} twice" if extra in fields
                            else f"{name} has no field {extra!r}")
        if rest:
            args += tuple(map(kwargs.__getitem__, rest))
        for setter, value in zip(self._setters, args):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple(map(getattr, itertools.repeat(self), self.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, past a frozen __setattr__
        return type(self), self._values()


_new_object = object.__new__


def _coprime(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime ints n and d > 0, built without
    normalising: a bare instance with its two slots set, as 3.12's
    Fraction._from_coprime_ints does inside.  On 3.11 the private
    Fraction(n, d, _normalize=False) takes over three times as long."""
    f = _new_object(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _lowest(n: int, d: int, k: int, o: int) -> Fraction:
    """n/d in lowest terms, for an int n != 0 and d = 2^k * o > 0 with o
    odd: gcd(n, d) = 2^min(v2(n), k) * gcd(n mod o, o), since the two
    factors of d are coprime."""
    t = min((n & -n).bit_length() - 1, k)
    if t:
        n >>= t
        d >>= t
    if o > 1:
        g = math.gcd(n % o, o)
        if g > 1:
            n //= g
            d //= g
    return _coprime(n, d)


def fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d) for ints n and d: the same value, numerator,
    denominator, hash and type, and the same ZeroDivisionError at d = 0.

    The game's coordinates have denominators of over a thousand bits that
    are almost all a power of two, on which Fraction's general gcd is slow.
    With d = 2^k * o, o odd, the gcd is a shift and a gcd on the small odd
    part (_lowest).  The reduced pair is built without a second
    normalisation."""
    if d <= 0:
        if not d:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        n, d = -n, -d
    if not n:
        return _coprime(0, 1)
    k = (d & -d).bit_length() - 1
    return _lowest(n, d, k, d >> k)


def fractions_over(nums: Iterable[int], den: int) -> tuple[Fraction, ...]:
    """tuple(fraction(x, den) for x in nums) for den > 0, with den split
    into 2^k * o once for all the coordinates instead of once per coordinate."""
    k = (den & -den).bit_length() - 1
    o = den >> k
    return tuple([_lowest(x, den, k, o) if x else _coprime(0, 1) for x in nums])


def _read_rat(text: str) -> tuple[Fraction, bool]:
    """rat(text) for a string, and whether text is exactly what rat_str
    writes for it: (0|-?[1-9][0-9]*)/([1-9][0-9]*) in lowest terms.

    A string of the form -?[0-9]+/[0-9]+ is read by int() on its two halves:
    it is ASCII (isascii, O(1)) with no "_", and each half starts and ends
    with a digit, the numerator after one optional "-", so int() accepts it
    exactly when every other character is a digit too.  Any other string,
    or one that int() refuses (a second "/", say), goes to Fraction, and is
    never canonical.  The spelling is decided from the first digit of each
    half (no leading zero, no minus zero) and the terms from the
    denominator fraction keeps, with no scan of the digits beyond int()'s."""
    cut = text.find("/")
    if cut > 0 and text.isascii() and "_" not in text:
        n, d = text[:cut], text[cut + 1:]
        lead = n[1:2] if n[0] == "-" else n[0]
        if d and lead.isdigit() and n[-1].isdigit() and d[0].isdigit() and d[-1].isdigit():
            try:
                num, den = int(n), int(d)
            except ValueError:
                pass
            else:
                value = fraction(num, den)
                # the slot itself: the denominator property is a Python-level call
                return value, d[0] != "0" and (lead != "0" or n == "0") and value._denominator == den
    return Fraction(text.strip()), False


def rat(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact Fraction.

    An exact Fraction and a string are recognized first: on any value that
    is not exactly a Fraction, isinstance(value, Fraction) calls the Python
    method ABCMeta.__instancecheck__."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return _read_rat(value)[0]
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(f"refusing to coerce float {value!r}; pass a string or Fraction")
    raise TypeError(f"cannot coerce {type(value).__name__} to Fraction")


def json_list(value, what: str) -> list:
    """A JSON array read from a file; any other type is bad input (ValueError)."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


def json_object(value, what: str) -> dict:
    """A JSON object read from a file; any other type is bad input (ValueError)."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def json_rat(value, what: str) -> Fraction:
    """A rational read from a file as a "p/q" string or an integer; a float,
    bool, list or object is bad input (ValueError)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f'{what} must be a "p/q" string or an integer, got {value!r}')
    return rat(value)


def rat_str(value: Rat) -> str:
    """Canonical "p/q" rendering (denominator always present, lowest terms)."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


# -- JSON text ---------------------------------------------------------------


def json_text(obj, indent: int = 0) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, with the
    closing bracket of a non-empty container `indent` spaces in, for a tree
    of dicts with string keys, lists, tuples and JSON scalars.  Strings take
    encode_basestring_ascii and ints int.__repr__, as json's own encoder
    does; any other scalar is written by json.dumps.  Any indent sends json
    to its pure-Python encoder, whose closures leave reference cycles to the
    garbage collector, so every file the package writes is laid out here."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    inner = indent + 2
    items = []
    # loops, not comprehensions: before 3.12 a comprehension would make obj
    # and inner closure cells, a cost on every call, the scalar ones too
    if isinstance(obj, dict):
        for key in sorted(obj):
            items.append(f"{encode_basestring_ascii(key)}: {json_text(obj[key], inner)}")
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            items.append(json_text(item, inner))
        brackets = "[]"
    else:
        return json.dumps(obj)
    if not items:
        return brackets
    pad = "\n" + " " * inner
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def json_list_pieces(items: Iterable[str], indent: int) -> list[str]:
    """The pieces of ``json_text(list(items), indent)`` for strings that need
    no escaping, such as "p/q" rationals.  The items themselves are pieces,
    not copied, so a writer that joins them once copies each string once."""
    pad = " " * indent
    sep = f'",\n{pad}  "'
    pieces = [f'[\n{pad}  "']
    for item in items:
        pieces += (item, sep)
    if len(pieces) == 1:
        return ["[]"]
    pieces[-1] = f'"\n{pad}]'
    return pieces


_FRACTION_ONLY = frozenset([Fraction])


def rat_vec(values: Iterable) -> tuple[Fraction, ...]:
    """The values as a tuple of Fractions; a tuple that already is one is
    returned itself."""
    if type(values) is tuple and set(map(type, values)) <= _FRACTION_ONLY:  # one C-level pass
        return values
    return tuple(map(rat, values))


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


# -- rational sqrt bounds ----------------------------------------------------


def sqrt_bounds(x_sq: Rat, bits: int = 64) -> tuple[int, int]:
    """Bracket sqrt(x_sq) at precision bits: lo = floor(sqrt(x_sq) * 2^bits)
    and hi = isqrt(ceil(x_sq * 4^bits)) + 1, both 0 at x_sq = 0.  Feeds the
    cosines of the spherical-cap measure (geometry.cap_measure_bounds) and
    the certificate's residual lower bounds."""
    x = Fraction(x_sq)
    if x < 0:
        raise ValueError("x_sq must be nonnegative")
    if x == 0:
        return 0, 0
    n = x.numerator << (2 * bits)
    d = x.denominator
    return math.isqrt(n // d), math.isqrt(-(-n // d)) + 1


# -- scaled-integer brackets -------------------------------------------------
#
# A pair (lo, hi) of integers brackets a real x at precision prec when
# lo <= x * 2^prec <= hi.  Every step rounds lo down and hi up.


def scaled_bounds(x: Rat, prec: int) -> tuple[int, int]:
    """(floor, ceil) of x * 2^prec."""
    f = Fraction(x)
    n = f.numerator << prec
    return n // f.denominator, -(-n // f.denominator)


def _series_bounds(num: int, den: int, prec: int, factor) -> tuple[int, int]:
    """Bracket sum_k t_k at precision prec, where t_0 = x = num/den with
    0 <= x <= 1/2 and t_(k+1) = t_k * x^2 * a_k / b_k for
    (a_k, b_k) = factor(k), a_k <= b_k.  The terms are positive and their
    ratio is at most x^2, so the tail from term k on is at most
    t_k / (1 - x^2).  The sum stops once the rounded-up term is at most one
    unit, which a ratio of at most 1/4 guarantees."""
    n2, d2 = num * num, den * den
    t_lo, t_hi = (num << prec) // den, -(-(num << prec) // den)
    lo = hi = 0
    k = 0
    while t_hi > 1:
        lo += t_lo
        hi += t_hi
        a, b = factor(k)
        t_lo = t_lo * n2 * a // (d2 * b)
        t_hi = -(-t_hi * n2 * a // (d2 * b))
        k += 1
    return lo, hi - (-t_hi * d2 // (d2 - n2))


def asin_bounds(x: Rat, prec: int) -> tuple[int, int]:
    """Bracket asin(x) at precision prec, for rational 0 <= x <= 1/2, by its
    Taylor series: t_0 = x, t_(k+1) = t_k * x^2 (2k+1)^2 / ((2k+2)(2k+3))."""
    f = Fraction(x)
    if not 0 <= f <= Fraction(1, 2):
        raise ValueError(f"asin_bounds needs 0 <= x <= 1/2, got {f}")
    return _series_bounds(
        f.numerator, f.denominator, prec, lambda k: ((2 * k + 1) ** 2, (2 * k + 2) * (2 * k + 3))
    )


def _atanh_bounds(num: int, den: int, prec: int) -> tuple[int, int]:
    """Bracket atanh(y), y = num/den with 0 <= y <= 1/3, by its series
    sum_k y^(2k+1) / (2k+1): t_(k+1) = t_k * y^2 (2k+1) / (2k+3)."""
    return _series_bounds(num, den, prec, lambda k: (2 * k + 1, 2 * k + 3))


@functools.lru_cache(maxsize=None)
def _ln2_bounds(prec: int) -> tuple[int, int]:
    lo, hi = _atanh_bounds(1, 3, prec)  # ln 2 = 2 atanh(1/3)
    return 2 * lo, 2 * hi


def log_bounds(x: Rat, prec: int) -> tuple[int, int]:
    """Bracket ln(x) at precision prec, for rational x >= 1.

    With x = 2^e f, 1 <= f < 2: ln x = e ln 2 + 2 atanh((f - 1)/(f + 1)),
    and (f - 1)/(f + 1) < 1/3.
    """
    f = Fraction(x)
    num, den = f.numerator, f.denominator
    if num < den:
        raise ValueError(f"log_bounds needs x >= 1, got {f}")
    e = num.bit_length() - den.bit_length()
    if num < den << e:
        e -= 1
    a_lo, a_hi = _atanh_bounds(num - (den << e), num + (den << e), prec)
    l_lo, l_hi = _ln2_bounds(prec)
    return e * l_lo + 2 * a_lo, e * l_hi + 2 * a_hi


@functools.lru_cache(maxsize=None)
def pi_bounds(prec: int) -> tuple[int, int]:
    """Bracket pi = 6 asin(1/2) at precision prec.  The series is summed with
    guard bits enough to absorb its rounding, about one unit per term."""
    guard = prec.bit_length() + 4
    lo, hi = asin_bounds(Fraction(1, 2), prec + guard)
    return 6 * lo >> guard, -(-6 * hi >> guard)


def ceil_frac(x: Rat) -> int:
    f = Fraction(x)
    return -(-f.numerator // f.denominator)


def floor_frac(x: Rat) -> int:
    f = Fraction(x)
    return f.numerator // f.denominator


# -- integer lattice kernel --------------------------------------------------


def over_common_denominator(values: Sequence[Rat]) -> tuple[int, list[int]]:
    """(D, [v * D for v in values]) with D the least common denominator of
    the ints and Fractions in values."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def round_half_even(s: int, den: int) -> tuple[int, int]:
    """(a, s - a*den) for a the integer nearest s/den (den > 0), a tie going
    to the even one, as round() of a Fraction does."""
    a, rem = divmod(s, den)
    if 2 * rem > den or (2 * rem == den and a & 1):
        a += 1
        rem -= den
    return a, rem


def int_dist(v: int, den: int) -> int:
    """Numerator of ||v / den|| over den: min(v mod den, den - v mod den)."""
    v %= den
    return min(v, den - v)


def iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for integers n >= 0 and k >= 1, by integer Newton
    steps from 2^ceil(bits/k), which is at least the root."""
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _gauss_reduce(
    basis: tuple[tuple[int, int], tuple[int, int]], wx: int, wu: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Lagrange-Gauss reduction of a basis of a plane lattice in the norm
    wx * x^2 + wu * u^2.  Returns (short, long) with short a shortest
    nonzero vector and det(short, long) > 0."""
    (x1, u1), (x2, u2) = basis
    n1, n2 = x1 * x1 * wx + u1 * u1 * wu, x2 * x2 * wx + u2 * u2 * wu
    if n2 < n1:
        x1, u1, n1, x2, u2, n2 = x2, u2, n2, x1, u1, n1
    while True:
        mu = (2 * (x1 * x2 * wx + u1 * u2 * wu) + n1) // (2 * n1)  # nearest integer
        if mu:
            x2, u2 = x2 - mu * x1, u2 - mu * u1
            n2 = x2 * x2 * wx + u2 * u2 * wu
        if n2 >= n1:
            break
        x1, u1, n1, x2, u2, n2 = x2, u2, n2, x1, u1, n1
    if x1 * u2 - x2 * u1 < 0:
        x2, u2 = -x2, -u2
    return (x1, u1), (x2, u2)


def _span(lo: int, hi: int, step: int):
    """The integers k with lo <= k * step <= hi, as (first, last), empty when
    first > last.  For a zero step every k qualifies or none does: None or
    (1, 0)."""
    if step > 0:
        return -(-lo // step), hi // step
    if step < 0:
        return -(-hi // step), lo // step
    return None if lo <= 0 <= hi else (1, 0)


def lattice_box(
    short: tuple[int, int],
    long: tuple[int, int],
    xlo: int, xhi: int, ulo: int, uhi: int,
) -> Iterator[tuple[int, int]]:
    """Every point k1 * short + k2 * long of the lattice in the box
    [xlo, xhi] x [ulo, uhi], for a basis with det(short, long) > 0.

    By Cramer's rule k2 = det(short, P) / det, a linear form of P, so its
    range over the box is set by the corners: one row per k2, and on each
    row the interval of k1 that keeps both coordinates in the box.
    """
    (x1, u1), (x2, u2) = short, long
    det = x1 * u2 - x2 * u1
    corners = [x1 * u - u1 * x for x in (xlo, xhi) for u in (ulo, uhi)]
    for k2 in range(-(-min(corners) // det), max(corners) // det + 1):
        x0, u0 = k2 * x2, k2 * u2
        spans = [s for s in (_span(xlo - x0, xhi - x0, x1), _span(ulo - u0, uhi - u0, u1))
                 if s is not None]  # short is not zero, so one span at least
        for k1 in range(max(a for a, _ in spans), min(b for _, b in spans) + 1):
            yield x0 + k1 * x1, u0 + k1 * u1


def lll_reduce(
    rows: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """LLL-reduce a basis of k linearly independent integer vectors, with
    delta = 3/4, in integers only: Cohen's integral LLL (A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7).

    Returns (basis, d, lam) for the reduced basis b_0..b_(k-1), with b*_i its
    Gram-Schmidt vectors: d[i] = |b*_0|^2 ... |b*_(i-1)|^2, the Gram
    determinant of the first i vectors (d[0] = 1), and lam[i][j] =
    d[j+1] * mu_ij for j < i, where mu_ij = <b_i, b*_j> / |b*_j|^2.  The
    basis is size-reduced, |2 lam[i][j]| <= d[j+1], and meets the Lovasz
    condition 4 d[i+1] d[i-1] >= 3 d[i]^2 - 4 lam[i][i-1]^2.  Every division
    below is exact.
    """
    b = [list(r) for r in rows]
    k = len(b)
    d = [1] + [0] * k
    lam = [[0] * k for _ in range(k)]

    def reduce(i: int, j: int) -> None:  # size-reduce b_i against b_j
        dj = d[j + 1]
        if 2 * abs(lam[i][j]) > dj:
            q = (2 * lam[i][j] + dj) // (2 * dj)  # the nearest integer to mu_ij
            b[i] = [x - q * y for x, y in zip(b[i], b[j])]
            lam[i][j] -= q * dj
            for h in range(j):
                lam[i][h] -= q * lam[j][h]

    def swap(i: int) -> None:  # exchange b_(i-1) and b_i
        b[i - 1], b[i] = b[i], b[i - 1]
        for h in range(i - 1):
            lam[i - 1][h], lam[i][h] = lam[i][h], lam[i - 1][h]
        mu = lam[i][i - 1]
        new = (d[i - 1] * d[i + 1] + mu * mu) // d[i]
        for h in range(i + 1, top + 1):
            t = lam[h][i]
            lam[h][i] = (d[i + 1] * lam[h][i - 1] - mu * t) // d[i]
            lam[h][i - 1] = (new * t + mu * lam[h][i]) // d[i + 1]
        d[i] = new

    top = -1  # the last vector whose Gram-Schmidt data is known
    i = 0
    while i < k:
        if i > top:
            top = i
            for j in range(i + 1):
                u = sum(map(int.__mul__, b[i], b[j]))
                for h in range(j):
                    u = (d[h + 1] * u - lam[i][h] * lam[j][h]) // d[h]
                if j < i:
                    lam[i][j] = u
                else:
                    d[i + 1] = u
            if not d[i + 1]:
                raise ValueError("lll_reduce needs linearly independent rows")
        if i == 0:
            i = 1
            continue
        reduce(i, i - 1)
        if 4 * d[i + 1] * d[i - 1] < 3 * d[i] * d[i] - 4 * lam[i][i - 1] ** 2:
            swap(i)
            i = max(1, i - 1)
        else:
            for j in range(i - 2, -1, -1):
                reduce(i, j)
            i += 1
    return b, d, lam


def box_points(
    basis: Sequence[Sequence[int]], center: Sequence[int], half: Sequence[int]
) -> tuple[Sequence[Sequence[int]], list[tuple[int, ...]]]:
    """Every point P of the full-rank lattice spanned by ``basis`` with
    |P_l - center_l| <= half_l for each coordinate l, each listed once.
    Returns (basis, points), the basis reduced for this box, so that a box
    of a similar shape can start from it.

    A plane lattice is Gauss-reduced in the norm that makes the box square,
    (2 half_1 + 1)^2 x^2 + (2 half_0 + 1)^2 u^2, and ``lattice_box`` lists
    the box row by row.  In any other dimension coordinate l is scaled by
    s_l = max(half) // half_l (2 max(half) + 1 for a flat side), which makes
    the box close to a cube, and the basis is reduced in the scaled norm
    (``lll_reduce``).  The scaled box lies in the ball of radius^2
    R = sum (s_l half_l)^2 about the scaled center t, and Fincke-Pohst
    enumeration lists every lattice point of that ball: P - t
    has the coordinate y_j = Y_j / d[j+1] along b*_j, Y_j = d[j+1] c_j +
    sum_(i>j) lam[i][j] c_i - T_j with T_j = d[j] <t, b*_j>, and
    G_j = d[j] |P - t projected off b_0..b_(j-1)|^2 is the integer
    (d[j] G_(j+1) + Y_j^2) / d[j+1].  Choosing c_(k-1), ..., c_0 in turn,
    c_j takes every value with Y_j^2 <= d[j] (d[j+1] R - G_(j+1)), which
    keeps G_j <= d[j] R; the points of the ball that leave the box are
    dropped.  Distinct coefficient vectors are distinct points, so none is
    listed twice.  No Fraction is used.
    """
    k = len(center)
    if k == 2:
        (x, u), (hx, hu) = center, half
        short, long = _gauss_reduce(basis, (2 * hu + 1) ** 2, (2 * hx + 1) ** 2)
        points = list(lattice_box(short, long, x - hx, x + hx, u - hu, u + hu))
        return (short, long), points
    top = max(half)
    scale = [top // h if h else 2 * top + 1 for h in half]
    rows, d, lam = lll_reduce([[x * s for x, s in zip(row, scale)] for row in basis])
    reduced = [[x // s for x, s in zip(row, scale)] for row in rows]
    radius = sum((s * h) ** 2 for s, h in zip(scale, half))
    target = [c * s for c, s in zip(center, scale)]
    offs = []  # T_j, by the Gram-Schmidt recurrence with t in the place of b_j
    for j in range(k):
        u = sum(map(int.__mul__, target, rows[j]))
        for h in range(j):
            u = (d[h + 1] * u - lam[j][h] * offs[h]) // d[h]
        offs.append(u)
    points: list[tuple[int, ...]] = []

    def walk(j: int, g: int, acc: list[int], point: list[int]) -> None:
        dj, dj1 = d[j], d[j + 1]
        r = math.isqrt(dj * (dj1 * radius - g))
        z = offs[j] - acc[j]
        row, lam_j = reduced[j], lam[j]
        for c in range(-((r - z) // dj1), (z + r) // dj1 + 1):
            y = dj1 * c - z
            p = [a + c * x for a, x in zip(point, row)]
            if j:
                walk(j - 1, (dj * g + y * y) // dj1,
                     [a + c * x for a, x in zip(acc, lam_j)], p)
            elif all(abs(a - b) <= h for a, b, h in zip(p, center, half)):
                points.append(tuple(p))

    walk(k - 1, 0, [0] * k, [0] * k)
    return reduced, points
