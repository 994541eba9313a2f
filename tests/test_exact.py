"""Exact-arithmetic helpers: coercion, square-root comparators, dyadic bounds,
scaled-integer brackets of asin, ln and pi (held to 60-digit mpmath), and
the JSON writer (held to json.dumps)."""

import json
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import fraction_outcome, odd
from badapprox.exact import (
    _read_rat,
    asin_bounds,
    ceil_frac,
    floor_frac,
    fraction,
    gt_sqrt,
    gt_sum_two_sqrt,
    json_text,
    log_bounds,
    pi_bounds,
    rat,
    rat_str,
    rat_vec,
    round_half_even,
    scaled_bounds,
    sqrt_bounds,
)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)
nonneg = st.fractions(min_value=0, max_value=Fraction(10**6), max_denominator=10**6)
positive = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**6
)


def test_rat_accepts_int_fraction_string():
    assert rat(3) == Fraction(3)
    assert rat(Fraction(2, 6)) == Fraction(1, 3)
    assert rat("3/5") == Fraction(3, 5)
    assert rat(" -7/4 ") == Fraction(-7, 4)
    assert rat("2") == Fraction(2)


def test_rat_refuses_floats():
    with pytest.raises(TypeError):
        rat(0.1)
    with pytest.raises(TypeError):
        rat(1.0)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(None)


@given(q=rationals)
def test_canonical_strings_round_trip_exactly(q):
    text = rat_str(q)
    assert rat(text) == q
    assert rat_str(rat(text)) == text
    assert rat_str(q.numerator) == f"{q.numerator}/1"


@pytest.mark.parametrize(
    "text",
    ["2/4", " 3/5 ", "+1/2", "1/-2", "1/0", "1.5", "1e3", "abc",
     "-0/7", "007/014", "1/2\n", "1/2x", "3/4 5"],
)
def test_rat_strings_behave_like_fraction(text):
    def outcome(parse):
        try:
            value = parse(text)
        except Exception as exc:  # the exception type is the behaviour
            return type(exc)
        return value, type(value)

    assert outcome(rat) == outcome(lambda s: Fraction(s.strip()))


class _Sub(Fraction):
    pass


_SUB = _Sub(1, 3)


#: rat's outcome on each input, as the isinstance-first rat gave it: the
#: result's type and value and whether it is the input itself, or the type
#: of the exception
RAT_PARITY = [
    (Fraction(3, 6), (Fraction, Fraction(1, 2), True)),
    (_SUB, (_Sub, Fraction(1, 3), True)),
    (5, (Fraction, Fraction(5), False)),
    (2**70, (Fraction, Fraction(2**70), False)),
    (True, (Fraction, Fraction(1), False)),
    (False, (Fraction, Fraction(0), False)),
    ("3/6", (Fraction, Fraction(1, 2), False)),
    ("0.25", (Fraction, Fraction(1, 4), False)),
    (" 1/3 ", (Fraction, Fraction(1, 3), False)),
    ("-0/5", (Fraction, Fraction(0), False)),
    ("+1/2", (Fraction, Fraction(1, 2), False)),
    ("3/0", ZeroDivisionError),
    ("1/-2", ValueError),
    ("1 /2", ValueError),
    ("", ValueError),
    (0.5, TypeError),
    (0.0, TypeError),
    (None, TypeError),
    ([1], TypeError),
    ((1,), TypeError),
]


def _rat_outcome(value):
    try:
        got = rat(value)
    except Exception as exc:  # the exception type is the behaviour
        return type(exc)
    return type(got), got, got is value


@pytest.mark.parametrize("value, want", RAT_PARITY)
def test_rat_parity_table(value, want):
    assert _rat_outcome(value) == want
    try:
        got = rat_vec([value, value])
    except Exception as exc:
        assert type(exc) is want
    else:
        assert [(type(x), x, x is value) for x in got] == [want, want]


def test_rat_vec_returns_an_all_fraction_tuple_itself():
    values = (Fraction(1, 3), Fraction(-2), Fraction(0))
    assert rat_vec(values) is values
    assert rat_vec(()) == ()
    as_list = list(values)
    got = rat_vec(as_list)
    assert type(got) is tuple and got == values and got is not values
    assert all(a is b for a, b in zip(got, values))
    mixed = (Fraction(1, 3), 2, "1/4")  # a tuple with any other entry is rebuilt
    assert rat_vec(mixed) == (Fraction(1, 3), Fraction(2), Fraction(1, 4))
    subs = (_SUB, Fraction(1, 2))
    got = rat_vec(subs)
    assert got == subs and got is not subs and got[0] is _SUB


def test_rat_str_always_shows_denominator():
    assert rat_str(Fraction(3, 5)) == "3/5"
    assert rat_str(2) == "2/1"
    assert rat_str(Fraction(-4, 8)) == "-1/2"
    assert rat_str(True) == "1/1"
    assert rat_vec(["1/2", 3]) == (Fraction(1, 2), Fraction(3))


# -- fraction: Fraction(n, d) by a shift and a gcd on the odd part ------------


def _assert_same_fraction(n, d):
    assert fraction_outcome(fraction, n, d) == fraction_outcome(Fraction, n, d), (n, d)


@pytest.mark.parametrize("kind", ["power of two", "odd", "mixed"])
@pytest.mark.parametrize("seed", [0, 1])
def test_fraction_equals_fraction_on_seeded_denominators(kind, seed):
    # d = 2^k, d odd, or d = 2^k * o with o up to 2000 bits.  The odd part is
    # a product of pieces, and n takes a random subset of them and a random
    # power of two, so both the 2^min term and the odd gcd are exercised.
    rng = Random(f"{kind}:{seed}")
    for _ in range(150):
        k = 0 if kind == "odd" else rng.randrange(0, 1700)
        pieces = [] if kind == "power of two" else [
            odd(rng, rng.randrange(1, 700)) for _ in range(rng.randrange(1, 4))]
        d = math.prod(pieces) << k
        n = rng.getrandbits(rng.randrange(0, 2200)) | 1
        n <<= rng.randrange(0, k + 3)
        n *= math.prod(p for p in pieces if rng.random() < 0.5)
        _assert_same_fraction(rng.choice([1, -1]) * n, d)


@pytest.mark.parametrize("d", [1, 2, 3, 12, 1 << 1500, 3 << 1500, (2**127 - 1) << 900,
                               2**1279 - 1])
def test_fraction_equals_fraction_on_edge_numerators(d):
    for n in (0, 1, -1, 2, -2, d, -d, 2 * d, -6 * d, d * (2**200 + 1), d // 3, -(d >> 1),
              d + 1, 1 << 1600, -(5 << 1600)):
        _assert_same_fraction(n, d)


def test_fraction_refuses_a_zero_denominator_as_fraction_does():
    for n in (0, 1, -7, 3 << 1500):
        assert fraction_outcome(fraction, n, 0) == fraction_outcome(Fraction, n, 0)
    with pytest.raises(ZeroDivisionError, match=r"^Fraction\(5, 0\)$"):
        fraction(5, 0)


def test_fraction_normalises_a_negative_denominator_as_fraction_does():
    for n, d in ((3, -4), (-3, -4), (0, -5), (6, -(3 << 700)), (-(1 << 800), -(9 << 800))):
        _assert_same_fraction(n, d)


def test_rat_parses_long_strings_in_any_terms():
    # the trace's "p/q" strings, canonical or scaled by a common factor
    rng = Random(7)
    for _ in range(40):
        d = odd(rng, rng.randrange(1, 120)) << rng.randrange(1300, 1600)
        n = rng.getrandbits(1600) - (1 << 1599)
        for scale in (1, 2, 6, 2**40 * 17):
            text = f"{n * scale}/{d * scale}"
            got, want = rat(text), Fraction(text)
            assert (type(got), got.numerator, got.denominator) == (
                Fraction, want.numerator, want.denominator)


@pytest.mark.parametrize("text", [
    "0/1", "3/4", "-3/4", "10/3", "-10/3", "2/4", "0/5", "007/3", "-007/3", "00/1", "-0/1",
    "1/02", "+1/2", " 1/2", "0.5", "3",
])
def test_read_rat_calls_only_rat_strs_own_spelling_canonical(text):
    value, canonical = _read_rat(text)
    assert (type(value), value) == (Fraction, Fraction(text))
    assert canonical is (rat_str(value) == text)


def _read_outcome(read, text):
    try:
        value, canonical = read(text)
    except Exception as exc:  # the exception and its message are the behaviour
        return type(exc), str(exc)
    return type(value), value.numerator, value.denominator, canonical


@pytest.mark.parametrize("text", [
    "1/2", "0/1", "-0/1", "01/2", "1/02", " 1/2", "1/2 ", "+1/2", "1_0/3", "2/4", "1/-3",
    "\u0661/\u0662", "1/0", "3", "1.5", "/", "1/", "-/2",
    "--1/2", "1/2/3", "1 2/3", "1/2-3", "-1/2", "1/2\n", "\t1/2", "\uff11/2",
])
def test_read_rat_matches_the_regex_reader(text):
    assert _read_outcome(_read_rat, text) == _read_outcome(oracles.read_rat_regex, text)


def test_read_rat_matches_the_regex_reader_on_seeded_spellings():
    # short strings over digits, the separators and signs, spaces and
    # non-ASCII digits, and long canonical and respelled coordinates
    rng = Random(30)
    alphabet = "0123456789/-+_ .e\t\n\u0661\u0662"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 8)))
             for _ in range(20000)]
    for _ in range(50):
        f = Fraction(rng.getrandbits(1600) - (1 << 1599), (rng.getrandbits(40) | 1) << 1500)
        texts += [rat_str(f), f"{2 * f.numerator}/{2 * f.denominator}", f"0{f.numerator}/{f.denominator}"]
    for text in texts:
        assert _read_outcome(_read_rat, text) == _read_outcome(oracles.read_rat_regex, text), text


# -- JSON text ---------------------------------------------------------------

# quotes, backslashes, control characters, non-ASCII and astral text
json_strings = (
    st.text(alphabet='"\\/\x00\x08\x1f\x7f\n\t ab\u00e9\u2028\U0001f600', max_size=6)
    | st.text(max_size=4)
)
json_scalars = (
    json_strings
    | st.integers(min_value=-(2**2000), max_value=2**2000)
    | st.booleans()
    | st.none()
    | st.floats()
)
json_trees = st.recursive(
    json_scalars,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(json_strings, kids, max_size=4)),
    max_leaves=24,
)


@given(tree=json_trees)
def test_json_text_is_the_indented_sorted_dump(tree):
    assert json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)
    # nested under one key, the tree is written at its own indent
    assert json_text({"k": tree}) == '{\n  "k": ' + json_text(tree, 2) + "\n}"


# -- comparators: exactness at the boundary ----------------------------------


@given(q=positive)
def test_gt_sqrt_boundary_is_strict(q):
    # lhs == sqrt(q^2) exactly: the strict comparator says no
    assert not gt_sqrt(q, q * q)


@given(q=positive, d=positive)
def test_gt_sqrt_separates_sides(q, d):
    assert gt_sqrt(q + d, q * q)
    assert not gt_sqrt(q - d, q * q)


@given(q=nonneg)
def test_gt_sqrt_nonpositive_lhs(q):
    assert not gt_sqrt(Fraction(0), q)
    assert not gt_sqrt(Fraction(-1), q)


def test_gt_sqrt_rejects_negative_square():
    with pytest.raises(ValueError):
        gt_sqrt(Fraction(1), Fraction(-1))
    with pytest.raises(ValueError):
        gt_sum_two_sqrt(Fraction(1), Fraction(-1), Fraction(0))


@given(a=nonneg, b=nonneg, lhs=rationals)
def test_gt_sum_two_sqrt_matches_on_perfect_squares(a, b, lhs):
    # with both operands perfect squares the truth is directly computable
    truth = lhs > a + b
    assert gt_sum_two_sqrt(lhs, a * a, b * b) == truth


@given(a=positive, b=positive)
def test_gt_sum_two_sqrt_boundary_strict(a, b):
    s = a + b
    assert not gt_sum_two_sqrt(s, a * a, b * b)
    assert gt_sum_two_sqrt(s + Fraction(1, 10**9), a * a, b * b)


def test_gt_sum_two_sqrt_irrational_case():
    # 1.9 < sqrt(2) + sqrt(2) < 3: check a genuinely irrational comparison
    assert gt_sum_two_sqrt(Fraction(3), 2, 2)
    assert not gt_sum_two_sqrt(Fraction(28, 10), 2, 2)  # 2*sqrt(2) = 2.828...
    assert gt_sum_two_sqrt(Fraction(29, 10), 2, 2)


# -- reporting bounds --------------------------------------------------------


@given(x=nonneg)
def test_sqrt_bounds_bracket(x):
    lo, hi = (Fraction(v, 1 << 64) for v in sqrt_bounds(x))
    assert lo * lo <= x <= hi * hi
    assert hi - lo <= Fraction(3, 1 << 64)


def test_sqrt_bounds_perfect_square():
    assert sqrt_bounds(Fraction(49))[0] == 7 << 64
    assert sqrt_bounds(0) == (0, 0)
    with pytest.raises(ValueError):
        sqrt_bounds(Fraction(-1))


# -- scaled-integer brackets -------------------------------------------------


def _brackets(bounds, prec, exact) -> bool:
    """lo <= exact() * 2^prec <= hi, exact() evaluated by mpmath well past prec bits."""
    import mpmath

    lo, hi = bounds
    with mpmath.workdps(prec // 3 + 30):
        scaled = exact(mpmath) * mpmath.mpf(2) ** prec
        return lo <= scaled <= hi


@given(x=st.fractions(min_value=0, max_value=Fraction(1, 2), max_denominator=10**6))
def test_asin_bounds_bracket(x):
    for prec in (64, 128):
        lo, hi = asin_bounds(x, prec)
        assert hi - lo <= prec
        assert _brackets((lo, hi), prec, lambda mp: mp.asin(mp.mpf(x.numerator) / x.denominator))


def test_brackets_keep_the_tail_below_one_unit():
    # the first term is already below one unit: the bracket is the tail bound
    assert asin_bounds(Fraction(1, 1 << 70), 64) == (0, 2)
    assert log_bounds(1 + Fraction(1, 1 << 70), 64) == (0, 4)


def test_asin_bounds_domain():
    assert asin_bounds(0, 64) == (0, 0)
    with pytest.raises(ValueError):
        asin_bounds(Fraction(51, 100), 64)
    with pytest.raises(ValueError):
        asin_bounds(Fraction(-1, 100), 64)


@given(x=st.fractions(min_value=1, max_value=Fraction(10**6), max_denominator=10**6))
def test_log_bounds_bracket(x):
    for prec in (64, 128):
        lo, hi = log_bounds(x, prec)
        assert hi - lo <= prec * (x.numerator.bit_length() + 1)
        assert _brackets((lo, hi), prec, lambda mp: mp.log(mp.mpf(x.numerator) / x.denominator))


def test_log_bounds_domain():
    assert log_bounds(1, 64) == (0, 0)
    with pytest.raises(ValueError):
        log_bounds(Fraction(99, 100), 64)


@pytest.mark.parametrize("prec", [8, 64, 200, 1000])
def test_pi_bounds_bracket(prec):
    lo, hi = pi_bounds(prec)
    assert hi - lo <= 2
    assert _brackets((lo, hi), prec, lambda mp: +mp.pi)


def test_scaled_bounds_are_floor_and_ceil():
    assert scaled_bounds(Fraction(1, 3), 4) == (5, 6)
    assert scaled_bounds(Fraction(-1, 3), 4) == (-6, -5)
    assert scaled_bounds(Fraction(3, 4), 4) == (12, 12)


@given(x=rationals)
def test_floor_ceil(x):
    f, c = floor_frac(x), ceil_frac(x)
    assert f <= x <= c
    assert c - f == (0 if x.denominator == 1 else 1)
    assert f == math.floor(x) and c == math.ceil(x)


def test_round_half_even_is_fraction_rounding():
    # (a, s - a*den) with a = round(Fraction(s, den)): every tie k + 1/2 goes to
    # the even neighbour, over small and 1500-bit denominators, unreduced too
    rng = Random(47)
    cases = [(2 * k + 1, 2) for k in range(-6, 7)] + [(s, 1) for s in range(-3, 4)]
    for _ in range(2000):
        den = (1 << rng.randrange(1501)) * (2 * rng.randrange(50) + 1)
        s = rng.randrange(-5 * den, 5 * den)
        if rng.random() < 0.2 and den % 2 == 0:
            s = rng.randrange(-5, 5) * den + den // 2  # an exact tie
        cases.append((s, den))
    ties = 0
    for s, den in cases:
        a = round(Fraction(s, den))
        assert round_half_even(s, den) == (a, s - a * den), (s, den)
        ties += 2 * abs(s - a * den) == den
    assert ties > 100
