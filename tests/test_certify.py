"""Tests for the independent certification layer.

The badness functionals are the evidence side of the repository, so this
file leans on in-test brute-force oracles and hand-computed pins rather
than anything from the strategy modules.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from badapprox.certify import (
    BadnessReport,
    DecayTable,
    PowerLaw,
    TableRangeExceeded,
    jarnik_constant,
    parse_power_spec,
    resonance_margin,
    theorem1_constant,
)
from badapprox.geometry import nearest_int_dist
from badapprox.resonance import EmptySequence, ThetaMatrix
from conftest import make_sequence

# Frozen outputs for the flagship scalar target (denominator 1346269) with
# the shift produced by the constructed game; recomputed independently
# before being pinned here.
GOLDEN_ETA = Fraction(160567, 524288)
GOLDEN_VALUE = Fraction(6450562909, 176458170368)
GOLDEN_ARGMIN = (28,)


def scalar(v) -> ThetaMatrix:
    return ThetaMatrix(((Fraction(v),),))


# ---------------------------------------------------------------------------
# product functional: pins
# ---------------------------------------------------------------------------


def test_product_tiny_pin_with_lexicographic_tie():
    # theta=1/2, eta=1/4: |x|=1 gives distance 1/4 on both sides, so the
    # value ties at 1/4 and the argmin must be the lex-smaller (-1,).
    rep = theorem1_constant(scalar(Fraction(1, 2)), [Fraction(1, 4)], 1)
    assert rep.value == Fraction(1, 4)
    assert rep.argmin == (-1,)
    assert rep.functional == "product"
    assert rep.extras["shape"] == [1, 1]
    assert rep.warnings == []


def test_product_golden_pin(golden):
    rep = theorem1_constant(golden, [GOLDEN_ETA], 100)
    assert rep.value == GOLDEN_VALUE
    assert rep.argmin == GOLDEN_ARGMIN


def test_product_golden_pin_at_depth(golden):
    # 10^5 is the flagship `certify --N 100000`, which the oracle's box walk
    # still reaches; 10^9 only the 1x1 lattice route reaches in a test
    for limit in (10**5, 10**9):
        rep = theorem1_constant(golden, [GOLDEN_ETA], limit)
        assert (rep.value, rep.argmin) == (GOLDEN_VALUE, GOLDEN_ARGMIN)
    key, den, argmin = oracles.box_walk(golden, [GOLDEN_ETA], 10**5, 1, 1)
    assert (Fraction(key, den), argmin) == (GOLDEN_VALUE, GOLDEN_ARGMIN)


def test_product_monotone_in_limit_and_positive(golden):
    r100 = theorem1_constant(golden, [GOLDEN_ETA], 100)
    r1000 = theorem1_constant(golden, [GOLDEN_ETA], 1000)
    assert r1000.value <= r100.value
    assert r1000.value > 0
    # the minimizer at 100 survives unchanged out to 1000
    assert r1000.argmin == r100.argmin


def test_product_planted_zero(golden):
    # Shift sitting exactly on the 7th resonance value: the functional
    # must report an exact zero and name the planted integer.
    theta_val = golden.rows[0][0]
    eta = 7 * theta_val - int(7 * theta_val)
    rep = theorem1_constant(golden, [eta], 50)
    assert rep.value == 0
    assert rep.argmin == (7,)


def test_product_rejects_bad_inputs(golden):
    with pytest.raises(ValueError):
        theorem1_constant(golden, [GOLDEN_ETA], 0)
    with pytest.raises(ValueError):
        theorem1_constant(golden, [Fraction(1, 3), Fraction(1, 5)], 10)


# ---------------------------------------------------------------------------
# product functional: brute-force cross-check (two forms, one variable)
# ---------------------------------------------------------------------------


def brute_product(rows, eta, limit):
    """Naive double loop, written with none of the library's scan tricks."""
    best = None
    for x1 in range(-limit, limit + 1):
        for x2 in range(-limit, limit + 1):
            if x1 == 0 and x2 == 0:
                continue
            r = nearest_int_dist(rows[0][0] * x1 + rows[1][0] * x2 - eta)
            s = max(abs(x1), abs(x2))
            v = r * Fraction(s) ** 2
            key = (v, (x1, x2))
            if best is None or key < best:
                best = key
    return best


@pytest.mark.parametrize("seed", range(10))
def test_product_matches_brute_force_m2_n1(seed):
    rng = random.Random(seed)
    rows = (
        (Fraction(rng.randrange(1, 60), 61),),
        (Fraction(rng.randrange(1, 60), 61),),
    )
    eta = Fraction(rng.randrange(0, 97), 97)
    rep = theorem1_constant(ThetaMatrix(rows), [eta], 6)
    value, argmin = brute_product(rows, eta, 6)
    assert rep.value == value
    assert rep.argmin == argmin


# ---------------------------------------------------------------------------
# decay-weighted functional: power-law branch
# ---------------------------------------------------------------------------


def random_instance(rng, m, n):
    rows = tuple(
        tuple(Fraction(rng.randrange(1, 40), 41) for _ in range(n))
        for _ in range(m)
    )
    eta = [Fraction(rng.randrange(0, 53), 53) for _ in range(n)]
    return ThetaMatrix(rows), eta


@pytest.mark.parametrize("seed", range(8))
def test_power_law_sigma_n_over_m_equals_product(seed):
    # With c=1 and sigma = n/m kept unreduced, the normal form
    # r^n * s^m is literally the product functional: identical minima
    # and identical minimizers.
    rng = random.Random(1000 + seed)
    m = rng.choice([1, 2])
    n = rng.choice([1, 2])
    theta, eta = random_instance(rng, m, n)
    limit = 6 if m == 2 else 25
    psi = PowerLaw(Fraction(1), n, m)
    rj = jarnik_constant(theta, eta, psi, limit)
    rp = theorem1_constant(theta, eta, limit)
    assert rj.value == rp.value
    assert rj.argmin == rp.argmin
    assert rj.functional == "decay-weighted"
    assert rj.extras["normal_form_power"] == n


def test_power_law_c_not_one_hand_check():
    # psi(t) = (2t)^{-1}: value is r * (2s), twice the plain product.
    rep = jarnik_constant(
        scalar(Fraction(1, 2)), [Fraction(1, 4)], PowerLaw(Fraction(2), 1, 1), 1
    )
    assert rep.value == Fraction(1, 2)
    assert rep.argmin == (-1,)
    assert rep.extras["psi"] == {"kind": "power", "c": "2/1", "sigma": "1/1"}


def test_power_law_validation():
    with pytest.raises(ValueError):
        PowerLaw(Fraction(0), 1, 1)
    with pytest.raises(ValueError):
        PowerLaw(Fraction(1), 0, 1)
    with pytest.raises(ValueError):
        PowerLaw(Fraction(1), 1, -2)


def test_jarnik_rejects_unknown_psi(golden):
    with pytest.raises(TypeError):
        jarnik_constant(golden, [GOLDEN_ETA], "power:c=1,sigma=1", 10)


# ---------------------------------------------------------------------------
# decay-weighted functional: table branch
# ---------------------------------------------------------------------------


def two_row_table() -> DecayTable:
    return DecayTable(sizes=(1, 3), values=(Fraction(2, 7), Fraction(1, 7)))


def test_table_coverage_window():
    tab = two_row_table()
    assert tab.s_min == 4  # ceil(7/2)
    assert tab.s_max == 7
    assert [oracles.decay_rho(tab, s) for s in range(4, 8)] == [1, 1, 1, 3]
    for s in (3, 8):
        with pytest.raises(TableRangeExceeded):
            oracles.decay_rho(tab, s)


def test_table_functional_hand_check():
    # theta=2/7, eta=1/3, limit 7: sizes below 4 are excluded, and the
    # winner is x=-6 with distance 1/21 at weight rho=1.
    rep = jarnik_constant(scalar(Fraction(2, 7)), [Fraction(1, 3)], two_row_table(), 7)
    assert rep.value == Fraction(1, 21)
    assert rep.argmin == (-6,)
    assert rep.extras["coverage"] == [4, 7]
    assert rep.extras["psi"]["kind"] == "table"


def test_table_functional_refuses_limits_outside_coverage():
    for limit in (3, 8):
        with pytest.raises(TableRangeExceeded):
            jarnik_constant(
                scalar(Fraction(2, 7)), [Fraction(1, 3)], two_row_table(), limit
            )


def test_table_round_trip():
    tab = two_row_table()
    blob = tab.to_jsonable()
    assert blob == {"kind": "table", "sizes": [1, 3], "values": ["2/7", "1/7"]}
    again = DecayTable(
        sizes=tuple(blob["sizes"]),
        values=tuple(Fraction(v) for v in blob["values"]),
    )
    assert again == tab


def test_table_validation():
    with pytest.raises(ValueError):
        DecayTable(sizes=(1, 2), values=(Fraction(1, 2),))
    with pytest.raises(ValueError):
        DecayTable(sizes=(), values=())
    with pytest.raises(ValueError):
        DecayTable(sizes=(2, 2), values=(Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        DecayTable(sizes=(1, 2), values=(Fraction(1, 3), Fraction(1, 2)))
    with pytest.raises(ValueError):
        DecayTable(sizes=(1, 2), values=(Fraction(1, 2), Fraction(0)))


@pytest.mark.parametrize("sizes", [(0, 2), (-3, 1)])
def test_table_sizes_must_be_positive(sizes):
    # rho weighs a distance: a zero or negative weight would make a key of 0
    # (or less) that no exact hit earned
    with pytest.raises(ValueError, match="positive"):
        DecayTable(sizes=sizes, values=(Fraction(1, 2), Fraction(1, 3)))


# ---------------------------------------------------------------------------
# psi spec parsing
# ---------------------------------------------------------------------------


def test_parse_power_spec_basic():
    psi = parse_power_spec("power:c=1,sigma=1")
    assert psi == PowerLaw(Fraction(1), 1, 1)


def test_parse_power_spec_keeps_sigma_unreduced():
    psi = parse_power_spec("power:sigma=2/4,c=5/2")
    assert psi.c == Fraction(5, 2)
    assert (psi.sigma_num, psi.sigma_den) == (2, 4)


def test_parse_power_spec_errors():
    for bad in ("decay:c=1", "power", "power:rate=3"):
        with pytest.raises(ValueError):
            parse_power_spec(bad)


# ---------------------------------------------------------------------------
# surrogate-range warnings and report serialization
# ---------------------------------------------------------------------------


def test_surrogate_warning_past_sqrt_denominator(golden):
    # denominator 1346269 -> isqrt 1160: size bound 10000 is past the range
    # where a rational stand-in still behaves like its irrational target.
    noisy = theorem1_constant(golden, [GOLDEN_ETA], 10000)
    assert noisy.warnings and "1160" in noisy.warnings[0]
    clean = theorem1_constant(golden, [GOLDEN_ETA], 1000)
    assert clean.warnings == []


def test_report_jsonable_shape():
    rep = theorem1_constant(scalar(Fraction(1, 2)), [Fraction(1, 4)], 1)
    blob = rep.to_jsonable()
    assert blob == {
        "functional": "product",
        "value": "1/4",
        "argmin": [-1],
        "limit": 1,
        "extras": {"shape": [1, 1]},
        "warnings": [],
    }
    assert isinstance(rep, BadnessReport)


# ---------------------------------------------------------------------------
# resonance margin
# ---------------------------------------------------------------------------


def test_resonance_margin_golden_pin(golden_seq):
    rep = resonance_margin(golden_seq, [GOLDEN_ETA])
    assert rep.value == Fraction(9781, 524288)
    assert rep.argmin == (3,)
    assert rep.extras["norm_sq"] == 169
    assert rep.limit == len(golden_seq)


def test_resonance_margin_r_max_truncates(golden_seq):
    rep = resonance_margin(golden_seq, [GOLDEN_ETA], r_max=1)
    assert rep.value == GOLDEN_ETA  # ||1 * eta|| with eta < 1/2
    assert rep.argmin == (1,)


def test_resonance_margin_empty(golden_seq):
    with pytest.raises(EmptySequence):
        resonance_margin(golden_seq, [GOLDEN_ETA], r_max=0)


@pytest.mark.parametrize("eta", [["1/3"], ["1/3", "1/5", "1/7"]])
def test_resonance_margin_refuses_eta_of_another_dimension(eta):
    # zip would drop the surplus coordinate, or the family's second one
    seq = make_sequence([(1, 0), (3, 2)])
    with pytest.raises(ValueError, match=f"eta has dimension {len(eta)}, expected 2"):
        resonance_margin(seq, eta)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=40)
@given(
    num=st.integers(0, 40),
    eta_num=st.integers(0, 28),
    limit=st.integers(1, 12),
)
def test_product_value_monotone_in_limit(num, eta_num, limit):
    theta = scalar(Fraction(num, 41))
    eta = [Fraction(eta_num, 29)]
    small = theorem1_constant(theta, eta, limit)
    big = theorem1_constant(theta, eta, limit + 3)
    assert big.value <= small.value
    assert small.value >= 0


@settings(max_examples=30)
@given(
    num=st.integers(1, 40),
    eta_num=st.integers(0, 28),
    c_num=st.integers(1, 5),
)
def test_power_law_scales_like_c_to_the_q(num, eta_num, c_num):
    # For sigma=1 on scalars the value in normal form is r * (c*s):
    # multiplying c by a constant multiplies every candidate value, so the
    # argmin is unchanged and the value scales exactly.
    theta = scalar(Fraction(num, 41))
    eta = [Fraction(eta_num, 29)]
    base = jarnik_constant(theta, eta, PowerLaw(Fraction(1), 1, 1), 9)
    scaled = jarnik_constant(theta, eta, PowerLaw(Fraction(c_num), 1, 1), 9)
    assert scaled.argmin == base.argmin
    assert scaled.value == c_num * base.value
