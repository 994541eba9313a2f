"""The integer lattice kernel, and every scan built on it, against the
Fraction oracles in oracles.py."""
import itertools
import random
from fractions import Fraction

import pytest

import oracles
from badapprox import exact
from badapprox.certify import (
    DecayTable,
    PowerLaw,
    jarnik_constant,
    resonance_margin,
    theorem1_constant,
)
from badapprox.exact import box_distances, int_dist, over_common_denominator, sup_norms
from badapprox.geometry import nearest_int_dist
from badapprox.resonance import (
    ThetaMatrix,
    best_approximations,
    psi_theta,
    verify_decay_bound,
)
from conftest import make_sequence

SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2)]
#: theta = (1/6, 1/4): many points share a value, so ties decide the argmin
TIE_ETAS = [Fraction(0), Fraction(1, 12), Fraction(1, 2)]


def random_instance(rng, m, n, den):
    theta = ThetaMatrix(tuple(
        tuple(Fraction(rng.randrange(den), den) for _ in range(n)) for _ in range(m)
    ))
    eta = [Fraction(rng.randrange(2 * den), 2 * den) for _ in range(n)]
    return theta, eta


def limit_for(m):
    return 7 if m == 2 else 40


# -- the kernel ----------------------------------------------------------------


def test_int_dist_is_nearest_int_dist():
    for den in (1, 2, 7, 12):
        for v in range(-30, 31):
            assert Fraction(int_dist(v, den), den) == nearest_int_dist(Fraction(v, den))


def test_over_common_denominator():
    den, ints = over_common_denominator([Fraction(1, 6), Fraction(3, 4), 2])
    assert den == 12
    assert ints == [2, 9, 24]


@pytest.mark.parametrize("head_norm", [0, 2, 5])
def test_sup_norms(head_norm):
    for lo, hi in [(-6, 7), (-6, -3), (-2, 3), (3, 7), (0, 0)]:
        expected = [max(head_norm, abs(x)) for x in range(lo, hi)]
        assert list(sup_norms(head_norm, lo, hi)) == expected


@pytest.mark.parametrize("k,forms,half", [(1, 1, False), (1, 2, True), (2, 2, False), (3, 1, True)])
def test_box_distances_matches_pointwise(k, forms, half):
    rng = random.Random(k * 10 + forms)
    den = 60
    coeffs = [[rng.randrange(-200, 200) for _ in range(forms)] for _ in range(k)]
    offsets = [rng.randrange(-200, 200) for _ in range(forms)]
    limit = 3
    walked = []
    for head, lo, nums in box_distances(coeffs, offsets, den, limit, half):
        walked += [(head + (lo + j,), v) for j, v in enumerate(nums)]
    box = itertools.product(range(-limit, limit + 1), repeat=k)
    points = [x for x in box if not half or oracles.canonical_sign(x)]
    assert [x for x, _ in walked] == points  # lex order, each point once
    for x, v in walked:
        assert v == max(
            int_dist(off + sum(c[f] * xi for c, xi in zip(coeffs, x)), den)
            for f, off in enumerate(offsets)
        )


def test_box_distances_chunks_long_rows():
    # one row of 2 * 2500 + 1 points: two chunks, the second one short
    chunks = list(box_distances([[3]], [1], 10, 2500))
    assert [(lo, len(nums)) for _, lo, nums in chunks] == [
        (-2500, exact.CHUNK), (-2500 + exact.CHUNK, 5001 - exact.CHUNK)
    ]
    nums = [v for _, _, part in chunks for v in part]
    assert nums == [int_dist(1 + 3 * x, 10) for x in range(-2500, 2501)]


def test_box_distances_zero_step():
    # a form that ignores the innermost coordinate is constant along rows
    rows = list(box_distances([[1], [0]], [0], 4, 1))
    assert [nums for _, _, nums in rows] == [[1, 1, 1], [0, 0, 0], [1, 1, 1]]


# -- certify against the oracle ------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_theorem1_matches_oracle(seed):
    rng = random.Random(seed)
    m, n = SHAPES[seed % 4]
    theta, eta = random_instance(rng, m, n, rng.choice([5, 12, 97, 2**31 - 1]))
    rep = theorem1_constant(theta, eta, limit_for(m))
    assert (rep.value, rep.argmin) == oracles.theorem1(theta, eta, limit_for(m))


@pytest.mark.parametrize("seed", range(8))
def test_power_law_matches_oracle(seed):
    rng = random.Random(100 + seed)
    m, n = SHAPES[seed % 4]
    theta, eta = random_instance(rng, m, n, rng.choice([6, 31]))
    psi = PowerLaw(Fraction(rng.randrange(1, 9), rng.randrange(1, 9)),
                   rng.randrange(1, 4), rng.randrange(1, 4))
    rep = jarnik_constant(theta, eta, psi, limit_for(m))
    assert (rep.value, rep.argmin) == oracles.jarnik(theta, eta, psi, limit_for(m))


@pytest.mark.parametrize("eta", TIE_ETAS)
def test_ties_on_small_denominators(eta):
    column = ThetaMatrix(((Fraction(1, 6),), (Fraction(1, 4),)))
    row = ThetaMatrix(((Fraction(1, 6), Fraction(1, 4)),))
    for theta, shift, limit in ((column, [eta], 9), (row, [eta, eta], 30)):
        rep = theorem1_constant(theta, shift, limit)
        assert (rep.value, rep.argmin) == oracles.theorem1(theta, shift, limit)
        psi = PowerLaw(Fraction(1, 3), 2, 2)
        rep = jarnik_constant(theta, shift, psi, limit)
        assert (rep.value, rep.argmin) == oracles.jarnik(theta, shift, psi, limit)


@pytest.mark.parametrize("seed", range(4))
def test_planted_zero(seed):
    rng = random.Random(200 + seed)
    m, n = SHAPES[seed]
    theta, _ = random_instance(rng, m, n, 101)
    x0 = [rng.randint(-5, 5) or 1 for _ in range(m)]
    eta = [sum(theta.rows[i][j] * x0[i] for i in range(m)) % 1 for j in range(n)]
    rep = theorem1_constant(theta, eta, 6)
    assert rep.value == 0
    assert (rep.value, rep.argmin) == oracles.theorem1(theta, eta, 6)


@pytest.mark.parametrize("sigma", [(2, 2), (4, 2), (3, 3)])
def test_power_law_unreduced_sigma(sigma):
    rng = random.Random(sum(sigma))
    for m, n in SHAPES:
        theta, eta = random_instance(rng, m, n, 13)
        psi = PowerLaw(Fraction(3, 2), *sigma)
        rep = jarnik_constant(theta, eta, psi, limit_for(m))
        assert (rep.value, rep.argmin) == oracles.jarnik(theta, eta, psi, limit_for(m))
        assert rep.extras["normal_form_power"] == sigma[0]


def test_decay_table_exclusion_window():
    # coverage [5, 40]: every size below 5 is excluded from the minimum,
    # including the exact zeros the table would otherwise pick up there
    table = DecayTable(sizes=(1, 4, 9), values=(Fraction(1, 5), Fraction(1, 12), Fraction(1, 40)))
    assert (table.s_min, table.s_max) == (5, 40)
    assert table.rho_upto(40) == [oracles.decay_rho(table, s) for s in range(5, 41)]
    rng = random.Random(7)
    for m, n in SHAPES:
        theta, eta = random_instance(rng, m, n, 4)
        limit = 7 if m == 2 else 40
        rep = jarnik_constant(theta, eta, table, limit)
        assert (rep.value, rep.argmin) == oracles.jarnik(theta, eta, table, limit)
        assert max(abs(c) for c in rep.argmin) >= 5


def test_resonance_margin_matches_fraction_sum():
    seq = make_sequence([(1, 0), (3, 2), (-11, 9), (40, -37)])
    rng = random.Random(3)
    for _ in range(20):
        eta = [Fraction(rng.randrange(1000), rng.randrange(1, 1000)) for _ in range(2)]
        rep = resonance_margin(seq, eta)
        dists = [
            nearest_int_dist(sum(Fraction(c) * e for c, e in zip(seq.vector(r), eta)))
            for r in range(1, len(seq) + 1)
        ]
        assert rep.value == min(dists)
        assert rep.argmin == (dists.index(min(dists)) + 1,)


# -- resonance against the oracle ----------------------------------------------

THETAS = {
    "1x2": ThetaMatrix(((Fraction(5, 17), Fraction(3, 13)),)),
    "1x2-ties": ThetaMatrix(((Fraction(1, 6), Fraction(1, 4)),)),
    "2x2": ThetaMatrix(((Fraction(2, 11), Fraction(7, 19)), (Fraction(1, 23), Fraction(5, 9)))),
    "2x2-prime": ThetaMatrix((
        (Fraction(1234567, 2**31 - 1), Fraction(99991, 2**31 - 1)),
        (Fraction(7654321, 2**31 - 1), Fraction(31, 2**31 - 1)),
    )),
}


@pytest.mark.parametrize("name", sorted(THETAS))
def test_psi_theta_matches_oracle(name):
    theta = THETAS[name]
    for t in range(1, 9):
        assert psi_theta(theta, t) == oracles.psi_theta(theta, t)


@pytest.mark.parametrize("name", sorted(THETAS))
def test_best_approximations_matches_oracle(name):
    theta = THETAS[name]
    for t in (1, 2, 5, 12):
        assert best_approximations(theta, t) == oracles.best_approximations(theta, t)


@pytest.mark.parametrize("name", sorted(THETAS))
def test_decay_steps_match_oracle(name):
    theta = THETAS[name]
    report = verify_decay_bound(theta, lambda t: Fraction(1, t * t), 12)
    assert report["steps"] == oracles.decay_steps(theta, 12)


def test_decay_failures_in_increasing_t(golden):
    report = verify_decay_bound(golden, lambda t: Fraction(1, 10 * t), 30)
    ts = [f["t"] for f in report["failures"]]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)
    # some constant segment fails at both of its ends
    steps = [t for t, _ in report["steps"]]
    assert any(t in ts and (nxt - 1) in ts and nxt - 1 > t for t, nxt in zip(steps, steps[1:]))
