"""The integer lattice kernel, and every scan built on it, against the
Fraction oracles in oracles.py."""
import itertools
import random
from fractions import Fraction

import pytest

import oracles
from badapprox import certify, exact
from badapprox.certify import (
    DecayTable,
    PowerLaw,
    jarnik_constant,
    resonance_margin,
    theorem1_constant,
)
from badapprox.exact import (
    box_distances,
    int_dist,
    iroot,
    lattice_box,
    line_minimum,
    over_common_denominator,
    sup_norms,
)
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


# -- the 1x1 route against the box walk ------------------------------------------


def box_walk(theta, eta, limit, power, weight):
    """``certify._box_min`` with the weight ``_scan_min`` takes: the 1x1 oracle."""
    if isinstance(weight, DecayTable):
        rho = [0] * weight.s_min + weight.rho_upto(limit)
        return certify._box_min(theta, eta, limit, power,
                                lambda sizes: map(rho.__getitem__, sizes), weight.s_min)
    return certify._box_min(theta, eta, limit, power, certify._powers(weight))


def scalar(v):
    return ThetaMatrix(((Fraction(v),),))


#: (p, q) for the normal form |v|^p * s^q: the product functional and the
#: power laws sigma = p/q
POWERS = [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3)]


def test_iroot():
    rng = random.Random(5)
    for k in (1, 2, 3, 5):
        for n in [0, 1, 2, 7, 8, 9, 10**6, 2**64 - 1] + [rng.randrange(10**40) for _ in range(30)]:
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k


@pytest.mark.parametrize("seed", range(4))
def test_lattice_box_lists_every_point_once(seed):
    rng = random.Random(seed)
    den = rng.randrange(2, 60)
    a = rng.randrange(den)
    basis = ((1, a), (0, den))
    # any basis of the lattice will do: mix it by a unimodular matrix
    for _ in range(3):
        mu = rng.randrange(-4, 5)
        basis = (basis[1], (basis[0][0] + mu * basis[1][0], basis[0][1] + mu * basis[1][1]))
    (x1, u1), (x2, u2) = basis
    if x1 * u2 - x2 * u1 < 0:
        basis = (basis[0], (-x2, -u2))
    xlo, ulo = rng.randrange(-20, 20), rng.randrange(-80, 80)
    xhi, uhi = xlo + rng.randrange(0, 15), ulo + rng.randrange(0, 90)
    listed = list(lattice_box(*basis, xlo, xhi, ulo, uhi))
    expected = [(x, u) for x in range(xlo, xhi + 1) for u in range(ulo, uhi + 1)
                if (u - a * x) % den == 0]
    assert sorted(listed) == expected


def test_line_minimum_refuses_an_empty_size_range():
    with pytest.raises(ValueError):
        line_minimum(1, 0, 7, 3, 1, lambda s: s, s_floor=4)


@pytest.mark.parametrize("p,q", POWERS)
def test_1x1_route_matches_box_walk_exhaustively_on_small_denominators(p, q):
    # every theta and eta over small denominators, N = 1, 2, 3 and past D:
    # the distances repeat with period D, so ties across signs and bands abound
    for den in range(1, 9):
        for a in range(den):
            theta = scalar(Fraction(a, den))
            for e in range(2 * den):
                eta = [Fraction(e, 2 * den)]
                for limit in (1, 2, 3, 2 * den + 3):
                    assert (certify._scan_min(theta, eta, limit, p, q)
                            == box_walk(theta, eta, limit, p, q))


def seeded_case(rng):
    den = rng.choice([rng.randrange(2, 1000), rng.randrange(2, 10**6),
                      rng.randrange(2, 10**12), rng.randrange(2, 10**19), 10**19])
    theta = Fraction(rng.randrange(den), den)
    limit = rng.choice([rng.randrange(1, 40), rng.randrange(1, 1500)])
    kind = rng.randrange(3)
    if kind == 0:  # an exact hit at x0, inside or outside [-limit, limit]
        eta = theta * (rng.randrange(-2 * limit, 2 * limit + 1) or 1) % 1
    elif kind == 1:  # a near-hit: off a multiple of theta by a few 1/(2D)
        x0 = rng.randrange(-2 * limit, 2 * limit + 1)
        eta = (theta * x0 + Fraction(rng.randrange(-3, 4), 2 * den)) % 1
    else:
        eta = Fraction(rng.randrange(2 * den), 2 * den)
    return scalar(theta), [eta], limit


@pytest.mark.parametrize("seed", range(6))
def test_1x1_route_matches_box_walk_on_seeded_cases(seed):
    rng = random.Random(1000 + seed)
    for _ in range(60):
        theta, eta, limit = seeded_case(rng)
        p, q = rng.choice(POWERS)
        assert (certify._scan_min(theta, eta, limit, p, q)
                == box_walk(theta, eta, limit, p, q)), (theta, eta, limit, p, q)


@pytest.mark.parametrize("seed", range(4))
def test_1x1_route_matches_box_walk_on_table_windows(seed):
    rng = random.Random(2000 + seed)
    for _ in range(40):
        theta, eta, _ = seeded_case(rng)
        sizes = tuple(sorted(rng.sample(range(1, 60), rng.randrange(1, 5))))
        values = sorted({Fraction(1, rng.randrange(1, 400)) for _ in sizes}, reverse=True)
        table = DecayTable(sizes[:len(values)], values)
        if table.s_min > table.s_max:
            continue
        limit = rng.randrange(table.s_min, table.s_max + 1)
        assert (certify._scan_min(theta, eta, limit, 1, table)
                == box_walk(theta, eta, limit, 1, table)), (theta, eta, table, limit)


def test_1x1_exact_hits_inside_and_outside_the_range():
    # theta = 1/97, eta = 50/97: the hits are x = 50 + 97k, i.e. -47 and 50
    theta, eta = scalar(Fraction(1, 97)), [Fraction(50, 97)]
    for limit, hit in ((46, None), (47, -47), (49, -47), (50, -47), (200, -144)):
        key, _, argmin = certify._scan_min(theta, eta, limit, 1, 1)
        assert (key == 0) == (hit is not None)
        if hit is not None:
            assert argmin == (hit,)  # the smallest signed hit
        assert (key, argmin) == box_walk(theta, eta, limit, 1, 1)[::2]
    # a table window [5, 40] hides the hits at x = -3, 4 (theta = 1/7, eta = 4/7)
    table = DecayTable(sizes=(1, 4, 9), values=(Fraction(1, 5), Fraction(1, 12), Fraction(1, 40)))
    theta, eta = scalar(Fraction(1, 7)), [Fraction(4, 7)]
    for limit, hit in ((5, None), (9, None), (10, -10), (16, -10), (17, -17), (40, -38)):
        got = certify._scan_min(theta, eta, limit, 1, table)
        assert got == box_walk(theta, eta, limit, 1, table)
        assert (got[0] == 0) == (hit is not None)
        if hit is not None:
            assert got[2] == (hit,)


def test_1x1_ties_go_to_the_smallest_signed_x():
    # theta = 1/2, eta = 1/4: every x has distance 1/4, so the weight decides
    theta, eta = scalar(Fraction(1, 2)), [Fraction(1, 4)]
    for p, q in POWERS:
        assert certify._scan_min(theta, eta, 9, p, q)[2] == (-1,)  # x = -1 ties x = 1
    # rho = 3 on sizes 5..39 and 4 at 40: the tie spans six bands and both
    # signs, and goes to the most negative x
    table = DecayTable(sizes=(3, 4), values=(Fraction(1, 5), Fraction(1, 40)))
    for limit in (5, 39, 40):
        got = certify._scan_min(theta, eta, limit, 1, table)
        assert got == box_walk(theta, eta, limit, 1, table)
        assert got[2] == (-min(limit, 39),)


def test_1x1_large_denominators_and_a_huge_partial_quotient():
    # theta = 1/1000003: its second convergent denominator is 10^6 + 3
    theta = scalar(Fraction(1, 1000003))
    for eta in ([Fraction(1, 3)], [Fraction(7, 2000006)], [Fraction(500001, 1000003)]):
        assert certify._scan_min(theta, eta, 1500, 1, 1) == box_walk(theta, eta, 1500, 1, 1)
    assert 0 < theorem1_constant(theta, [Fraction(1, 3)], 10**9).value
    # the hits x = 500001 + 1000003 k lie outside [-1500, 1500] but not [-10^9, 10^9]
    far = theorem1_constant(theta, [Fraction(500001, 1000003)], 10**9)
    assert (far.value, far.argmin) == (0, (500001 - 1000 * 1000003,))
    den = 10**19 + 7
    rng = random.Random(19)
    for _ in range(6):
        theta = scalar(Fraction(rng.randrange(den), den))
        eta = [Fraction(rng.randrange(den), den)]
        for p, q in POWERS:
            assert (certify._scan_min(theta, eta, 1200, p, q)
                    == box_walk(theta, eta, 1200, p, q))


def test_1x1_table_route_builds_no_rho_list(monkeypatch):
    table = DecayTable(sizes=(1, 4, 9), values=(Fraction(1, 5), Fraction(1, 12), Fraction(1, 40)))
    expected = jarnik_constant(scalar(Fraction(2, 7)), [Fraction(1, 3)], table, 40)

    def refuse(self, limit):
        raise AssertionError("rho_upto called on the 1x1 route")

    monkeypatch.setattr(DecayTable, "rho_upto", refuse)
    got = jarnik_constant(scalar(Fraction(2, 7)), [Fraction(1, 3)], table, 40)
    assert got.to_jsonable() == expected.to_jsonable()


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
