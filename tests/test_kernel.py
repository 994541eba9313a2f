"""The integer lattice kernels, and every scan built on them, against the
oracles in oracles.py: the Fraction loops and the integer box walk."""
import itertools
import math
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
    box_points,
    int_dist,
    iroot,
    lattice_box,
    lll_reduce,
    over_common_denominator,
)
from badapprox.geometry import nearest_int_dist
from badapprox.resonance import (
    ThetaMatrix,
    best_approximations,
    best_approximations_cf,
    convergents,
    psi_steps,
    psi_theta,
    verify_decay_bound,
)
from conftest import make_sequence
from oracles import box_distances, box_walk, sup_norms

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
        (-2500, oracles.CHUNK), (-2500 + oracles.CHUNK, 5001 - oracles.CHUNK)
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
    assert oracles.rho_upto(table, 40) == [oracles.decay_rho(table, s) for s in range(5, 41)]
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
    # theta = 2/7, eta = 3/7: the hits x = 5 mod 7 fill the line; at N = 10^12
    # the smallest signed one is -10^12 + 6
    theta, eta = scalar(Fraction(2, 7)), [Fraction(3, 7)]
    assert certify._scan_min(theta, eta, 10**12, 1, 1) == (0, 7, (-999999999994,))
    # theta = 0, eta = 0: every x is a hit, and the lex tie goes to x = -N
    theta, eta = scalar(0), [Fraction(0)]
    for limit in (1, 5, 10**12):
        assert certify._scan_min(theta, eta, limit, 1, 1) == (0, 1, (-limit,))
    assert certify._scan_min(theta, eta, 5, 1, 1) == box_walk(theta, eta, 5, 1, 1)


@pytest.fixture
def listed(monkeypatch):
    """Every lattice point that certify's scans list, in order."""
    points = []

    def counted(*args):
        basis, found = exact.box_points(*args)
        points.extend(found)
        return basis, found

    monkeypatch.setattr(certify, "box_points", counted)
    return points


def test_1x1_exact_hit_lists_no_lattice_point(listed):
    # the hit is found from its residue class, before any band is listed
    for theta, eta, limit in ((Fraction(1, 97), Fraction(50, 97), 200),
                              (Fraction(2, 7), Fraction(3, 7), 1000), (0, 0, 40)):
        assert certify._scan_min(scalar(theta), [Fraction(eta)], limit, 1, 1)[0] == 0
    assert listed == []
    # a scan with no hit in range does list points
    certify._scan_min(scalar(Fraction(1, 97)), [Fraction(50, 97)], 46, 1, 1)
    assert listed


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
    # a window of 10^6 sizes: the scan reads rho at a few sizes per band,
    # never size by size over the window
    table = DecayTable(sizes=(1, 4), values=(Fraction(1, 5), Fraction(1, 10**6)))
    theta, eta = scalar(Fraction(832040, 1346269)), [Fraction(1, 3)]
    table_rho, reads = certify._table_rho, []

    def counted(table):
        rho = table_rho(table)
        return lambda s: reads.append(s) or rho(s)

    monkeypatch.setattr(certify, "_table_rho", counted)
    rep = jarnik_constant(theta, eta, table, 10**6)
    (x,) = rep.argmin
    r = nearest_int_dist(theta.rows[0][0] * x - eta[0])
    assert rep.value == r * oracles.decay_rho(table, abs(x))
    assert 0 < len(reads) < 200


# -- the k-dimensional kernel ------------------------------------------------------


def coordinates(rows, point):
    """The Fraction coefficients c with sum_i c_i rows[i] = point, by
    Gauss-Jordan elimination on the transposed system."""
    k = len(rows)
    m = [[Fraction(rows[i][j]) for i in range(k)] + [Fraction(point[j])] for j in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(k):
            if r != col and m[r][col]:
                m[r] = [a - m[r][col] * b for a, b in zip(m[r], m[col])]
    return [m[j][k] for j in range(k)]


def determinant(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv], det = m[piv], m[col], -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def same_lattice(rows, other):
    """Each row of other is an integer combination of rows, and the
    determinants agree up to sign: a unimodular change of basis."""
    return (abs(determinant(rows)) == abs(determinant(other))
            and all(c.denominator == 1 for row in other for c in coordinates(rows, row)))


def random_basis(rng, k, size):
    while True:
        rows = [[rng.randrange(-size, size + 1) for _ in range(k)] for _ in range(k)]
        if determinant(rows):
            return rows


def scan_basis(rng, m, n, den):
    """The scan lattice {(x, u) : u = A x mod den}: rows (e_i, A_i), (0, den e_j)."""
    rows = [[int(i == h) for h in range(m)] + [rng.randrange(den) for _ in range(n)]
            for i in range(m)]
    return rows + [[0] * m + [den * (j == h) for h in range(n)] for j in range(n)]


@pytest.mark.parametrize("seed", range(6))
def test_lll_reduce_is_a_reduced_basis_of_the_same_lattice(seed):
    rng = random.Random(seed)
    for _ in range(25):
        k = rng.randrange(1, 6)
        if k > 1 and rng.randrange(2):
            rows = scan_basis(rng, k - 1, 1, 2**31 - 1)
        else:
            rows = random_basis(rng, k, 10 ** rng.randrange(1, 12))
        basis, d, lam = lll_reduce(rows)
        assert same_lattice(rows, basis) and same_lattice(basis, rows)
        # d and lam are the Gram-Schmidt data of the output, in integers
        stars, norms = [], []
        for row in basis:
            mus = [sum(map(Fraction.__mul__, map(Fraction, row), s)) / n
                   for s, n in zip(stars, norms)]
            star = [Fraction(v) - sum(mu * s[j] for mu, s in zip(mus, stars))
                    for j, v in enumerate(row)]
            i = len(stars)
            assert lam[i][:i] == [mu * d[j + 1] for j, mu in enumerate(mus)]
            stars.append(star)
            norms.append(sum(v * v for v in star))
            assert d[i + 1] == d[i] * norms[-1]
        for i in range(1, k):
            assert all(2 * abs(lam[i][j]) <= d[j + 1] for j in range(i))  # size-reduced
            assert 4 * d[i + 1] * d[i - 1] >= 3 * d[i] ** 2 - 4 * lam[i][i - 1] ** 2  # Lovasz


def test_lll_reduce_refuses_dependent_rows():
    with pytest.raises(ValueError, match="independent"):
        lll_reduce([[1, 2, 3], [2, 4, 6], [0, 0, 1]])


def box_brute_force(rows, center, half):
    """The points of the box whose coordinates in rows are integers, read
    off an integer multiple L * rows^-1 of the inverse."""
    k = len(rows)
    inverse = [coordinates(rows, [int(i == j) for i in range(k)]) for j in range(k)]
    scale = math.lcm(*(c.denominator for row in inverse for c in row))
    adj = [[int(c * scale) for c in row] for row in inverse]
    box = itertools.product(*(range(c - h, c + h + 1) for c, h in zip(center, half)))
    return [p for p in box
            if all(sum(map(int.__mul__, p, col)) % scale == 0 for col in zip(*adj))]


@pytest.mark.parametrize("seed", range(6))
def test_box_points_lists_every_point_of_a_box_once(seed):
    rng = random.Random(10 + seed)
    for _ in range(30):
        k = rng.randrange(1, 5)
        rows = random_basis(rng, k, 6)
        center = [rng.randrange(-8, 9) for _ in range(k)]
        half = [rng.choice([0, 1, 2, 3, 6]) for _ in range(k)]
        basis, points = box_points(rows, center, half)
        assert same_lattice(rows, basis)
        assert len(set(points)) == len(points)
        assert sorted(points) == box_brute_force(rows, center, half)


def test_box_points_on_flat_and_empty_boxes():
    rng = random.Random(3)
    for m, n, den in ((2, 1, 7), (1, 2, 12), (2, 2, 5), (3, 1, 11)):
        rows = scan_basis(rng, m, n, den)
        for _ in range(10):
            e = [rng.randrange(den) for _ in range(n)]
            # V = 0: only the exact hits u = e of the x box are listed
            center, half = [0] * m + e, [rng.randrange(1, 5)] * m + [0] * n
            assert sorted(box_points(rows, center, half)[1]) == box_brute_force(rows, center, half)
    # u = 3x mod 7 with x = 0 leaves only u = 0 mod 7: the point (0, 1) is no lattice point
    assert box_points([[1, 3], [0, 7]], [0, 1], [0, 0])[1] == []
    assert box_points([[1, 3], [0, 7]], [0, 3], [0, 2])[1] == []
    assert box_points([[1, 3], [0, 7]], [1, 3], [0, 0])[1] == [(1, 3)]


# -- every other shape against the box walk ------------------------------------------

AGREEMENT_SHAPES = [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]
#: box sizes the walk covers quickly, by the dimension it walks
WALK_LIMIT = {1: 60, 2: 12, 3: 4, 4: 2}


def agreement_instance(rng, m, n, den, trial):
    theta, eta = random_instance(rng, m, n, den)
    if trial % 3 == 0:  # an exact hit at x0, inside or outside the box
        x0 = [rng.randint(-2 * WALK_LIMIT[m], 2 * WALK_LIMIT[m]) for _ in range(m)]
        eta = [sum(theta.rows[i][j] * x0[i] for i in range(m)) % 1 for j in range(n)]
    return theta, eta


@pytest.mark.parametrize("den", [2**31 - 1, 12])
@pytest.mark.parametrize("shape", AGREEMENT_SHAPES, ids=lambda s: "%dx%d" % s)
def test_lattice_scans_match_the_box_walk(shape, den):
    m, n = shape
    rng = random.Random(f"scan {m}x{n} {den}")
    limit = WALK_LIMIT[m]
    table = DecayTable(sizes=(1, 2, 4), values=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 9)))
    for trial in range(6):
        theta, eta = agreement_instance(rng, m, n, den, trial)
        rep = theorem1_constant(theta, eta, limit)
        key, d, argmin = box_walk(theta, eta, limit, n, m)
        assert (rep.value, rep.argmin) == (Fraction(key, d**n), argmin)
        psi = PowerLaw(Fraction(3, 2), *rng.choice(POWERS))
        rep = jarnik_constant(theta, eta, psi, limit)
        key, d, argmin = box_walk(theta, eta, limit, psi.sigma_num, psi.sigma_den)
        assert (rep.value, rep.argmin) == (
            Fraction(key * 3**psi.sigma_den, d**psi.sigma_num * 2**psi.sigma_den), argmin)
        window = min(limit, table.s_max)
        rep = jarnik_constant(theta, eta, table, window)
        key, d, argmin = box_walk(theta, eta, window, 1, table)
        assert (rep.value, rep.argmin) == (Fraction(key, d), argmin)
        for p, q in POWERS:
            assert certify._scan_min(theta, eta, limit, p, q) == box_walk(theta, eta, limit, p, q)


@pytest.mark.parametrize("den", [2**31 - 1, 12])
@pytest.mark.parametrize("shape", AGREEMENT_SHAPES + [(1, 4)], ids=lambda s: "%dx%d" % s)
def test_lattice_records_match_the_box_walk(shape, den):
    m, n = shape
    rng = random.Random(f"records {m}x{n} {den}")
    for trial in range(6):
        theta, _ = random_instance(rng, m, n, den)
        t = WALK_LIMIT[n] if trial < 2 else rng.randint(1, WALK_LIMIT[n])
        records, steps = oracles.walk_records_and_steps(theta, t)
        assert best_approximations(theta, t) == records
        assert psi_steps(theta, t) == steps
        assert psi_theta(theta, t) == steps[-1][1]


@pytest.mark.parametrize("n", [1, 2])
def test_lattice_scan_of_a_late_table_window_lists_few_points(n, listed):
    # the window [40, 60] starts the first band at 40: its V comes from the
    # first point found, not from an arbitrary one, so the three scans list
    # under 2% of the 121^2 points of each box
    m = 2
    rng = random.Random(f"window {m}x{n}")
    table = DecayTable(sizes=(1, 2), values=(Fraction(1, 40), Fraction(1, 60)))
    for _ in range(3):
        theta, eta = random_instance(rng, m, n, 2**31 - 1)
        rep = jarnik_constant(theta, eta, table, 60)
        key, d, argmin = box_walk(theta, eta, 60, 1, table)
        assert (rep.value, rep.argmin) == (Fraction(key, d), argmin)
    assert len(listed) < 3 * 121**m // 50


def test_lattice_records_stop_at_an_exact_resonance():
    # y = (3, 0) and y = (0, 5) are exact: the first of them ends the records
    theta = ThetaMatrix(((Fraction(1, 3), Fraction(1, 5)),))
    for t in (3, 5, 40):
        assert best_approximations(theta, t) == oracles.best_approximations(theta, t)
        assert best_approximations(theta, t)[-1].quality == 0
    assert psi_steps(theta, 40)[-1] == (3, 0)


def test_lattice_records_keep_a_shell_whole_across_a_band_edge():
    # in n = 4, the shell |y|^2 = 4 holds y = (1, 1, 1, 1) and its sign
    # changes, inside the first band's box max|y_j| <= 1, and the exact
    # resonance y = (0, 0, 2, 0) outside it: the shell belongs to the second
    # band alone
    theta = ThetaMatrix(((Fraction(7, 30), Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)),))
    for t in (1, 2, 3):
        assert best_approximations(theta, t) == oracles.walk_records_and_steps(theta, t)[0]


def test_lattice_scan_far_past_the_box_walk():
    # a 2x1 theta at N = 10^6 (4 * 10^12 box points): the value at the
    # argmin, from the definition, is the minimum, and it is at most the
    # minimum at N = 100
    den = 2**31 - 1
    theta = ThetaMatrix(((Fraction(1234567891, den),), (Fraction(987654321, den),)))
    eta = [Fraction(1, 3)]
    near, far = theorem1_constant(theta, eta, 100), theorem1_constant(theta, eta, 10**6)
    key, d, argmin = box_walk(theta, eta, 100, 1, 2)
    assert (near.value, near.argmin) == (Fraction(key, d), argmin)
    x = far.argmin
    r = nearest_int_dist(theta.rows[0][0] * x[0] + theta.rows[1][0] * x[1] - eta[0])
    assert far.value == r * max(map(abs, x)) ** 2
    assert 0 < far.value <= near.value


def test_psi_theta_reads_the_continued_fraction_steps_of_a_1x1_theta():
    fib = [0, 1]
    while len(fib) < 102:
        fib.append(fib[-1] + fib[-2])
    theta = ThetaMatrix.scalar(Fraction(fib[100], fib[101]))
    t = 10**15
    q = max(q for _, q in convergents(theta.rows[0][0]) if q <= t)
    assert q == fib[73]
    assert psi_theta(theta, t) == nearest_int_dist(theta.rows[0][0] * q)
    assert psi_theta(theta, t) == best_approximations_cf(theta, t)[-1].quality


# -- resonance against the oracle ----------------------------------------------

THETAS = {
    "1x2": ThetaMatrix(((Fraction(5, 17), Fraction(3, 13)),)),
    "1x2-ties": ThetaMatrix(((Fraction(1, 6), Fraction(1, 4)),)),
    "2x2": ThetaMatrix(((Fraction(2, 11), Fraction(7, 19)), (Fraction(1, 23), Fraction(5, 9)))),
    "2x2-prime": ThetaMatrix((
        (Fraction(1234567, 2**31 - 1), Fraction(99991, 2**31 - 1)),
        (Fraction(7654321, 2**31 - 1), Fraction(31, 2**31 - 1)),
    )),
    "1x1": ThetaMatrix(((Fraction(2, 7),),)),
    "3x1": ThetaMatrix(((Fraction(1, 6),), (Fraction(3, 10),), (Fraction(4, 15),))),
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
