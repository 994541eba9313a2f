"""Approximation records, lacunary thinning, decay-profile verification."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from badapprox import resonance
from badapprox.resonance import (
    GOLDEN_CONVERGENT,
    EmptySequence,
    ResonanceEntry,
    ResonanceSequence,
    ThetaMatrix,
    best_approximations,
    best_approximations_cf,
    convergents,
    golden_theta,
    lacunary_normalize,
    psi_steps,
    psi_theta,
    verify_decay_bound,
)
from conftest import make_records, make_sequence
import oracles

FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]


# -- theta matrices ----------------------------------------------------------


def test_theta_validation():
    with pytest.raises(ValueError):
        ThetaMatrix(((),))
    with pytest.raises(ValueError):
        ThetaMatrix(((Fraction(1, 2),), (Fraction(1, 3), Fraction(1, 5))))


def test_theta_json_round_trip():
    th = ThetaMatrix(((Fraction(1, 3), Fraction(1, 5)),))
    assert ThetaMatrix.from_jsonable(th.to_jsonable()) == th
    g = golden_theta()
    assert ThetaMatrix.from_jsonable(g.to_jsonable()) == g
    # a "cf" key, right or wrong, is ignored like any other key the loader
    # does not read: the expansion is computed from the entry
    for cf in ([0, 3, 2], [0, 2], 3):
        th = ThetaMatrix.from_jsonable({"m": 1, "n": 1, "entries": [["2/7"]], "cf": cf})
        assert th == ThetaMatrix.scalar(Fraction(2, 7))
        assert ThetaMatrix.from_jsonable(th.to_jsonable()) == th


def test_golden_theta_value():
    g = golden_theta()
    assert g.rows[0][0] == GOLDEN_CONVERGENT == Fraction(832040, 1346269)
    # Euclid reads off F_30/F_31 = [0; 1, ..., 1, 2] (28 ones): the
    # convergents are the Fibonacci ratios F_(k-1)/F_k, except that the last
    # term 2 steps from F_28/F_29 straight to the value itself
    fib = [0, 1]
    while len(fib) < 32:
        fib.append(fib[-1] + fib[-2])
    assert list(convergents(g.rows[0][0])) == (
        [(0, 1)] + list(zip(fib[1:29], fib[2:30])) + [(832040, 1346269)]
    )


def test_convergents_of_pinned_rationals():
    assert list(convergents(Fraction(2, 7))) == [(0, 1), (1, 3), (2, 7)]  # [0; 3, 2]
    assert list(convergents(Fraction(-2, 7))) == [(-1, 1), (0, 1), (-1, 3), (-2, 7)]  # [-1; 1, 2, 2]
    assert list(convergents(Fraction(5))) == [(5, 1)]
    assert list(convergents(Fraction(1, 2))) == [(0, 1), (1, 2)]


def test_dual_quality_scalar():
    th = ThetaMatrix.scalar(Fraction(2, 7))
    assert th.dual_quality((1,)) == Fraction(2, 7)
    assert th.dual_quality((3,)) == Fraction(1, 7)  # ||6/7||
    assert th.dual_quality((7,)) == 0


# -- psi ---------------------------------------------------------------------


def test_psi_pinned_values():
    th = ThetaMatrix.scalar(Fraction(2, 7))
    assert psi_theta(th, 1) == Fraction(2, 7)
    assert psi_theta(th, 2) == Fraction(2, 7)
    assert psi_theta(th, 3) == Fraction(1, 7)
    assert psi_theta(th, 7) == 0
    g = golden_theta()
    assert psi_theta(g, 1) == Fraction(514229, 1346269)


def test_psi_requires_positive_t():
    with pytest.raises(ValueError):
        psi_theta(golden_theta(), 0)


@pytest.mark.parametrize(
    "rows",
    [
        ((Fraction(3, 11),),),
        ((Fraction(1, 3), Fraction(1, 5)),),  # m=1, n=2
        ((Fraction(2, 7),), (Fraction(1, 4),)),  # m=2, n=1
    ],
)
def test_psi_matches_direct_enumeration(rows):
    th = ThetaMatrix(rows)
    n = th.n
    for t in (1, 2, 4):
        brute = min(
            th.dual_quality(y)
            for y in itertools.product(range(-t, t + 1), repeat=n)
            if any(c != 0 for c in y)
        )
        assert psi_theta(th, t) == brute


def test_psi_nonincreasing_in_t():
    th = ThetaMatrix(((Fraction(5, 17), Fraction(3, 13)),))
    vals = [psi_theta(th, t) for t in range(1, 8)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# -- approximation records ---------------------------------------------------


def test_golden_records_are_fibonacci(golden_records):
    sizes = [r.vector[0] for r in golden_records]
    assert sizes == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987]
    # qualities run down the Fibonacci ladder over the common denominator:
    # size F_k has quality F_(31-k) / F_31
    assert golden_records[0].quality == Fraction(514229, 1346269)
    assert golden_records[-1].quality == Fraction(610, 1346269)
    qs = [r.quality for r in golden_records]
    assert all(a > b for a, b in zip(qs, qs[1:]))


def test_records_strictly_improve_and_stop_at_zero():
    th = ThetaMatrix.scalar(Fraction(1, 2))
    recs = best_approximations(th, 10)
    assert [(r.vector, r.quality) for r in recs] == [
        ((1,), Fraction(1, 2)),
        ((2,), Fraction(0)),
    ]


def test_records_two_dim_pinned():
    th = ThetaMatrix(((Fraction(1, 3), Fraction(1, 5)),))
    recs = best_approximations(th, 5)
    assert [(r.vector, r.norm_sq, r.quality) for r in recs] == [
        ((0, 1), 1, Fraction(1, 5)),
        ((1, -1), 2, Fraction(2, 15)),
        ((1, -2), 5, Fraction(1, 15)),
        ((3, 0), 9, Fraction(0)),
    ]


def test_records_canonical_sign():
    th = ThetaMatrix(((Fraction(4, 7), Fraction(2, 9)),))
    for r in best_approximations(th, 4):
        first_nonzero = next(c for c in r.vector if c != 0)
        assert first_nonzero > 0


def test_cf_route_matches_enumeration():
    g = golden_theta()
    assert best_approximations_cf(g, 1000) == oracles.best_approximations(g, 1000)
    th = ThetaMatrix.scalar(Fraction(2, 7))
    assert best_approximations_cf(th, 50) == oracles.best_approximations(th, 50)


def test_cf_route_matches_enumeration_on_random_rationals():
    # negatives, integers and 1/2 included; t_max just below, at and past
    # the denominator, where the last convergent (quality 0) enters
    rng = random.Random(10)
    values = [Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(3), Fraction(-4)]
    while len(values) < 1000:
        q = rng.randint(1, 300)
        values.append(Fraction(rng.randint(-3 * q, 3 * q), q))
    for x in values:
        th = ThetaMatrix.scalar(x)
        q = x.denominator
        for t_max in {max(1, q - 1), q, q + 3}:
            records = oracles.walk_records_and_steps(th, t_max)[0]
            assert best_approximations_cf(th, t_max) == records, (x, t_max)


def test_cf_route_matches_fraction_oracle_on_long_denominators():
    # thetas over denominators up to 1500 bits, integer thetas, and t_max at
    # convergent denominators q exactly, at q - 1 and past the last
    rng = random.Random(41)
    values = [Fraction(3), Fraction(-2), Fraction(0), golden_theta().rows[0][0]]
    for _ in range(12):
        den = (1 << rng.randrange(1501)) * (2 * rng.randrange(400) + 1)
        values.append(Fraction(rng.randrange(-3 * den, 3 * den), den))
    for x in values:
        th = ThetaMatrix.scalar(x)
        qs = [q for _, q in convergents(x)]
        picked = [qs[0], qs[-1], *rng.sample(qs, min(3, len(qs)))]
        for t_max in sorted({1, *picked, *(q - 1 for q in picked if q > 1), qs[-1] + 5}):
            got = best_approximations_cf(th, t_max)
            assert got == oracles.best_approximations_cf(th, t_max), (x, t_max)
            assert all(type(r.quality) is Fraction for r in got)
    assert best_approximations_cf(ThetaMatrix.scalar(Fraction(3)), 7) == [ResonanceEntry((1,), 1, Fraction(0))]
    assert best_approximations_cf(golden_theta(), 233)[-1].vector == (233,)  # q == t_max enters
    assert best_approximations_cf(golden_theta(), 232)[-1].vector == (144,)


def test_cf_route_golden_records_up_to_ten_million():
    recs = best_approximations_cf(golden_theta(), 10**7)
    fib = [1, 2]
    while len(fib) < 28:
        fib.append(fib[-1] + fib[-2])
    assert [r.vector[0] for r in recs] == fib + [1346269]  # F_2 .. F_29, F_31
    assert recs[-1].quality == 0
    assert recs[:15] == best_approximations_cf(golden_theta(), 1000)


def test_cf_route_requires_a_1x1_theta():
    with pytest.raises(ValueError, match="1x1"):
        best_approximations_cf(ThetaMatrix(((Fraction(2, 7), Fraction(1, 3)),)), 10)
    with pytest.raises(ValueError, match="1x1"):
        best_approximations_cf(ThetaMatrix(((Fraction(2, 7),), (Fraction(1, 3),))), 10)
    with pytest.raises(ValueError, match="t_max"):
        best_approximations_cf(golden_theta(), 0)


# -- psi steps ---------------------------------------------------------------


def test_psi_steps_are_the_drops_of_psi_on_random_1x2_thetas():
    # every step (t, v) has v == psi_theta(t) < psi_theta(t - 1), and psi is
    # constant between steps
    rng = random.Random(40)
    den = 2**31 - 1
    for _ in range(40):
        theta = ThetaMatrix(((Fraction(rng.randrange(den), den), Fraction(rng.randrange(den), den)),))
        t_max = 12
        steps = psi_steps(theta, t_max)
        psi = [None] + [psi_theta(theta, t) for t in range(1, t_max + 1)]
        assert [t for t, _ in steps] == [
            t for t in range(1, t_max + 1) if t == 1 or psi[t] < psi[t - 1]
        ]
        assert all(v == psi[t] for t, v in steps)


def test_psi_steps_pinned_1x2():
    # the 1x2 theta of the psi-table reproduction: the steps are t = 1, 4, 5,
    # not the Euclidean record sizes 1, 1, 4, 5
    den = 2**31 - 1
    theta = ThetaMatrix(((Fraction(1234567891, den), Fraction(987654321, den)),))
    assert [t for t, _ in psi_steps(theta, 30)] == [1, 4, 5]
    assert [max(map(abs, r.vector)) for r in best_approximations(theta, 30)
            if r.quality > 0][:4] == [1, 1, 4, 5]
    with pytest.raises(ValueError):
        psi_steps(theta, 0)


def test_records_and_psi_steps_match_the_box_walk():
    # each shape's route (the CF route for 1x1, the records' scan for any
    # other n = 1, one sup-norm scan for n >= 2) gives the records and steps
    # of one walk of the box
    rng = random.Random(41)
    shapes = [(1, 1), (1, 2), (2, 1), (3, 1), (1, 3), (2, 2)]
    for trial in range(48):
        m, n = shapes[trial % len(shapes)]
        den = rng.choice([7, 30, 97, 2**31 - 1])
        theta = ThetaMatrix(tuple(
            tuple(Fraction(rng.randrange(den), den) for _ in range(n)) for _ in range(m)
        ))
        t_max = rng.randint(1, 12 if n < 3 else 5)
        assert (best_approximations(theta, t_max), psi_steps(theta, t_max)) == \
            oracles.walk_records_and_steps(theta, t_max)
    for theta in (ThetaMatrix(((Fraction(1, 3), Fraction(1, 5)),)), golden_theta(),
                  ThetaMatrix(((Fraction(1, 3),), (Fraction(1, 5),)))):
        for walk in (best_approximations, psi_steps):
            with pytest.raises(ValueError, match="t_max"):
                walk(theta, 0)


def test_each_shape_takes_one_route(monkeypatch):
    # a 1x1 theta never enumerates: its records are its convergents and its
    # steps are its records, at any size, an exact resonance included
    def refuse(*args):
        raise AssertionError("a 1x1 theta enumerated a lattice")

    fib = [0, 1]
    while len(fib) < 102:
        fib.append(fib[-1] + fib[-2])
    monkeypatch.setattr(resonance, "box_points", refuse)
    for theta, t in ((golden_theta(), 1000), (ThetaMatrix.scalar(Fraction(2, 7)), 50),
                     (ThetaMatrix.scalar(Fraction(fib[100], fib[101])), 10**15)):
        records = best_approximations(theta, t)
        assert records == oracles.best_approximations_cf(theta, t)
        assert psi_steps(theta, t) == [(r.vector[0], r.quality) for r in records]
    assert records[-1].vector == (fib[73],)
    assert best_approximations(ThetaMatrix.scalar(Fraction(2, 7)), 50)[-1].quality == 0
    monkeypatch.undo()

    # an m x 1 theta's steps are its records: one Euclidean scan, no sup-norm one
    scans = []
    shell_records = resonance._shell_records

    def counted(theta, t, euclidean):
        scans.append(euclidean)
        return shell_records(theta, t, euclidean)

    monkeypatch.setattr(resonance, "_shell_records", counted)
    den = 2**31 - 1
    for theta in (ThetaMatrix(((Fraction(1234567891, den),), (Fraction(987654321, den),))),
                  ThetaMatrix(((Fraction(1234567891, den),), (Fraction(987654321, den),),
                               (Fraction(31415926, den),)))):
        for t in (1, 10, 100, 10**4):
            scans.clear()
            steps = psi_steps(theta, t)
            assert scans == [True]
            assert steps == [(r.vector[0], r.quality) for r in best_approximations(theta, t)]
            assert steps == oracles.walk_records_and_steps(theta, t)[1]


# -- lacunary thinning -------------------------------------------------------


def test_thinning_golden(golden_records, golden_seq):
    assert [e.norm_sq for e in golden_seq.entries] == [
        1,
        9,
        169,
        3025,
        54289,
        974169,
    ]
    assert [e.vector[0] for e in golden_seq.entries] == [1, 3, 13, 55, 233, 987]
    # all kept entries are genuine records, no padding needed here
    assert all(e.quality is not None for e in golden_seq.entries)


def test_thinning_pads_wide_gap():
    # sizes 1 then 100 with M=3: thinning must interpose 3, 9, 27
    recs = make_records([((1,), "1/3"), ((100,), "1/7")])
    seq = lacunary_normalize(recs, 3)
    assert [e.vector[0] for e in seq.entries] == [1, 3, 9, 27, 100]
    assert [e.quality is None for e in seq.entries] == [
        False,
        True,
        True,
        True,
        False,
    ]


def test_thinning_drops_close_sizes():
    recs = make_records([((4,), "1/3"), ((5,), "1/4"), ((13,), "1/9")])
    seq = lacunary_normalize(recs, 3)
    # 5/4 < 3: dropped; 13/4 in [3, 9]: kept
    assert [e.vector[0] for e in seq.entries] == [4, 13]


def test_thinning_skips_exact_resonances():
    recs = make_records([((1,), "1/3"), ((3,), 0), ((4,), "1/9")])
    seq = lacunary_normalize(recs, 3)
    assert [e.vector[0] for e in seq.entries] == [1, 4]
    with pytest.raises(EmptySequence):
        lacunary_normalize(make_records([((2,), 0)]), 3)


def test_thinning_requires_lacunarity_above_one():
    with pytest.raises(ValueError):
        lacunary_normalize(make_records([((1,), "1/3")]), 1)


@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=10**6), min_size=1, max_size=12
    ).map(lambda xs: sorted(set(xs))),
    m=st.integers(min_value=2, max_value=5),
)
def test_thinning_output_always_lacunary(sizes, m):
    recs = make_records(
        [((s,), Fraction(1, 2 * i + 3)) for i, s in enumerate(sizes)]
    )
    seq = lacunary_normalize(recs, m)  # constructor re-checks the invariant
    out_sizes = [e.vector[0] for e in seq.entries]
    # kept entries are a subsequence of the input sizes, in order
    kept = [e.vector[0] for e in seq.entries if e.quality is not None]
    it = iter(sizes)
    assert all(k in it for k in kept)
    assert out_sizes == sorted(out_sizes)
    assert kept[0] == sizes[0]


@pytest.mark.parametrize("m", [2, 3, Fraction(3, 2), Fraction(7, 3)])
def test_thinning_matches_fraction_oracle(m):
    # drops, keeps at ratios exactly M and M^2, and padding, against the
    # Fraction ratio tests and the Fraction padding target
    rng = random.Random(43)
    m = Fraction(m)
    for _ in range(60):
        sizes, t = [], 1
        for _ in range(rng.randint(1, 14)):
            t = rng.choice([t + 1, math.ceil(t * m), math.ceil(t * m * m), t * rng.randint(1, 400)])
            sizes.append(t)
        if m.denominator == 1:  # ratios exactly M and M^2
            sizes += [sizes[-1] * m.numerator, sizes[-1] * m.numerator ** 3]
        recs = make_records([((s,), Fraction(1, 2 * i + 3)) for i, s in enumerate(sizes)])
        assert lacunary_normalize(recs, m) == oracles.lacunary_normalize(recs, m)


# -- the sequence container --------------------------------------------------


def test_sequence_invariant_enforced():
    with pytest.raises(ValueError):
        make_sequence([(1,), (2,)])  # ratio 2 < M=3
    with pytest.raises(ValueError):
        make_sequence([(1,), (10,)])  # ratio 10 > M^2=9
    with pytest.raises(ValueError):
        # stored norm must match the vector
        ResonanceSequence(
            (ResonanceEntry((2,), 5, None),), Fraction(3)
        )
    with pytest.raises(EmptySequence):
        ResonanceSequence((), Fraction(3))


@pytest.mark.parametrize("m, sizes", [
    (Fraction(3), [(1,), (3,), (27,)]),  # ratio^2 exactly M^2 = 9, then exactly M^4 = 81
    (Fraction(3, 2), [(4,), (6,), (12,)]),  # exactly M^2 = 9/4, then 4
    (Fraction(3, 2), [(4,), (9,)]),  # exactly M^4 = 81/16
    (Fraction(3, 2), [(4,), (5, 3, 1)]),  # 35/16 < M^2
    (Fraction(3, 2), [(4,), (9, 1)]),  # 41/8 > M^4
    (Fraction(3), [(1,), (2, 2)]),  # 8 < M^2
    (Fraction(3), [(1,), (3,), (27, 1)]),  # 730/9 > M^4
    (Fraction(3), [(9,), (1,)]),  # shrinking
])
def test_sequence_ratio_bounds_match_fraction_oracle(m, sizes):
    vectors = [v + (0,) * (3 - len(v)) for v in sizes]
    entries = tuple(ResonanceEntry(v, sum(c * c for c in v), None) for v in vectors)
    error = oracles.ratio_error(entries, m)
    if error is None:
        assert len(ResonanceSequence(entries, m)) == len(entries)
    else:
        with pytest.raises(ValueError) as e:
            ResonanceSequence(entries, m)
        assert str(e.value) == error


def test_sequence_one_based_access(golden_seq):
    assert golden_seq.vector(1) == (1,)
    assert golden_seq.vector(3) == (13,)
    assert golden_seq.norm_sq_of(6) == 974169
    assert len(golden_seq) == 6
    assert golden_seq.dimension == 1


def test_sequence_json_round_trip(golden_seq):
    blob = json.loads(json.dumps(golden_seq.to_jsonable()))
    again = ResonanceSequence.from_jsonable(blob)
    assert again == golden_seq
    assert again.to_jsonable() == blob


def test_sequence_mixed_dimensions_rejected():
    e1 = ResonanceEntry((1,), 1, None)
    e2 = ResonanceEntry((3, 0), 9, None)
    with pytest.raises(ValueError):
        ResonanceSequence((e1, e2), Fraction(3))


# -- decay-profile verification ----------------------------------------------


def test_golden_satisfies_reciprocal_decay(golden):
    report = verify_decay_bound(golden, lambda t: Fraction(1, t), 100)
    assert report["ok"]
    assert report["failures"] == []
    # steps are exactly the Fibonacci record sizes within range
    assert [t for t, _ in report["steps"]] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]


def test_decay_bound_failure_reported(golden):
    report = verify_decay_bound(golden, lambda t: Fraction(1, 10 * t), 30)
    assert not report["ok"]
    assert report["failures"]
    worst = report["failures"][0]
    assert set(worst) == {"t", "psi", "bound"}


def test_decay_bound_two_dim():
    th = ThetaMatrix(((Fraction(1, 3), Fraction(1, 5)),))
    report = verify_decay_bound(th, lambda t: Fraction(1, 2), 4)
    assert report["ok"]
    # sup-norm shells: t=1 already contains (1,-1) with quality 2/15, then
    # (1,-2) at t=2 and the exact resonance (3,0) at t=3
    assert report["steps"] == [(1, "2/15"), (2, "1/15"), (3, "0/1")]
