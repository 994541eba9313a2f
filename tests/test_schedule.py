"""Derived strategy constants and the certified block schedule."""

from fractions import Fraction

import pytest

from badapprox import schedule
from badapprox.exact import InvariantError
from badapprox.geometry import Ball
from badapprox.resonance import golden_theta, best_approximations, lacunary_normalize
from badapprox.schedule import (
    ScheduleInfeasible,
    _cap_measure_lower_bound,
    block_schedule,
    dangerous_hyperplanes,
    derive_params,
)
from conftest import long_rational, make_sequence

import math
from random import Random

import oracles
from oracles import cap_fraction_angular


# -- derive_params: golden pins ----------------------------------------------


def test_golden_derivation_pinned(golden_params):
    p = golden_params
    assert p.gamma == Fraction(5, 8)
    assert p.escape_rounds == 1
    assert p.cap_measure_lb == Fraction(1, 2)  # exact in dimension 1
    assert p.plane_budget == 8
    assert p.avoidance_rounds == 3
    assert p.margin == Fraction(5, 1889568)  # gamma / (4 * 3^10)
    assert p.shrink == Fraction(1, 8)


def test_symmetric_third_derivation_pinned():
    p = derive_params(Fraction(1, 3), Fraction(1, 3), 3, 1)
    assert p.gamma == Fraction(4, 9)
    assert p.escape_rounds == 1  # 1/9 < 2/9
    assert p.plane_budget == 11
    assert p.avoidance_rounds == 4
    assert p.margin == Fraction(1, 14348907)  # (4/9)/4 / 3^13


def test_budget_scan_picks_first_feasible(golden_params):
    # the schedule inequality (1/p)^tau(k) < M^(k-2) at p=1/8, omega=1/2:
    # tau(k) = ceil(log2 k), so the left side jumps at powers of two and the
    # predicate is NOT monotone in k.  Verify the scan's choice k=8 is the
    # first true value.
    p = golden_params
    inv_p = 1 / p.shrink

    def tau(k):
        c = 0
        while k * (1 - p.cap_measure_lb) ** c > 1:
            c += 1
        return p.escape_rounds * c

    feasible = [k for k in range(1, 12) if inv_p ** tau(k) < Fraction(3) ** (k - 2)]
    assert feasible[0] == 8 == p.plane_budget
    assert 9 not in feasible  # tau jumps to 4 at k=9: 4096 >= 3^7 fails? no:
    # 8^4 = 4096 > 3^7 = 2187, so k=9 is infeasible although k=8 works


def test_derived_constants_satisfy_their_inequalities():
    for args in [
        (Fraction(1, 4), Fraction(1, 2), 3, 2),
        (Fraction(1, 3), Fraction(2, 5), 4, 1),
        (Fraction(2, 5), Fraction(1, 2), 2, 2),
    ]:
        p = derive_params(*args)
        assert p.gamma == 1 + p.alpha * p.beta - 2 * p.alpha > 0
        # escape rounds: strict crossing, and minimal
        assert 2 * p.shrink**p.escape_rounds < p.gamma
        if p.escape_rounds > 1:
            assert 2 * p.shrink ** (p.escape_rounds - 1) >= p.gamma
        # schedule inequality
        assert (1 / p.shrink) ** p.avoidance_rounds < p.lacunarity ** (
            p.plane_budget - 2
        )
        assert p.margin == p.gamma / (4 * p.lacunarity ** (p.plane_budget + 2))


def test_cap_measure_lb_is_a_lower_bound_n2():
    p = derive_params(Fraction(1, 4), Fraction(1, 2), 3, 2)
    assert p.plane_budget == 116
    assert p.avoidance_rounds == 60
    reduced = math.asin(5 / 16) - math.asin((5 / 8) * (1 / 8))
    truth = cap_fraction_angular(reduced, 2)
    assert float(p.cap_measure_lb) <= truth
    assert truth - float(p.cap_measure_lb) < 1e-8
    assert p.cap_measure_lb == pytest.approx(0.0762731, abs=1e-6)


def test_derivation_dimension_three():
    p = derive_params(Fraction(1, 4), Fraction(1, 2), 3, 3)
    assert p.plane_budget == 898
    assert p.avoidance_rounds == 473
    assert float(p.cap_measure_lb) == pytest.approx(0.0142858, abs=1e-6)


@pytest.mark.parametrize(
    "alpha, beta, lacunarity, n",
    [
        # the golden constants in every dimension the strategy runs in
        ("1/4", "1/2", "3", 1),
        ("1/4", "1/2", "3", 2),
        ("1/4", "1/2", "3", 3),
        ("1/4", "1/2", "3", 4),
        # non-integer lacunarity: M2 > 1 on the integer side
        ("1/4", "1/2", "5/2", 2),
        ("1/4", "1/2", "7/3", 3),
        ("1/3", "1/3", "7/3", 1),
        # alpha*beta = 3/10 has numerator > 1, and needs escape_rounds = 2
        ("2/5", "3/4", "3", 1),
        ("2/5", "3/4", "5/2", 2),
        ("2/5", "3/4", "7/3", 3),
        ("1/3", "2/5", "4", 1),
    ],
)
def test_budget_scan_matches_fraction_oracle(alpha, beta, lacunarity, n):
    got = derive_params(Fraction(alpha), Fraction(beta), Fraction(lacunarity), n)
    want = oracles.derive_params(Fraction(alpha), Fraction(beta), Fraction(lacunarity), n)
    assert got.to_jsonable() == want.to_jsonable()


def _grid_fractions(dens, below):
    return sorted({Fraction(a, d) for d in dens for a in range(1, d) if Fraction(a, d) < below})


def _escape_inputs(alpha, beta):
    """(gamma, (alpha*beta)^t) as derive_params computes them."""
    gamma = 1 + alpha * beta - 2 * alpha
    pt = alpha * beta
    while not 2 * pt < gamma:
        pt *= alpha * beta
    return gamma, pt


def test_cap_measure_lb_equals_the_float_route_on_a_seeded_grid():
    # alpha < 1/2 with denominator 3..12, beta with denominator 2..10, n <= 6:
    # 3410 triples, of which a seeded 300 run here; the bracket decides every
    # 2^-40 floor exactly where the float route had a guard band
    alphas = _grid_fractions(range(3, 13), Fraction(1, 2))
    betas = _grid_fractions(range(2, 11), Fraction(1))
    grid = [(a, b, n) for a in alphas for b in betas for n in range(2, 7)]
    assert len(grid) == 3410
    for alpha, beta, n in Random(8).sample(grid, 300):
        gamma, pt = _escape_inputs(alpha, beta)
        want = oracles.cap_measure_lb_float(gamma, pt, n)
        assert _cap_measure_lower_bound(gamma, pt, n) == want, (alpha, beta, n)


def test_cap_measure_lb_refines_a_straddling_bracket(monkeypatch):
    # at 41 bits the bracket spans several units of 2^-41 and straddles a
    # 2^-40 step here, so the precision doubles until it decides; the
    # result does not move
    precisions = []
    bounds = schedule.cap_measure_bounds

    def spy(sin_a, sin_b, n, prec):
        precisions.append(prec)
        return bounds(sin_a, sin_b, n, prec)

    gamma, pt = _escape_inputs(Fraction(1, 4), Fraction(1, 2))
    want = _cap_measure_lower_bound(gamma, pt, 4)
    monkeypatch.setattr(schedule, "cap_measure_bounds", spy)
    monkeypatch.setattr(schedule, "_CAP_PREC", 41)
    assert _cap_measure_lower_bound(gamma, pt, 4) == want
    assert precisions[:2] == [41, 82]


def test_cap_measure_lb_precision_ceiling_is_an_invariant_error(monkeypatch):
    def straddles(sin_a, sin_b, n, prec):
        half = 1 << (prec - 41)  # half a step of 2^-40
        return (1 << prec) // 10 - half, (1 << prec) // 10 + half

    monkeypatch.setattr(schedule, "cap_measure_bounds", straddles)
    with pytest.raises(InvariantError, match="straddles"):
        derive_params(Fraction(1, 4), Fraction(1, 2), 3, 3)


@pytest.mark.parametrize("scan_prec", [4, 16, 64])
@pytest.mark.parametrize(
    "alpha, beta, lacunarity, n",
    [
        # exact ties (1/(alpha*beta))^tau == M^(k-2): 9^tau vs 3^(k-2), 8^tau vs 2^(k-2)
        ("1/3", "1/3", "3", 1),
        ("1/3", "1/3", "3", 2),
        ("1/3", "1/3", "9", 3),
        ("1/4", "1/2", "2", 2),
        # omega = 1/2 at n = 1: k*(1-omega)^c == 1 exactly at k = 2^c
        ("1/4", "1/2", "3", 1),
        ("2/5", "3/4", "5/2", 2),
        ("1/4", "1/2", "3", 3),
    ],
)
def test_budget_scan_is_exact_at_any_bracket_precision(
    monkeypatch, scan_prec, alpha, beta, lacunarity, n
):
    # coarse brackets straddle often, so the exact fallbacks decide the scan
    monkeypatch.setattr(schedule, "_SCAN_PREC", scan_prec)
    got = derive_params(Fraction(alpha), Fraction(beta), Fraction(lacunarity), n)
    want = oracles.derive_params(Fraction(alpha), Fraction(beta), Fraction(lacunarity), n)
    assert got.to_jsonable() == want.to_jsonable()


def test_budget_scan_stops_once_no_budget_can_qualify():
    # omega sits at its floor 2^-40 (the reduced cap measures about 2e-14 at
    # n = 6), where raising c one step at a time to clear k = 2 alone would
    # take about 2^40 steps; tau has passed what any k <= 100000 could carry
    gamma, pt = _escape_inputs(Fraction(4999, 10000), Fraction(1, 100))
    assert _cap_measure_lower_bound(gamma, pt, 6) == Fraction(1, 1 << 40)
    with pytest.raises(ScheduleInfeasible, match="no plane budget"):
        derive_params(Fraction(4999, 10000), Fraction(1, 100), 3, 6)


def test_derive_params_input_validation():
    with pytest.raises(ValueError):
        derive_params(Fraction(1, 2), Fraction(1, 2), 3, 1)  # alpha must be < 1/2
    with pytest.raises(ValueError):
        derive_params(Fraction(0), Fraction(1, 2), 3, 1)
    with pytest.raises(ValueError):
        derive_params(Fraction(1, 4), Fraction(1), 3, 1)
    with pytest.raises(ValueError):
        derive_params(Fraction(1, 4), Fraction(1, 2), 1, 1)  # M must exceed 1
    with pytest.raises(ValueError):
        derive_params(Fraction(1, 4), Fraction(1, 2), 3, 0)


# -- block schedule ----------------------------------------------------------


def test_golden_schedule_two_blocks(golden_params, golden_seq):
    sched = block_schedule(golden_params, golden_seq, Fraction(1, 2), 2)
    assert sched.cuts == (0, 1, 5)
    assert sched.handled_range(0) == (0, 1)
    assert sched.handled_range(1) == (1, 5)
    # certification: sizes 2..5 are below the block-1 threshold 1/(2*rho0*p^tau)
    # = 512, size 6 has crossed it — on squares: 512^2 = 262144
    assert golden_seq.norm_sq_of(5) < 262144 <= golden_seq.norm_sq_of(6)


def test_golden_schedule_three_blocks_infeasible(golden_params, golden_seq):
    # block 2's threshold is 512*8^3 = 262144; the family stops at size 987,
    # so the next-size certification has nothing to point at
    with pytest.raises(ScheduleInfeasible, match="exhausted"):
        block_schedule(golden_params, golden_seq, Fraction(1, 2), 3)


def test_schedule_zero_blocks(golden_params, golden_seq):
    sched = block_schedule(golden_params, golden_seq, Fraction(1, 2), 0)
    assert sched.cuts == (0,)


def test_schedule_rejects_oversized_rho0(golden_params, golden_seq):
    # needs 2*rho0*t_1 <= 1, t_1 = 1: rho0 = 1 is too big
    with pytest.raises(ScheduleInfeasible, match="initial radius"):
        block_schedule(golden_params, golden_seq, Fraction(1), 2)
    # boundary 2*rho0*t_1 == 1 is allowed
    sched = block_schedule(golden_params, golden_seq, Fraction(1, 2), 1)
    assert sched.cuts == (0, 1)


def test_schedule_rejects_dimension_mismatch(golden_seq):
    p2 = derive_params(Fraction(1, 4), Fraction(1, 2), 3, 2)
    with pytest.raises(ScheduleInfeasible, match="dimension"):
        block_schedule(p2, golden_seq, Fraction(1, 2), 1)


def test_schedule_budget_exhaustion():
    # a long tightly-spaced family in dimension 1 with sizes 3^r: with the
    # golden parameters, block 1's threshold 512 covers sizes 3..243, i.e.
    # 5 families in one block; shrink the budget artificially to force the
    # budget branch by using a densely packed synthetic family instead
    p = derive_params(Fraction(1, 4), Fraction(1, 2), 3, 1)
    seq = make_sequence([(3**r,) for r in range(10)])
    tight = oracles.replace(p, plane_budget=3)
    with pytest.raises(ScheduleInfeasible, match="budget"):
        block_schedule(tight, seq, Fraction(1, 2), 2)


def test_schedule_validation_errors(golden_params, golden_seq):
    with pytest.raises(ValueError):
        block_schedule(golden_params, golden_seq, Fraction(0), 1)
    with pytest.raises(ValueError):
        block_schedule(golden_params, golden_seq, Fraction(1, 2), -1)


# -- dangerous hyperplanes ---------------------------------------------------


def test_dangerous_hyperplanes_nearest_offset(golden_seq):
    ball = Ball((Fraction(3, 5),), Fraction(1, 100))
    picked = dangerous_hyperplanes(ball, golden_seq, 0, 2)
    assert [(r, h.normal, h.offset) for r, h in picked] == [
        (1, (1,), 1),  # u=1: s = 3/5 rounds to 1
        (2, (3,), 2),  # u=3: s = 9/5 rounds to 2
    ]


def test_dangerous_hyperplanes_tie_rounds_half_even():
    seq = make_sequence([(1,)])
    ball = Ball((Fraction(1, 2),), Fraction(1, 2))
    [(r, h)] = dangerous_hyperplanes(ball, seq, 0, 1)
    assert (r, h.offset) == (1, 0)  # round(1/2) is 0 under banker's rounding
    ball2 = Ball((Fraction(3, 2),), Fraction(1, 2))
    [(_, h2)] = dangerous_hyperplanes(ball2, seq, 0, 1)
    assert h2.offset == 2  # round(3/2) is 2


def test_dangerous_hyperplanes_rejects_wide_ball(golden_seq):
    ball = Ball((Fraction(0),), Fraction(1, 2))
    with pytest.raises(InvariantError, match="multiple reachable offsets"):
        dangerous_hyperplanes(ball, golden_seq, 5, 6)  # 2 * (1/2) * 987 > 1


def _picked(fn, *args):
    try:
        return fn(*args)
    except InvariantError as e:
        return str(e)


def test_dangerous_hyperplanes_match_fraction_oracle_on_long_denominators():
    # 3-dimensional families of sizes 1..87, centers and radii over
    # denominators up to 1500 bits; radii reach a tenth past 2*radius*|u| = 1
    # for the largest family handled, and a seventh of them sit exactly on it
    rng = Random(31)
    seq = make_sequence([(1, 0, 0), (2, 2, 1), (4, 4, 7), (12, 16, 21), (36, 48, 63)])
    kinds = set()
    for trial in range(400):
        lo = rng.randrange(5)
        hi = rng.randrange(lo + 1, 6)
        edge = Fraction(1, 2 * math.isqrt(seq.norm_sq_of(hi)))
        radius = edge if trial % 7 == 0 else long_rational(rng, Fraction(1, 10**6), edge * Fraction(11, 10))
        ball = Ball(tuple(long_rational(rng, -9, 9) for _ in range(3)), radius)
        got = _picked(dangerous_hyperplanes, ball, seq, lo, hi)
        assert got == _picked(oracles.dangerous_hyperplanes, ball, seq, lo, hi), trial
        kinds.add(type(got))
    assert kinds == {list, str}


def test_dangerous_hyperplanes_scale_test_is_inclusive():
    # 4 R^2 |u|^2 = 1 exactly is allowed, one part in 2^1500 more is not
    seq = make_sequence([(3, 4)])
    center = (Fraction(1, 2**1500), Fraction(7, 3))
    for radius, ok in ((Fraction(1, 10), True), (Fraction(1, 10) * (1 + Fraction(1, 2**1500)), False)):
        ball = Ball(center, radius)
        for fn in (dangerous_hyperplanes, oracles.dangerous_hyperplanes):
            assert isinstance(_picked(fn, ball, seq, 0, 1), list) is ok


@pytest.mark.parametrize("vectors", [[(1, 1, 1), (3, 4, 5)], [(1,), (3,)]])
def test_dangerous_hyperplanes_refuses_a_family_of_another_dimension(vectors):
    # a 2-d ball against 3-d or 1-d families: zip used to truncate, and 3-d
    # planes came back with offsets read off the first two coordinates
    seq = make_sequence(vectors)
    ball = Ball((Fraction(1, 3), Fraction(1, 5)), Fraction(1, 1000))
    for lo, hi in ((0, 2), (1, 2), (0, 0)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            dangerous_hyperplanes(ball, seq, lo, hi)


def test_dangerous_hyperplanes_two_dim():
    seq = make_sequence([(1, 0), (2, 2)], lacunarity=2)
    ball = Ball((Fraction(1, 5), Fraction(3, 5)), Fraction(1, 20))
    picked = dangerous_hyperplanes(ball, seq, 0, 2)
    assert [(r, h.offset) for r, h in picked] == [(1, 0), (2, 2)]
    # family 2: s = 2*(1/5) + 2*(3/5) = 8/5 -> rounds to 2
