"""Block-schedule execution and trace-based certification, end to end."""

import hashlib
import itertools
from fractions import Fraction
from random import Random

import pytest

from badapprox import strategy
from badapprox.adversaries import GreedyBlack, RandomBlack
from badapprox.engine import GameParams, concentric, run_game
from badapprox.exact import InvariantError, over_common_denominator
from badapprox.geometry import Ball, Hyperplane, dot
from badapprox.resonance import ResonanceSequence
from badapprox.schedule import ScheduleInfeasible, block_schedule, derive_params
from badapprox.strategy import (
    Certificate,
    CertificateFailed,
    WhiteStrategy,
    block_start_ball,
    build_strategy,
    certificate,
    gather_block_planes,
    run_constructed_game,
)
from conftest import long_rational, make_sequence
import oracles

A, B, M = Fraction(1, 4), Fraction(1, 2), 3
RHO0 = Fraction(1, 2)

# Frozen outputs of the deterministic golden run (greedy adversary, seed 0,
# start center 0): re-derived from scratch whenever this test runs, so any
# drift in engine, schedule, selection or adversaries shows up here.
GOLDEN_FINAL_CENTER = Fraction(160567, 524288)
GOLDEN_FINAL_RADIUS = Fraction(1, 524288)
GOLDEN_HANDLED = [
    (1, (1,), 0, 0),
    (2, (3,), 1, 1),
    (3, (13,), 4, 1),
    (4, (55,), 17, 1),
    (5, (233,), 71, 1),
]
GOLDEN_RESIDUAL_LBS = [
    Fraction(328839167, 1073741824),
    Fraction(87212031, 1073741824),
    Fraction(20004863, 1073741824),
    Fraction(167231487, 1073741824),
    Fraction(383856639, 1073741824),
]


def golden_run(golden_seq, blocks=2, center=None, seed=0):
    return run_constructed_game(
        golden_seq,
        A,
        B,
        M,
        RHO0,
        blocks,
        GreedyBlack(golden_seq),
        center=center,
        seed=seed,
    )


# -- gathering ----------------------------------------------------------------


def test_gather_block_zero_single_family(golden_params, golden_seq):
    sched = block_schedule(golden_params, golden_seq, RHO0, 2)
    ball = Ball((Fraction(0),), RHO0)
    gathered = gather_block_planes(ball, golden_seq, sched, 0)
    assert [(h.r, h.plane.normal, h.plane.offset) for h in gathered] == [(1, (1,), 0)]


def test_gather_adds_second_offset_on_tie(golden_params, golden_seq):
    # center exactly halfway between offsets 0 and 1 of family u=(1,):
    # both integer offsets are within reach and must be gathered
    sched = block_schedule(golden_params, golden_seq, RHO0, 2)
    ball = Ball((Fraction(1, 2),), RHO0)
    gathered = gather_block_planes(ball, golden_seq, sched, 0)
    assert [(h.r, h.plane.offset) for h in gathered] == [(1, 0), (1, 1)]


def test_gather_respects_budget(golden_params):
    seq = make_sequence([(3**r,) for r in range(8)])
    tight = oracles.replace(golden_params, plane_budget=2)
    sched = block_schedule(golden_params, seq, RHO0, 2)
    tight_sched = oracles.replace(sched, params=tight)
    ball = Ball((Fraction(1, 2),), RHO0)
    with pytest.raises(ScheduleInfeasible, match="gathered"):
        gather_block_planes(ball, seq, tight_sched, 0)


# -- the golden end-to-end run ------------------------------------------------


def test_golden_run_frozen_outputs(golden_seq):
    trace, cert, white, sched = golden_run(golden_seq)
    final = trace.final_ball
    assert final.center == (GOLDEN_FINAL_CENTER,)
    assert final.radius == GOLDEN_FINAL_RADIUS
    assert len(trace.moves) == 12  # 2 blocks * tau=3 rounds * 2 half-moves
    assert sched.cuts == (0, 1, 5)
    assert [(e.r, e.normal, e.offset, e.block) for e in cert.entries] == GOLDEN_HANDLED
    assert [e.residual_lb for e in cert.entries] == GOLDEN_RESIDUAL_LBS
    assert cert.covered_through == 5
    assert cert.eta_center == final.center
    assert cert.eta_radius == final.radius


def test_golden_run_residuals_truly_clear(golden_seq):
    # independent re-check of what the certificate claims: every handled
    # family's residual at the final center beats margin + |u|*radius
    trace, cert, white, sched = golden_run(golden_seq)
    eta = trace.final_ball.center[0]
    eps = sched.params.margin
    for e in cert.entries:
        u = e.normal[0]
        res = abs(u * eta - round(u * eta))
        assert res > eps
        assert e.residual_lb <= res  # the reported bound is honest
        assert res - abs(u) * trace.final_ball.radius >= e.residual_lb


def test_golden_certificate_matches_strategy_bookkeeping(golden_seq):
    trace, cert, white, sched = golden_run(golden_seq)
    recomputed = [(e.r, e.normal, e.offset, e.block) for e in cert.entries]
    kept = [
        (h.r, h.plane.normal, h.plane.offset, h.block) for h in white.handled
    ]
    assert recomputed == kept


def test_tie_start_handles_both_offsets(golden_seq):
    trace, cert, white, sched = golden_run(golden_seq, blocks=1, center=(Fraction(1, 2),))
    assert sorted((h.r, h.plane.offset) for h in white.handled) == [(1, 0), (1, 1)]
    assert trace.final_ball.center == (Fraction(121, 1024),)
    assert trace.final_ball.radius == Fraction(1, 1024)
    offsets = sorted((e.r, e.offset) for e in cert.entries)
    assert offsets == [(1, 0), (1, 1)]


def test_golden_run_against_random_black(golden_seq):
    for seed in (0, 3):
        trace, cert, white, sched = run_constructed_game(
            golden_seq, A, B, M, RHO0, 2, RandomBlack(seed=seed), seed=seed
        )
        assert cert.covered_through == 5
        assert len(cert.entries) >= 5


def test_zero_blocks_trivial_certificate(golden_seq):
    trace, cert, white, sched = golden_run(golden_seq, blocks=0)
    assert trace.moves == []
    assert cert.entries == []
    assert cert.covered_through == 0


def test_three_blocks_infeasible(golden_seq):
    with pytest.raises(ScheduleInfeasible):
        golden_run(golden_seq, blocks=3)


# -- certification is adversarial: bad traces fail ----------------------------


def test_do_nothing_white_fails_certificate(golden_params, golden_seq):
    sched = block_schedule(golden_params, golden_seq, RHO0, 2)
    gp = GameParams(A, B, 1)
    trace = run_game(
        gp,
        Ball((Fraction(0),), RHO0),
        concentric,
        GreedyBlack(golden_seq),
        2 * golden_params.avoidance_rounds,
    )
    with pytest.raises(CertificateFailed) as ei:
        certificate(trace, golden_seq, sched)
    # the lazy center 0 sits exactly on family 1's offset-0 plane
    assert any(v["r"] == 1 for v in ei.value.violations)


def test_certificate_rejects_short_trace(golden_params, golden_seq):
    sched = block_schedule(golden_params, golden_seq, RHO0, 2)
    gp = GameParams(A, B, 1)
    short = run_game(
        gp, Ball((Fraction(0),), RHO0), concentric, concentric, 2
    )
    with pytest.raises(ValueError, match="trace does not cover"):
        certificate(short, golden_seq, sched)


def test_block_start_ball_reads_trace(golden_seq):
    trace, cert, white, sched = golden_run(golden_seq)
    assert block_start_ball(trace, sched, 0) == trace.initial
    b1 = block_start_ball(trace, sched, 1)
    tau = sched.params.avoidance_rounds
    assert b1 == trace.moves[2 * tau - 1].ball
    assert b1.radius == RHO0 * (A * B) ** tau


def test_certificate_json_deterministic(golden_seq):
    _, cert1, _, _ = golden_run(golden_seq)
    _, cert2, _, _ = golden_run(golden_seq)
    assert cert1.dumps() == cert2.dumps()
    text = cert1.dumps()
    assert '"epsilon": "5/1889568"' in text
    assert '"covered_through": 5' in text


def test_strategy_note_after_schedule(golden_seq):
    trace, cert, white, sched = golden_run(golden_seq)
    gp = GameParams(A, B, 1)
    # run two extra rounds past the schedule: the strategy holds and says so
    white2, sched2 = build_strategy(golden_seq, A, B, M, RHO0, 2)
    tr = run_game(
        gp,
        Ball((Fraction(0),), RHO0),
        white2,
        GreedyBlack(golden_seq),
        sched2.params.avoidance_rounds * 2 + 2,
    )
    tail_notes = [m.note for m in tr.moves if m.player == "W"][-2:]
    assert tail_notes == ["schedule complete", "schedule complete"]


def test_white_wins_against_every_black_on_the_flagship_grid(golden_seq):
    # Black picks each of its 6 steps (2 blocks) from {-(1 - beta), 0, 1 - beta}:
    # all 3^6 games are played from scratch, and every one must certify with
    # every family's residual lower bound above epsilon
    grid = (-(1 - B), Fraction(0), 1 - B)
    worst = None
    for choices in itertools.product(grid, repeat=6):
        steps = iter(choices)
        trace, cert, _, sched = run_constructed_game(
            golden_seq, A, B, M, RHO0, 2, lambda state: (over_common_denominator([next(steps)]), None)
        )
        assert next(steps, None) is None  # Black played every step
        low = min(e.residual_lb for e in cert.entries)
        worst = low if worst is None else min(worst, low)
        assert cert.covered_through == 5
    assert worst > sched.params.margin


def test_random_black_constructions_are_pinned(golden_seq):
    # sha256 of the trace and certificate of the seeded golden constructions
    # against random Black, taken while White's gather, clearance and
    # certificate still decided in Fraction arithmetic
    pins = {
        0: ("5cc3f7169b9eee2bd6203107f2947354c34f5eb189deef53d41faccd01966db4",
            "9ac74d549fe32713bbf98d904f3ccaec13c1b343d67adfcc25638baa9441a2ae"),
        3: ("4b1c6753a806609306a3297bb2d6f6722acf89308ce38c02461f561dd0e4f142",
            "c4fb92351121259614ad6a2398b5aa7cbcff5ba399776111807267cac75052bf"),
    }
    for seed, digests in pins.items():
        trace, cert, _, _ = run_constructed_game(
            golden_seq, A, B, M, RHO0, 2, RandomBlack(seed=seed), seed=seed
        )
        got = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (trace.dumps(), cert.dumps()))
        assert got == digests, seed


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_dumps_matches_json_oracle(golden_seq, n):
    # the direct writer against the generic encoder, on seeded certificates
    # with handled entries and on the same certificates without any
    if n == 1:
        seq, rho0, blocks = golden_seq, RHO0, 2
    else:
        seq = make_sequence([(1, 0, 0)[:n], (3, 1, 0)[:n], (13, 2, 1)[:n]])
        rho0, blocks = Fraction(1, 64), 1
    for seed in range(2):
        _, cert, _, _ = run_constructed_game(
            seq, A, B, M, rho0, blocks, RandomBlack(seed=seed), seed=seed
        )
        bare = oracles.replace(cert, entries=[])
        assert cert.entries and len(cert.eta_center) == n
        assert cert.dumps() == oracles.certificate_json(cert)
        assert bare.dumps() == oracles.certificate_json(bare)
        assert '"handled": []' in bare.dumps()


# -- the integer predicates against their Fraction oracles ---------------------

HAIR = Fraction(1, 2**1500)


def _outcome(fn):
    try:
        return fn()
    except (ScheduleInfeasible, InvariantError) as e:
        return type(e), str(e)


def _with_margin(sched, eps):
    return oracles.replace(sched, params=oracles.replace(sched.params, margin=eps))


def test_gather_matches_fraction_oracle_on_long_denominators(golden_params, golden_seq):
    rng = Random(19)
    sched = block_schedule(golden_params, golden_seq, RHO0, 2)
    kinds = set()
    for trial in range(600):
        block = trial % 2
        size = 1 if block == 0 else 233  # the largest |u| the block handles
        eps = rng.choice([golden_params.margin, long_rational(rng, 0, Fraction(1, 2)), Fraction(1, 2)])
        radius = Fraction(1, 2 * size) * (1 - long_rational(rng, 0, 1))
        center = long_rational(rng, -3, 3)
        if trial % 7 == 0:  # a family with two reachable offsets
            radius = Fraction(1, 2 * size) * (1 + HAIR)
        if trial % 11 == 0:  # every |u| is odd: each u·c is a half-integer
            center = rng.randint(-3, 3) + Fraction(1, 2)
        ball = Ball((center,), radius)
        s = _with_margin(sched, eps)
        ours = _outcome(lambda: gather_block_planes(ball, golden_seq, s, block))
        assert ours == _outcome(lambda: oracles.gather_block_planes(ball, golden_seq, s, block))
        if isinstance(ours, tuple):
            kinds.add(ours[0])
        else:
            kinds.add(len(ours) > len(set(h.r for h in ours)))
    assert kinds == {False, True, ScheduleInfeasible, InvariantError}


@pytest.mark.parametrize("k", [-3, -2, 0, 1, 2, 7])
def test_gather_on_a_half_integer_rounds_to_even(k):
    # u·c = k + 1/2 over a 1500-bit common denominator: the nearest offset is
    # the even one of k, k + 1 and the other is gathered second
    params = derive_params(A, B, M, 2)
    seq = make_sequence([(1, 0)])
    sched = block_schedule(params, seq, RHO0, 1)
    ball = Ball((k + Fraction(1, 2), 3 * HAIR), RHO0)
    gathered = gather_block_planes(ball, seq, sched, 0)
    even, odd = (k, k + 1) if k % 2 == 0 else (k + 1, k)
    assert [h.plane.offset for h in gathered] == [even, odd]
    assert gathered == oracles.gather_block_planes(ball, seq, sched, 0)


def test_gather_margin_edges_at_epsilon_one_half(golden_params, golden_seq):
    sched = block_schedule(golden_params, golden_seq, RHO0, 2)
    ball = Ball((Fraction(5, 2),), RHO0)
    for gather in (gather_block_planes, oracles.gather_block_planes):
        with pytest.raises(ScheduleInfeasible, match="margin to the second offset is non-positive"):
            gather(ball, golden_seq, _with_margin(sched, Fraction(1, 2)), 0)
        near = _with_margin(sched, Fraction(1, 2) - HAIR)  # margin 2^-1500: both offsets
        assert [h.plane.offset for h in gather(ball, golden_seq, near, 0)] == [2, 3]
        # on the plane (lean 0), margin 1 - 1/2 = |u|*radius: the second offset is a + 1
        on = Ball((Fraction(5),), RHO0)
        assert [h.plane.offset for h in gather(on, golden_seq, _with_margin(sched, Fraction(1, 2)), 0)] == [5, 6]


def test_gather_second_offset_at_margin_equal_to_reach(golden_params, golden_seq):
    # margin = 1 - |lean| - eps equals |u|*radius exactly: the second offset is
    # gathered (<=); one part in 2^1500 less radius and it is not
    sched = block_schedule(golden_params, golden_seq, RHO0, 2)
    eps = golden_params.margin
    center = Fraction(1, 2) - eps / 2 + HAIR
    reach = Fraction(1, 2) - eps / 2 - HAIR
    for radius, offsets in ((reach, [0, 1]), (reach * (1 - HAIR), [0])):
        ball = Ball((center,), radius)
        for gather in (gather_block_planes, oracles.gather_block_planes):
            assert [h.plane.offset for h in gather(ball, golden_seq, sched, 0)] == offsets


def _clear(ball, u, eps) -> bool:
    den, nums, scales = strategy._integer_form(ball, eps)
    s = sum(c * x for c, x in zip(u, nums))
    return strategy._family_clear(s, den, sum(c * c for c in u), scales)


def test_family_clear_matches_fraction_oracle_on_long_denominators(golden_params):
    rng = Random(23)
    seen = set()
    for trial in range(800):
        n = rng.randint(1, 3)
        u = tuple(rng.randint(-300, 300) for _ in range(n))
        if not any(u):
            u = (1,) + u[1:]
        ball = Ball(tuple(long_rational(rng, -5, 5) for _ in range(n)), long_rational(rng, HAIR, Fraction(1, 400)))
        eps = rng.choice([golden_params.margin, long_rational(rng, 0, Fraction(1, 2))])
        want = oracles.family_clear(ball.radius, sum(c * c for c in u), dot(u, ball.center), eps)
        assert _clear(ball, u, eps) == want, trial
        seen.add(want)
    assert seen == {False, True}


@pytest.mark.parametrize("side", [1, -1])
def test_family_clear_is_strict_where_the_clearance_equals_the_reach(golden_params, side):
    # u·c = 7 + eps + |u|*radius (or 8 - eps - |u|*radius): the clearance equals
    # the reach exactly, which is not clear; a hair more clearance is
    eps, u, radius = golden_params.margin, (3, 4), 11 * HAIR
    for extra, clear in ((0, False), (HAIR * HAIR, True)):
        f = eps + 5 * radius + extra
        target = 7 + f if side == 1 else 8 - f
        y = Fraction(-2, 3) + HAIR
        ball = Ball(((target - 4 * y) / 3, y), radius)
        assert dot(u, ball.center) == target
        assert _clear(ball, u, eps) is clear
        assert oracles.family_clear(radius, 25, target, eps) is clear


def test_certificate_matches_fraction_oracle_on_long_games(golden_params, golden_seq):
    # concentric White or the strategy against random or greedy Black for 500
    # rounds: against random Black the final ball's denominators pass 1400
    # bits, and either outcome (entries or violations) must equal the
    # Fraction oracle's
    sched = block_schedule(golden_params, golden_seq, RHO0, 2)
    gp = GameParams(A, B, 1)
    outcomes = set()
    for seed in range(12):
        white = concentric if seed % 3 else WhiteStrategy(golden_seq, sched, seed=seed)
        # greedy Black from 0, on family 1's plane: concentric White leaves it there
        black, start = (RandomBlack(seed=seed), Fraction(seed, 7)) if seed % 2 else (
            GreedyBlack(golden_seq), Fraction(0))
        trace = run_game(gp, Ball((start,), RHO0), white, black, 500)
        if seed % 2:  # greedy Black stops once it sits on a plane
            assert trace.final_ball.center[0].denominator.bit_length() > 1400
        got = []
        for certify in (certificate, oracles.certificate):
            try:
                got.append(certify(trace, golden_seq, sched).dumps())
            except CertificateFailed as e:
                got.append(e.violations)
        assert got[0] == got[1], seed
        outcomes.add(isinstance(got[0], str))
    assert outcomes == {False, True}


def test_grid_certificates_match_fraction_oracle(golden_seq):
    grid = (-(1 - B), Fraction(0), 1 - B)
    for choices in itertools.islice(itertools.product(grid, repeat=6), 0, None, 7):
        steps = iter(choices)
        trace, cert, _, sched = run_constructed_game(
            golden_seq, A, B, M, RHO0, 2, lambda state: (over_common_denominator([next(steps)]), None)
        )
        assert cert.dumps() == oracles.certificate(trace, golden_seq, sched).dumps()
