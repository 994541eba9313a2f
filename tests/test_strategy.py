"""Block-schedule execution and trace-based certification, end to end."""

import itertools
from fractions import Fraction

import pytest

from badapprox.adversaries import GreedyBlack, RandomBlack
from badapprox.engine import GameParams, concentric, run_game
from badapprox.geometry import Ball, Hyperplane
from badapprox.resonance import ResonanceSequence
from badapprox.schedule import ScheduleInfeasible, block_schedule
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
from conftest import make_sequence
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
            golden_seq, A, B, M, RHO0, 2, lambda state: ((next(steps),), None)
        )
        assert next(steps, None) is None  # Black played every step
        low = min(e.residual_lb for e in cert.entries)
        worst = low if worst is None else min(worst, low)
        assert cert.covered_through == 5
    assert worst > sched.params.margin
