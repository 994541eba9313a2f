"""Opponent policies: legality, determinism, chase semantics, replay."""

from fractions import Fraction

import pytest

from badapprox.adversaries import GreedyBlack, RandomBlack, Scripted
from badapprox.engine import GameParams, GameTrace, IllegalMove, concentric, run_game
from badapprox.escape import EscapeDrive
from badapprox.geometry import Ball
from conftest import make_sequence


def test_random_black_always_legal_many_rounds():
    for n, seed in [(1, 0), (2, 1), (3, 2)]:
        gp = GameParams(Fraction(1, 3), Fraction(2, 5), n)
        start = Ball((Fraction(0),) * n, Fraction(1))
        tr = run_game(gp, start, concentric, RandomBlack(seed=seed), 25)
        assert len(tr.moves) == 50  # no IllegalMove raised on the way


def test_random_black_deterministic_per_seed():
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 2)
    start = Ball((Fraction(0), Fraction(0)), Fraction(1))

    def play(seed):
        return run_game(gp, start, concentric, RandomBlack(seed=seed), 6).dumps()

    assert play(7) == play(7)
    assert play(7) != play(8)


def test_random_black_centers_lie_on_grid():
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    start = Ball((Fraction(0),), Fraction(1))
    tr = run_game(gp, start, concentric, RandomBlack(seed=5, grid=4), 4)
    for prev, mv in zip([start] + [m.ball for m in tr.moves], tr.moves):
        if mv.player != "B":
            continue
        step = (1 - gp.beta) * prev.radius
        offset = mv.ball.center[0] - prev.center[0]
        assert (offset / (step / 4)).denominator == 1  # integer grid multiples


def test_greedy_black_chases_nearest_family():
    seq = make_sequence([(1,), (3,)])
    black = GreedyBlack(seq)
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    # center 0.30: family 1 offsets at integers (dist 0.30), family 2 planes
    # at thirds (nearest 1/3, dist 1/30): chases family 2 downward... upward
    start = Ball((Fraction(3, 10),), Fraction(1, 10))
    tr = run_game(gp, start, concentric, black, 1)
    b_move = tr.moves[1]
    assert b_move.note == "chasing family 2"
    # residual of u=3 at 0.3 is 0.9 - 1 = -0.1 < 0: step toward +
    assert b_move.ball.center[0] > Fraction(3, 10)


def test_greedy_black_tie_prefers_smaller_index():
    seq = make_sequence([(1,), (3,)])
    black = GreedyBlack(seq)
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    # center 0: both families have residual 0 -> distance tie, family 1 wins
    tr = run_game(gp, Ball((Fraction(0),), Fraction(1, 10)), concentric, black, 1)
    assert tr.moves[1].note == "on family 1"
    assert tr.moves[1].ball.center == (Fraction(0),)


def test_greedy_black_full_step_size():
    seq = make_sequence([(1,)])
    black = GreedyBlack(seq)
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    start = Ball((Fraction(3, 10),), Fraction(1))
    tr = run_game(gp, start, concentric, black, 1)
    # Black replies inside the White ball of radius 1/4: step (1-beta)*1/4 =
    # 1/8 toward the nearest integer 0, i.e. downward
    assert tr.moves[1].ball.center[0] == Fraction(3, 10) - Fraction(1, 8)


def test_greedy_black_reach_falls_back_to_concentric():
    seq = make_sequence([(1,)])
    black = GreedyBlack(seq, reach=Fraction(1, 2))
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    # nearest plane at distance 1/2 from center; White ball radius 1/40:
    # 1/2 > (1/2)*(1/40) -> out of reach, concentric reply
    start = Ball((Fraction(1, 2),), Fraction(1, 10))
    tr = run_game(gp, start, concentric, black, 1)
    assert tr.moves[1].ball.center == tr.moves[0].ball.center
    assert tr.moves[1].note == "concentric (nothing in reach)"


def test_greedy_black_two_dim_moves_toward_plane():
    seq = make_sequence([(1, 0), (2, 2)], lacunarity=2)
    black = GreedyBlack(seq)
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 2)
    start = Ball((Fraction(1, 20), Fraction(1, 3)), Fraction(1, 8))
    tr = run_game(gp, start, concentric, black, 1)
    before = abs(start.center[0])  # family 1 plane: x = 0
    after = abs(tr.moves[1].ball.center[0])
    assert tr.moves[1].note == "chasing family 1"
    assert after < before


def test_greedy_drift_identity_against_escape():
    # one full round: White escape drive up, Black full chase down toward a
    # far-below plane; the center climbs by exactly gamma * rho
    seq = make_sequence([(1,)])
    for a, b in [(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 3))]:
        gamma = 1 + a * b - 2 * a
        gp = GameParams(a, b, 1)
        # start below 1/2 so the nearest integer plane stays below even after
        # White's upward push: Black's full chase is exactly opposed
        start = Ball((Fraction(1, 4),), Fraction(1, 100))
        white = EscapeDrive((Fraction(1),), rounds=1)
        tr = run_game(gp, start, white, GreedyBlack(seq), 1)
        drift = tr.final_ball.center[0] - start.center[0]
        assert drift == gamma * start.radius


def test_scripted_replays_and_holds():
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    start = Ball((Fraction(0),), Fraction(1))
    black = Scripted([(Fraction(1, 8),)], notes=["planned"])
    tr = run_game(gp, start, concentric, black, 2)
    assert tr.moves[1].ball.center == (Fraction(1, 8),)
    assert tr.moves[1].note == "planned"
    # script exhausted: concentric hold, no note
    assert tr.moves[3].ball.center == tr.moves[2].ball.center
    assert tr.moves[3].note is None


def test_scripted_illegal_center_raises():
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    start = Ball((Fraction(0),), Fraction(1))
    black = Scripted([(Fraction(1),)])  # way outside the White ball
    with pytest.raises(IllegalMove):
        run_game(gp, start, concentric, black, 1)


def test_scripted_reproduces_recorded_trace():
    # extract Black's centers from a greedy game, replay them scripted, and
    # get the identical trace byte for byte
    seq = make_sequence([(1,), (3,)])
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    start = Ball((Fraction(3, 10),), Fraction(1, 10))
    original = run_game(gp, start, concentric, GreedyBlack(seq), 4)
    b_moves = [m for m in original.moves if m.player == "B"]
    replayer = Scripted(
        [m.ball.center for m in b_moves], notes=[m.note for m in b_moves]
    )
    again = run_game(gp, start, concentric, replayer, 4)
    assert again.dumps() == original.dumps()
