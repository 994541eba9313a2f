"""Game engine: forced radii, exact legality, serialization, replay."""

import hashlib
import json
import math
from fractions import Fraction
from itertools import cycle
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from badapprox.adversaries import GreedyBlack, RandomBlack, Scripted
from badapprox.cli import main
from badapprox.engine import (
    GameParams,
    GameState,
    GameTrace,
    IllegalMove,
    MoveRecord,
    concentric,
    full_step,
    hold,
    replay,
    run_game,
)
from badapprox import engine, geometry
from badapprox.escape import AvoidanceDrive
from badapprox.exact import over_common_denominator, rat_str
from badapprox.geometry import Ball, Hyperplane
from badapprox.schedule import block_schedule, derive_params
from badapprox.strategy import WhiteStrategy, run_constructed_game
from conftest import make_sequence

TINY = Fraction(1, 10**24)


def params_1d(alpha="1/4", beta="1/2"):
    return GameParams(Fraction(alpha), Fraction(beta), 1)


def unit_ball_1d():
    return Ball((Fraction(0),), Fraction(1))


class StepPolicy:
    """Always step a fixed offset from the current center (may be illegal):
    the step offset / R, in units of the current radius R."""

    def __init__(self, offset):
        self.offset = tuple(Fraction(x) for x in offset)

    def __call__(self, state: GameState):
        return over_common_denominator([o / state.ball.radius for o in self.offset]), None


class RelativeStep:
    """Step a fixed fraction of the current radius along each coordinate."""

    def __init__(self, fractions_of_radius):
        self.step = over_common_denominator([Fraction(x) for x in fractions_of_radius])

    def __call__(self, state: GameState):
        return self.step, None


class NotedPolicy:
    def __init__(self):
        self.count = 0

    def __call__(self, state: GameState):
        self.count += 1
        return hold(state), f"move {self.count}"


def test_params_validation():
    with pytest.raises(ValueError):
        GameParams(Fraction(0), Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        GameParams(Fraction(1, 2), Fraction(1), 1)
    with pytest.raises(ValueError):
        GameParams(Fraction(1, 2), Fraction(1, 2), 0)


@pytest.mark.parametrize("dimension", [0, -1, 2.0, True, "2", None])
def test_params_dimension_is_an_int_at_least_one(dimension):
    # one check for the constructor and the trace loader alike
    with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
        GameParams("1/4", "1/2", dimension)
    obj = {"alpha": "1/4", "beta": "1/2", "dimension": dimension}
    with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
        GameParams.from_jsonable(obj)


def test_radius_law_exact():
    p = params_1d()
    tr = run_game(p, unit_ball_1d(), concentric, concentric, 3)
    radii = [m.ball.radius for m in tr.moves]
    a, b = p.alpha, p.beta
    assert radii == [a, a * b, a * b * a, (a * b) ** 2, (a * b) ** 2 * a, (a * b) ** 3]
    assert [m.player for m in tr.moves] == ["W", "B", "W", "B", "W", "B"]
    assert tr.final_ball == tr.moves[-1].ball


def test_max_legal_step_is_tight():
    # White inside radius-1 ball: forced radius 1/4, max center offset 3/4
    p = params_1d()
    exact = run_game(p, unit_ball_1d(), StepPolicy((Fraction(3, 4),)), concentric, 1)
    assert exact.moves[0].ball.center == (Fraction(3, 4),)
    with pytest.raises(IllegalMove) as ei:
        run_game(p, unit_ball_1d(), StepPolicy((Fraction(3, 4) + TINY,)), concentric, 1)
    assert ei.value.player == "W"
    assert ei.value.move_index == 0


def test_black_illegal_step_detected():
    p = params_1d()
    # Black replies inside radius 1/4 with forced radius 1/8: max offset 1/8
    with pytest.raises(IllegalMove) as ei:
        run_game(p, unit_ball_1d(), concentric, StepPolicy((Fraction(1, 8) + TINY,)), 1)
    assert ei.value.player == "B"
    assert ei.value.move_index == 1


def test_dimension_mismatch_rejected():
    p = GameParams(Fraction(1, 4), Fraction(1, 2), 2)
    with pytest.raises(ValueError):
        run_game(p, unit_ball_1d(), concentric, concentric, 1)
    square = Ball((Fraction(0), Fraction(0)), Fraction(1))
    for step in [(1, (0,)), (1, (0,) * 3), (1, ())]:  # a step of the wrong length
        with pytest.raises(ValueError, match="dimension mismatch"):
            run_game(p, square, lambda state: (step, None), concentric, 1)


def test_notes_recorded_and_cleared():
    p = params_1d()
    tr = run_game(p, unit_ball_1d(), NotedPolicy(), concentric, 2)
    assert [m.note for m in tr.moves] == ["move 1", None, "move 2", None]


def test_trace_json_round_trip_byte_identical():
    p = GameParams(Fraction(1, 3), Fraction(2, 5), 2)
    start = Ball((Fraction(1, 7), Fraction(-2, 9)), Fraction(3, 2))
    tr = run_game(p, start, RelativeStep((Fraction(1, 2), Fraction(0))), concentric, 2)
    text = tr.dumps()
    again = GameTrace.loads(text)
    assert again.dumps() == text
    assert again.final_ball == tr.final_ball
    # sorted keys: serialization is canonical
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


def test_trace_round_trips_past_the_default_int_str_limit():
    # 2^-15000 has 4516 decimal digits, past the interpreter's default 4300
    start = Ball((Fraction(1, 3),), Fraction(1, 2**15000))
    text = run_game(params_1d(), start, concentric, concentric, 1).dumps()
    assert replay(GameTrace.loads(text)).dumps() == text


@pytest.mark.parametrize("field, value", [
    ("dimension", 1.5),
    ("dimension", True),
    ("dimension", "1"),
    ("alpha", 0.25),
])
def test_loads_rejects_forged_params(field, value):
    obj = json.loads(run_game(params_1d(), unit_ball_1d(), concentric, concentric, 1).dumps())
    obj["params"][field] = value
    with pytest.raises(ValueError, match="must be"):
        GameTrace.loads(json.dumps(obj))


@pytest.mark.parametrize("where, field, value", [
    ("initial", "radius", True),  # once loaded as radius 1
    ("move", "radius", 0.5),  # once a TypeError
    ("move", "center", [0.5]),
    ("move", "center", "1/2"),  # not a list
])
def test_loads_rejects_a_non_rational_ball(where, field, value):
    obj = json.loads(run_game(params_1d(), unit_ball_1d(), concentric, concentric, 1).dumps())
    ball = obj["initial"] if where == "initial" else obj["moves"][1]
    ball[field] = value
    with pytest.raises(ValueError, match="must be"):
        GameTrace.loads(json.dumps(obj))


def test_replay_rejects_a_forged_dimension():
    # a 1-D trace whose params claim dimension 2: the loader and replay
    # refuse it with the check run_game makes, which every GameTrace runs
    tr = run_game(params_1d(), unit_ball_1d(), concentric, concentric, 1)
    obj = json.loads(tr.dumps())
    obj["params"]["dimension"] = 2
    mismatch = "initial ball dimension does not match params"
    with pytest.raises(ValueError, match=mismatch):
        GameTrace.loads(json.dumps(obj))
    tr.params = GameParams(tr.params.alpha, tr.params.beta, 2)
    with pytest.raises(ValueError, match=mismatch):
        replay(tr)


def test_replay_accepts_legal_and_preserves():
    p = params_1d()
    tr = run_game(p, unit_ball_1d(), RelativeStep((Fraction(-1, 2),)), concentric, 3)
    again = replay(tr)
    assert again.dumps() == tr.dumps()


def test_replay_shares_the_verified_records(legal_trace):
    again = replay(legal_trace)
    assert again.moves is not legal_trace.moves
    assert len(again.moves) == len(legal_trace.moves)
    assert all(a is b for a, b in zip(again.moves, legal_trace.moves))
    assert again.dumps() == legal_trace.dumps()


def test_replay_accepts_an_equal_but_distinct_radius():
    tr = run_game(params_1d(), unit_ball_1d(), RelativeStep((Fraction(-1, 2),)), concentric, 3)
    moves = [
        MoveRecord(m.player, Ball(m.ball.center, Fraction(m.ball.radius.numerator,
                                                          m.ball.radius.denominator)), m.note)
        for m in tr.moves
    ]
    assert all(a.ball.radius is not b.ball.radius for a, b in zip(moves, tr.moves))
    copy = GameTrace(tr.params, tr.initial, moves)
    assert replay(copy).dumps() == tr.dumps()
    assert all(a is b for a, b in zip(replay(copy).moves, moves))


def test_replay_rejects_radius_tampering():
    p = params_1d()
    tr = run_game(p, unit_ball_1d(), concentric, concentric, 1)
    obj = tr.to_jsonable()
    obj["moves"][0]["radius"] = "1/8"  # should be 1/4
    with pytest.raises(IllegalMove, match="radius law"):
        replay(GameTrace.from_jsonable(obj))


def test_replay_rejects_turn_order_tampering():
    p = params_1d()
    tr = run_game(p, unit_ball_1d(), concentric, concentric, 1)
    obj = tr.to_jsonable()
    obj["moves"][0]["player"] = "B"
    with pytest.raises(IllegalMove, match="out-of-turn"):
        replay(GameTrace.from_jsonable(obj))


def test_replay_rejects_containment_tampering():
    p = params_1d()
    tr = run_game(p, unit_ball_1d(), concentric, concentric, 2)
    obj = tr.to_jsonable()
    obj["moves"][2]["center"] = ["9/10"]  # escapes the round-1 Black ball
    with pytest.raises(IllegalMove, match="leaves current ball"):
        replay(GameTrace.from_jsonable(obj))


@pytest.mark.parametrize("forged", ["1/1", "2/2", " 1 ", "+1/1", "4/4\n"])
def test_replay_rejects_a_tampered_center_in_the_text(forged):
    # every spelling of the forged center parses to the same value, and the
    # reply it forges leaves the ball it must lie in
    tr = run_game(params_1d(), unit_ball_1d(), concentric, concentric, 3)
    obj = json.loads(tr.dumps())
    obj["moves"][4]["center"] = [forged]
    with pytest.raises(IllegalMove, match="leaves current ball"):
        replay(GameTrace.loads(json.dumps(obj)))


def test_replay_accepts_a_respelled_center():
    # "0/5" is not canonical but is the same center: replay rebuilds the
    # canonical trace
    tr = run_game(params_1d(), unit_ball_1d(), concentric, concentric, 3)
    obj = json.loads(tr.dumps())
    obj["moves"][4]["center"] = ["0/5"]
    assert replay(GameTrace.loads(json.dumps(obj))).dumps() == tr.dumps()


# -- a malformed layout is a load error that names the field ------------------


@pytest.mark.parametrize("key, value, message", [
    ("moves", {"a": 1}, "moves must be a JSON list"),  # once "string indices must be integers"
    ("moves", None, "moves must be a JSON list"),  # once "'NoneType' object is not iterable"
    ("moves", [1], "move 0 must be a JSON object"),  # once "'int' object is not subscriptable"
    ("initial", ["0/1"], "initial must be a JSON object"),
    ("params", "1/4 1/2 1", "params must be a JSON object"),
    (None, [], "trace must be a JSON object"),
])
def test_loads_rejects_a_malformed_layout(key, value, message):
    obj = json.loads(run_game(params_1d(), unit_ball_1d(), concentric, concentric, 1).dumps())
    obj = value if key is None else {**obj, key: value}
    with pytest.raises(ValueError, match=message):
        GameTrace.loads(json.dumps(obj))


# -- tampered traces ----------------------------------------------------------


@pytest.fixture(scope="module", params=["flagship", "greedy-n2"])
def legal_trace(request, golden_seq):
    """The flagship trace (`play` defaults: n=1, two blocks against greedy
    Black) and one n=2 block against greedy Black."""
    if request.param == "flagship":
        seq, rho0, blocks = golden_seq, Fraction(1, 2), 2
    else:
        seq, rho0, blocks = make_sequence([(1, 0), (3, 1), (13, 2)]), Fraction(1, 64), 1
    trace, *_ = run_constructed_game(
        seq, Fraction(1, 4), Fraction(1, 2), 3, rho0, blocks, GreedyBlack(seq)
    )
    return trace


def _tampered(trace, index, **changes):
    moves = list(trace.moves)
    moves[index] = oracles.replace(moves[index], **changes)
    return GameTrace(trace.params, trace.initial, moves)


def _previous_ball(trace, index):
    return trace.initial if index == 0 else trace.moves[index - 1].ball


positive = st.fractions(min_value=0, max_value=4).filter(lambda x: x > 0)
tiny = st.integers(1, 400).map(lambda k: Fraction(1, 2**k))


@given(data=st.data())
def test_replay_rejects_any_other_radius(legal_trace, data):
    i = data.draw(st.integers(0, len(legal_trace.moves) - 1))
    ball = legal_trace.moves[i].ball
    radius = data.draw(st.one_of(
        positive,
        positive.map(ball.radius.__mul__),
        tiny.map(lambda e: ball.radius * (1 + e)),
        tiny.map(lambda e: ball.radius * (1 - e)),
    ).filter(lambda r: r != ball.radius))
    with pytest.raises(IllegalMove, match="radius law violated"):
        replay(_tampered(legal_trace, i, ball=Ball(ball.center, radius)))


@given(data=st.data())
def test_replay_rejects_a_center_moved_past_its_slack(legal_trace, data):
    # the reply center may lie at most R - r from the previous center; this
    # one lies further out along one axis, by any positive excess
    i = data.draw(st.integers(0, len(legal_trace.moves) - 1))
    prev, ball = _previous_ball(legal_trace, i), legal_trace.moves[i].ball
    axis = data.draw(st.integers(0, ball.dimension - 1))
    sign = data.draw(st.sampled_from([1, -1]))
    excess = data.draw(st.one_of(positive, tiny))
    center = list(ball.center)
    center[axis] = prev.center[axis] + sign * (prev.radius - ball.radius + excess)
    with pytest.raises(IllegalMove, match="leaves current ball"):
        replay(_tampered(legal_trace, i, ball=Ball(center, ball.radius)))


def test_replay_rejects_every_flipped_player(legal_trace):
    assert replay(legal_trace).dumps() == legal_trace.dumps()
    for i, mv in enumerate(legal_trace.moves):
        flipped = "B" if mv.player == "W" else "W"
        with pytest.raises(IllegalMove, match="out-of-turn"):
            replay(_tampered(legal_trace, i, player=flipped))


# -- held moves: a repeated center is rendered, parsed and checked once -------


def _held(trace):
    """Indices of the moves that repeat the previous ball's center."""
    balls = [trace.initial] + [m.ball for m in trace.moves]
    return [i for i in range(len(trace.moves)) if balls[i + 1].center == balls[i].center]


def _some_held(trace):
    held = _held(trace)
    return sorted({held[0], held[len(held) // 2], held[-1]})


def _repeat(obj, index, center):
    """Write `center` on move `index` and on each later move that repeated
    its old center, so those moves now repeat the new one string for string."""
    old = obj["moves"][index]["center"]
    for mv in obj["moves"][index:]:
        if mv["center"] != old:
            break
        mv["center"] = center


@pytest.mark.parametrize("forged", [True, 1.0])
@pytest.mark.parametrize("center", [[1], [1, "1/3"]])
def test_loads_rejects_a_repeated_int_entry_swapped_for_a_bool_or_float(center, forged):
    # [1] == [True] == [1.0] in Python, so a repeated center is reused only
    # when its entries are strings
    p = GameParams("1/4", "1/2", len(center))
    start = Ball(tuple(Fraction(1, 3) for _ in center), Fraction(1))
    obj = json.loads(run_game(p, start, concentric, concentric, 2).dumps())
    for ball in [obj["initial"], *obj["moves"]]:
        ball["center"] = list(center)
    assert GameTrace.loads(json.dumps(obj)).final_ball.center[0] == 1  # an int is a rational
    for i in range(len(obj["moves"])):
        tampered = json.loads(json.dumps(obj))
        tampered["moves"][i]["center"][0] = forged
        with pytest.raises(ValueError, match="center coordinate must be"):
            GameTrace.loads(json.dumps(tampered))


@pytest.mark.parametrize("later_moves_repeat_it", [False, True])
def test_replay_rejects_a_held_move_moved_past_its_slack(legal_trace, later_moves_repeat_it):
    text = legal_trace.dumps()
    for i in _some_held(legal_trace):
        prev, ball = _previous_ball(legal_trace, i), legal_trace.moves[i].ball
        center = list(ball.center)
        center[-1] = prev.center[-1] + prev.radius - ball.radius + TINY
        obj = json.loads(text)
        if later_moves_repeat_it:
            _repeat(obj, i, [rat_str(c) for c in center])
        else:
            obj["moves"][i]["center"] = [rat_str(c) for c in center]
        with pytest.raises(IllegalMove, match="leaves current ball") as ei:
            replay(GameTrace.loads(json.dumps(obj)))
        assert ei.value.move_index == i


def test_replay_rejects_a_held_move_with_a_forged_radius(legal_trace):
    text = legal_trace.dumps()
    for i in _some_held(legal_trace):
        radius = legal_trace.moves[i].ball.radius
        for forged in (radius * (1 + TINY), radius / 2):
            obj = json.loads(text)
            obj["moves"][i]["radius"] = rat_str(forged)
            with pytest.raises(IllegalMove, match="radius law violated") as ei:
                replay(GameTrace.loads(json.dumps(obj)))
            assert ei.value.move_index == i


def test_replay_rejects_a_held_move_by_the_wrong_player(legal_trace):
    text = legal_trace.dumps()
    for i in _some_held(legal_trace):
        obj = json.loads(text)
        obj["moves"][i]["player"] = "B" if obj["moves"][i]["player"] == "W" else "W"
        with pytest.raises(IllegalMove, match="out-of-turn") as ei:
            replay(GameTrace.loads(json.dumps(obj)))
        assert ei.value.move_index == i


def test_a_respelled_held_center_replays_to_the_canonical_bytes(legal_trace):
    # "0/5" for "0/1": a different string, the same center
    text = legal_trace.dumps()
    for i in _some_held(legal_trace):
        obj = json.loads(text)
        _repeat(obj, i, [f"{5 * c.numerator}/{5 * c.denominator}"
                         for c in legal_trace.moves[i].ball.center])
        assert replay(GameTrace.loads(json.dumps(obj))).dumps() == text


@pytest.mark.parametrize("black", ["random", "greedy"])
@pytest.mark.parametrize("n", [2, 3])
def test_held_moves_share_their_center_through_dumps_loads_and_replay(n, black):
    seq = make_sequence([(1, 0, 0)[:n], (3, 1, 0)[:n], (13, 2, 1)[:n]])
    adversary = GreedyBlack(seq) if black == "greedy" else RandomBlack(seed=n)
    trace, *_ = run_constructed_game(
        seq, Fraction(1, 4), Fraction(1, 2), 3, Fraction(1, 64), 1, adversary
    )
    text = trace.dumps()
    assert text == oracles.trace_json(trace)
    loaded = GameTrace.loads(text)
    assert (loaded.params, loaded.initial) == (trace.params, trace.initial)
    assert loaded.moves == trace.moves
    assert replay(loaded).dumps() == text
    # a held move's loaded center is its previous move's objects, not a
    # second parse of the same text
    held = _held(trace)
    assert len(held) > len(trace.moves) // 3
    balls = [loaded.initial] + [m.ball for m in loaded.moves]
    for i in held:
        assert all(x is y for x, y in zip(balls[i + 1].center, balls[i].center)), i


# -- the direct trace writer against json.dumps -------------------------------

ODD_NOTES = [
    None,
    "",
    'quote " inside',
    "back\\slash",
    "new\nline and tab\t",
    "control \x01\x1f\x7f",
    "non-ASCII: η ∈ Bad, ρ → 0, ü",
    "astral \U0001d53c",
]


def _moves(dimension, notes):
    centers = [
        tuple(Fraction(7 * i - 3 * j, 1 + i + j) for j in range(dimension))
        for i in range(len(notes))
    ]
    return [
        MoveRecord("WB"[i % 2], Ball(c, Fraction(1, 2 ** (i + 1))), note)
        for i, (c, note) in enumerate(zip(centers, notes))
    ]


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_dumps_matches_json_oracle_on_edge_cases(dimension):
    params = GameParams(Fraction(1, 3), Fraction(2, 5), dimension)
    start = Ball(tuple(Fraction(-j, 7) for j in range(dimension)), Fraction(3, 2))
    traces = [
        GameTrace(params, start),  # empty moves
        GameTrace(params, start, _moves(dimension, ODD_NOTES)),
        GameTrace(params, Ball((Fraction(-5),) * dimension, 4), _moves(dimension, [None])),
        GameTrace(params, start, [MoveRecord("ß\"", start, "x")]),  # odd player
    ]
    for tr in traces:
        assert tr.dumps() == oracles.trace_json(tr)
    assert '"moves": []' in traces[0].dumps()
    assert traces[1].dumps().isascii()


@pytest.mark.parametrize("field, value", [("note", 5), ("note", ["x"]), ("player", 1)])
def test_loads_rejects_a_non_string_note_or_player(field, value):
    obj = json.loads(run_game(params_1d(), unit_ball_1d(), concentric, concentric, 1).dumps())
    obj["moves"][1][field] = value
    with pytest.raises(ValueError, match="must be strings"):
        GameTrace.loads(json.dumps(obj))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dumps_matches_json_oracle_on_random_games(n):
    gp = GameParams(Fraction(1, 3), Fraction(2, 5), n)
    start = Ball((Fraction(1, 3),) * n, Fraction(1))
    white = RelativeStep((Fraction(1, 3), Fraction(-1, 3), Fraction(1, 3))[:n])
    tr = run_game(gp, start, white, RandomBlack(seed=n), 12)
    assert tr.dumps() == oracles.trace_json(tr)


@pytest.mark.parametrize("adversary", ["greedy", "random", "concentric"])
def test_dumps_matches_json_oracle_on_flagship_traces(tmp_path, adversary):
    play = ("play", "--alpha", "1/4", "--beta", "1/2", "--blocks", "2")
    assert main([*play, "--adversary", adversary, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "trace.json").read_text()
    tr = GameTrace.loads(text)
    assert text == oracles.trace_json(tr) + "\n"
    assert replay(tr).dumps() == oracles.trace_json(tr)


# -- steps: legality on the step, the integer fold ---------------------------


def _seat_game(n, turn, step, center=None):
    """One round in dimension n where `turn` takes `step` and the other seat holds."""
    p = GameParams(Fraction(1, 4), Fraction(1, 2), n)
    start = Ball(center or (Fraction(1, 3), Fraction(-2, 7))[:n], Fraction(3, 5))
    mover = lambda state: (step, None)  # noqa: E731
    white, black = (mover, concentric) if turn == "W" else (concentric, mover)
    return run_game(p, start, white, black, 1)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("turn", ["W", "B"])
def test_a_step_of_length_exactly_its_slack_is_legal(n, turn):
    # v/q on the slack is legal, in least terms and in terms 10^24 times
    # larger, and v one unit of 1/q longer along its first coordinate is not
    slack = 1 - (Fraction(1, 4) if turn == "W" else Fraction(1, 2))
    unit = (Fraction(1),) if n == 1 else (Fraction(3, 5), Fraction(-4, 5))
    q, v = over_common_denominator([slack * x for x in unit])
    i = 0 if turn == "W" else 1
    for k in (1, 10**24):
        step = (k * q, tuple(k * x for x in v))
        tr = _seat_game(n, turn, step)
        prev = tr.initial if i == 0 else tr.moves[0].ball
        s = oracles.step_fractions(step)
        assert tr.moves[i].ball.center == tuple(c + prev.radius * x for c, x in zip(prev.center, s))
        assert oracles.contains_ball(prev, tr.moves[i].ball)
        beyond = (k * q, (k * v[0] + 1,) + step[1][1:])
        with pytest.raises(IllegalMove, match="leaves current ball") as ei:
            _seat_game(n, turn, beyond)
        assert (ei.value.player, ei.value.move_index) == (turn, i)


def test_a_zero_step_keeps_the_center():
    # holding reuses the center's coordinate objects, before and after a
    # real step, whatever the zero step's denominator
    steps = iter([(1, (0, 0)), (15, (5, -3)), (7, [0, 0])])
    p = GameParams(Fraction(2, 5), Fraction(1, 2), 2)
    start = Ball((Fraction(1, 3), Fraction(-2, 7)), Fraction(3, 5))
    tr = run_game(p, start, lambda state: (next(steps), None), concentric, 2)
    balls = [tr.initial] + [m.ball for m in tr.moves]

    def same(a, b):
        return all(x is y for x, y in zip(a.center, b.center))

    assert same(balls[1], start) and same(balls[2], start)
    assert balls[3].center != balls[2].center
    assert same(balls[4], balls[3])
    assert replay(tr).dumps() == tr.dumps()


@pytest.mark.parametrize("zero", [
    (1, (0, 0)),
    (7, [0, 0]),
    "hold",
    (2**80 + 1, (0, 0)),
])
@pytest.mark.parametrize("turn", ["W", "B"])
def test_every_zero_step_is_a_legal_hold(zero, turn):
    if zero == "hold":
        gp = GameParams(Fraction(1, 4), Fraction(1, 2), 2)
        zero = hold(GameState(gp, Ball((Fraction(0), Fraction(0)), Fraction(1)), 0, "W"))
    start = Ball((Fraction(1, 3), Fraction(-2, 7)), Fraction(3, 5))
    tr = _seat_game(2, turn, zero)
    assert [m.ball.center for m in tr.moves] == [start.center, start.center]
    assert [m.ball.radius for m in tr.moves] == [Fraction(3, 20), Fraction(3, 40)]
    assert replay(tr).dumps() == tr.dumps()


def test_full_step_is_the_slack_along_the_direction_in_least_terms():
    # (1 - rho) v/L over its least common denominator, the form the policies
    # built from the Fraction direction, and exactly as long as the slack
    assert full_step(((3, 4), 5), Fraction(1, 4)) == (20, [9, 12])
    assert full_step(((3, 4), 5), Fraction(4, 9)) == (9, [3, 4])  # (45, [15, 20]) over 5
    assert full_step(((-1,), 1), Fraction(1, 2)) == (2, [-1])
    rng = Random(29)
    for n in (1, 2, 3, 4):
        for _ in range(50):
            raw = [rng.randint(-9, 9) or 1 for _ in range(n)]
            direction = geometry.rational_unit_direction(raw)
            a = rng.randint(1, 40)
            rho = Fraction(a, a + rng.randint(1, 40))
            q, v = full_step(direction, rho)
            unit = oracles.unit_fractions(direction)
            assert (q, v) == over_common_denominator([(1 - rho) * x for x in unit])
            b = rho.denominator
            assert sum(x * x for x in v) * b * b == (b - rho.numerator) ** 2 * q * q


def test_hold_shares_one_zero_tuple_per_dimension():
    def state(n):
        gp = GameParams(Fraction(1, 4), Fraction(1, 2), n)
        return GameState(gp, Ball((Fraction(1, 3),) * n, Fraction(1)), 0, "W")

    assert hold(state(2)) is hold(state(2)) == (1, (0, 0))
    assert hold(state(3)) == (1, (0,) * 3)
    q, v = hold(state(3))
    assert type(q) is int and all(type(x) is int for x in v)


@pytest.mark.parametrize("step, error, match", [
    ((1, (0.0, 0.0)), TypeError, "float"),  # checked before the zero test
    ((1, (0, 0.0)), TypeError, "float"),
    ((1, (0,)), ValueError, "dimension mismatch"),
    ((1, (0,) * 3), ValueError, "dimension mismatch"),
    ((3, [0] * 3), ValueError, "dimension mismatch"),
])
@pytest.mark.parametrize("turn", ["W", "B"])
def test_a_zero_step_is_checked_before_it_holds(step, error, match, turn):
    with pytest.raises(error, match=match):
        _seat_game(2, turn, step)


#: Steps of the wrong form, each with a zero v and with a nonzero one
BAD_STEPS = [
    ((1, (0.0, 0)), (4, (1.0, 0)), TypeError, "float"),
    ((1, (False, 0)), (4, (True, 0)), TypeError, "bool"),
    ((1, (Fraction(0), 0)), (4, (Fraction(1), 0)), TypeError, "Fraction"),
    ((1, "00"), (4, "10"), TypeError, "str"),
    ((1.0, (0, 0)), (4.0, (1, 0)), TypeError, "float"),
    ((True, (0, 0)), (True, (1, 0)), TypeError, "bool"),
    ((Fraction(1), (0, 0)), (Fraction(4), (1, 0)), TypeError, "Fraction"),
    (("1", (0, 0)), ("4", (1, 0)), TypeError, "str"),
    ((0, (0, 0)), (0, (1, 0)), ValueError, "positive"),
    ((-1, (0, 0)), (-4, (-1, 0)), ValueError, "positive"),
    ((1, (0,)), (4, (1,)), ValueError, "dimension mismatch"),
    ((1, (0, 0, 0)), (4, (1, 0, 0)), ValueError, "dimension mismatch"),
]


@pytest.mark.parametrize("zero, moved, error, match", BAD_STEPS)
@pytest.mark.parametrize("turn", ["W", "B"])
def test_a_bad_step_raises_before_its_move_is_recorded(monkeypatch, zero, moved, error, match,
                                                       turn):
    # run_game builds each Ball and MoveRecord as a bare instance whose slots
    # it sets; the only ones built are the other seat's move before the bad one
    built = []
    new = engine._new

    def record(cls):
        built.append(cls)
        return new(cls)

    monkeypatch.setattr(engine, "_new", record)
    for step in (zero, moved):
        built.clear()
        with pytest.raises(error, match=match):
            _seat_game(2, turn, step)
        assert built == ([] if turn == "W" else [Ball, MoveRecord])
    built.clear()
    assert len(_seat_game(2, turn, (1, (0, 0))).moves) == 2
    assert built == [Ball, MoveRecord] * 2


@pytest.mark.parametrize("turn", ["W", "B"])
def test_a_step_just_past_its_slack_still_fails_with_its_center(turn):
    # (0, slack + 1/q) for q = 10^24 b, the slack's denominator times 10^24
    a, b = (1, 4) if turn == "W" else (1, 2)
    q = b * 10**24
    step = (q, (0, (b - a) * 10**24 + 1))
    with pytest.raises(IllegalMove, match="leaves current ball") as ei:
        _seat_game(2, turn, step)
    start = Ball((Fraction(1, 3), Fraction(-2, 7)), Fraction(3, 5))
    radius = start.radius if turn == "W" else start.radius / 4
    slack = 1 - Fraction(a, b)
    assert ei.value.center == (start.center[0], start.center[1] + radius * (slack + Fraction(1, q)))
    assert (ei.value.player, ei.value.move_index) == (turn, 0 if turn == "W" else 1)


def test_illegal_move_reports_the_absolute_center():
    start = Ball((Fraction(1, 3), Fraction(-2, 7)), Fraction(3, 5))
    step = (36, (27, 4))  # (3/4, 1/9): longer than 1 - alpha = 3/4
    with pytest.raises(IllegalMove) as ei:
        _seat_game(2, "W", step, start.center)
    assert ei.value.center == (Fraction(1, 3) + Fraction(3, 5) * Fraction(3, 4),
                               Fraction(-2, 7) + Fraction(3, 5) * Fraction(1, 9))


def test_replay_rejects_a_move_of_the_wrong_dimension():
    tr = run_game(params_1d(), unit_ball_1d(), concentric, concentric, 1)
    forged = _tampered(tr, 1, ball=Ball((Fraction(0), Fraction(0)), tr.moves[1].ball.radius))
    with pytest.raises(ValueError, match="dimension mismatch"):
        replay(forged)


class RandomSteps:
    """Seeded steps with fresh denominators mid-game, in terms that are
    seldom the least: mostly legal steps of several kinds, sometimes a zero
    step, and rarely one just past the slack (the game then ends in
    IllegalMove)."""

    DENOMINATORS = [1, 2, 3, 7, 16, 105, 2**20 + 7, 10**9 + 9]

    def __init__(self, seed: int, illegal_every: int):
        self.rng = Random(seed)
        self.illegal_every = illegal_every

    def __call__(self, state: GameState):
        rng, n = self.rng, state.ball.dimension
        rho = state.params.alpha if state.turn == "W" else state.params.beta
        s, b = rho.denominator - rho.numerator, rho.denominator  # the slack s/b
        kind = rng.randrange(10)
        if kind == 0:
            return (rng.choice(self.DENOMINATORS), (0,) * n), "hold"
        q = rng.choice(self.DENOMINATORS) if kind < 8 else rng.randint(1, 10**6)
        step = (b * q * n, [s * rng.randint(-q, q) for _ in range(n)])
        if kind == 9 and n > 1:  # on the boundary: (3/5, 4/5) times the slack
            step = (5 * b, [3 * s, -4 * s] + [0] * (n - 2))
        if rng.randrange(self.illegal_every) == 0:  # the first coordinate s/b + 1/(q + 1)
            d, v = step
            step = (d * b * (q + 1), [d * (s * (q + 1) + b)] + [x * b * (q + 1) for x in v[1:]])
        return step, f"kind {kind} q {q}"


def _outcome(play):
    try:
        return play().dumps()
    except IllegalMove as e:
        return (e.player, e.move_index, e.center, e.reason)


@pytest.mark.parametrize("alpha, beta", [
    ("1/4", "1/2"), ("2/5", "1/2"), ("2/3", "3/4"), ("4/9", "3/8"), ("5/6", "2/15"),
])
def test_run_game_equals_the_absolute_center_engine(alpha, beta):
    # alpha = 2/5 and beta = 1/2 share the factor 2 between a numerator and
    # a denominator, so the unreduced radius denominator outgrows the radius
    illegal = 0
    for trial in range(24):
        n = trial % 3 + 1
        gp = GameParams(Fraction(alpha), Fraction(beta), n)
        rng = Random(f"{alpha}:{beta}:{trial}")
        start = Ball(tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n)),
                     Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        ours, theirs = (
            _outcome(lambda engine=engine: engine(
                gp, start, RandomSteps(2 * trial, 40), RandomSteps(2 * trial + 1, 40), 12))
            for engine in (run_game, oracles.run_game_absolute)
        )
        assert ours == theirs, trial
        illegal += isinstance(ours, tuple)
    assert 0 < illegal < 24  # both outcomes are exercised


# -- every step is checked on every call -------------------------------------


@pytest.mark.parametrize("turn", ["W", "B"])
@pytest.mark.parametrize("illegal", [
    lambda v: v.__setitem__(0, v[0] + 1),  # past the slack
    lambda v: v.append(0),                 # of the wrong dimension
    lambda v: v.__setitem__(1, 0.0),       # a float
])
def test_a_list_step_mutated_after_a_legal_move_is_checked_again(turn, illegal):
    # one pair whose list v lies on the slack on its first two calls and is
    # then mutated in place: its third call fails
    b = 4 if turn == "W" else 2
    v, calls = [3 * (b - 1), -4 * (b - 1)], []
    step = (5 * b, v)

    def mover(state):
        calls.append(state.move_index)
        if len(calls) == 3:
            illegal(v)
        return step, None

    p = GameParams(Fraction(1, 4), Fraction(1, 2), 2)
    white, black = (mover, concentric) if turn == "W" else (concentric, mover)
    with pytest.raises((IllegalMove, ValueError, TypeError)) as ei:
        run_game(p, Ball((Fraction(1, 3), Fraction(-2, 7)), Fraction(3, 5)), white, black, 4)
    assert len(calls) == 3
    if ei.type is IllegalMove:
        assert (ei.value.player, ei.value.move_index) == (turn, calls[-1])


class Repeating:
    """RandomSteps' legal steps, each returned several calls in a row: as
    the very pair it first returned (scaled=False), or as a fresh pair
    (k q, k v) for a k >= 2 (scaled=True); a third of the holds are
    hold's own shared pair, and every fifth v is a list."""

    def __init__(self, seed: int, scaled: bool):
        self.inner, self.scaled, self.rng = RandomSteps(seed, 10**9), scaled, Random(seed)
        self.step, self.left = None, 0

    def __call__(self, state: GameState):
        if not self.left:
            self.step, self.note = self.inner(state)
            kind = self.rng.randrange(15)
            if kind == 0:
                self.step = hold(state)
            elif kind < 3:
                self.step = (self.step[0], list(self.step[1]))
            self.left = self.rng.randint(1, 6)
        self.left -= 1
        step = self.step
        if self.scaled:
            q, v = step
            k = (2, 3, 2**64, 10**30 + 1)[self.left % 4]
            step = (k * q, type(v)(k * x for x in v))
        return step, self.note


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_repeated_step_tuple_plays_as_fresh_tuples(n):
    # a step in any common terms, returned again or afresh, plays alike
    gp = GameParams(Fraction(2, 5), Fraction(3, 8), n)
    start = Ball(tuple(Fraction(k, 7 + k) for k in range(1, n + 1)), Fraction(5, 9))
    same, fresh = (
        run_game(gp, start, Repeating(n, scaled), Repeating(n + 10, scaled), 40).dumps()
        for scaled in (False, True)
    )
    assert same == fresh == oracles.run_game_absolute(
        gp, start, Repeating(n, True), Repeating(n + 10, True), 40).dumps()


class Twin:
    """Two instances of one policy: the first is asked with run_game's own
    state, the second with the state built anew by hand, which computes its
    integer center from the ball; their decisions must agree."""

    def __init__(self, make):
        self.ours, self.by_hand = make(), make()
        self.calls = 0

    def __call__(self, state: GameState):
        den, nums = state._form  # run_game's own, set before the call
        assert tuple(Fraction(x, den) for x in nums) == state.ball.center
        decision = self.ours(state)
        again = GameState(state.params, state.ball, state.move_index, state.turn)
        assert self.by_hand(again) == decision
        self.calls += 1
        return decision


def test_every_policy_decides_alike_on_a_hand_built_state():
    a, b = Fraction(1, 4), Fraction(1, 2)
    for n, vectors, center in [
        (2, [(1, 1), (3, 4), (-12, 9), (40, 30)], (Fraction(3, 10), Fraction(-7, 9))),
        (3, [(1, 0, 0), (3, 1, 0), (13, 2, 1)], (Fraction(3, 10), Fraction(-7, 9), Fraction(1, 5))),
    ]:
        seq = make_sequence(vectors)
        params = derive_params(a, b, 3, n)
        sched = block_schedule(params, seq, Fraction(1, 64), 1)
        start = Ball(center, Fraction(1, 64))
        planes = [Hyperplane(u, round(sum(x * c for x, c in zip(u, center)))) for u in vectors]
        whites = [lambda: WhiteStrategy(seq, sched, seed=5),
                  lambda: AvoidanceDrive(planes, params, seed=5)]
        for make_white in whites:
            # Black's first moves of a greedy game against this White, replayed
            played = run_game(GameParams(a, b, n), start, make_white(), GreedyBlack(seq), 9)
            script = [m.ball.center for m in played.moves if m.player == "B"][:7]
            blacks = [lambda: GreedyBlack(seq), lambda: RandomBlack(seed=7), lambda: concentric,
                      lambda: Scripted(script, notes=[f"s{k}" for k in range(7)])]
            for make_black in blacks:
                white, black = Twin(make_white), Twin(make_black)
                run_game(GameParams(a, b, n), start, white, black, params.avoidance_rounds)
                assert white.calls == black.calls == params.avoidance_rounds


def test_every_policy_plays_as_the_absolute_center_engine():
    # each policy of the package, against each other seat's, gives the trace
    # of the engine that adds its step to the center as Fractions
    a, b = Fraction(1, 4), Fraction(1, 2)
    vectors = [(1, 1), (3, 4), (-12, 9), (40, 30)]
    seq, center = make_sequence(vectors), (Fraction(1, 10**6), Fraction(-3, 10**6))
    params = derive_params(a, b, 3, 2)
    sched = block_schedule(params, seq, Fraction(1, 64), 1)
    gp, start = GameParams(a, b, 2), Ball(center, Fraction(1, 64))
    planes = [Hyperplane(u, 0) for u in vectors]  # near the center: the drive moves
    whites = [lambda: WhiteStrategy(seq, sched, seed=5),
              lambda: AvoidanceDrive(planes, params, seed=5), lambda: concentric]
    rounds, drives = params.avoidance_rounds + 2, 0
    for make_white in whites:
        played = run_game(gp, start, make_white(), RandomBlack(seed=3), rounds)
        script = [m.ball.center for m in played.moves if m.player == "B"][:9]
        blacks = [lambda: GreedyBlack(seq), lambda: RandomBlack(seed=7), lambda: concentric,
                  lambda: Scripted(script, notes=[f"s{k}" for k in range(9)])]
        for make_black in blacks:
            ours, theirs = (engine(gp, start, make_white(), make_black(), rounds).dumps()
                            for engine in (run_game, oracles.run_game_absolute))
            assert ours == theirs
            drives += ours.count(" drive ")
    assert drives


@pytest.fixture(scope="module")
def n3_trace():
    """A one-block n = 3 construction against greedy Black: 946 half-moves,
    whose late center denominators are about 1500 bits, nearly all of them a
    power of two."""
    seq = make_sequence([(1, 0, 0), (3, 1, 0), (13, 2, 1)])
    trace, *_ = run_constructed_game(
        seq, Fraction(1, 4), Fraction(1, 2), 3, Fraction(1, 64), 1, GreedyBlack(seq),
        center=(Fraction(3, 10), Fraction(-7, 9), Fraction(1, 5)), seed=5,
    )
    return trace


def test_constructed_n3_trace_is_pinned(n3_trace):
    # sha256 of a one-block n = 3 construction against greedy Black, taken
    # when the engine still added each step to the center as a Fraction sum
    assert len(n3_trace.moves) == 946
    digest = hashlib.sha256(n3_trace.dumps().encode()).hexdigest()
    assert digest == "e166d091e4bf92b0a3bc0b18e819dbc9489f0f2e03676241a30e2519e90e5fba"


# -- replay's integer slack and radius law, late in an n = 3 construction -----

LATE = 900
HAIR = Fraction(1, 2**1500)


def _late(trace, player, held):
    """Indices past LATE of `player`'s moves that hold (or move) the center."""
    balls = [trace.initial] + [m.ball for m in trace.moves]
    return [i for i in range(LATE, len(trace.moves))
            if trace.moves[i].player == player
            and (balls[i + 1].center == balls[i].center) == held]


def _replay_text(trace, index, center=None, radius=None):
    """Replay the trace cut after move `index`, that move's center or radius
    replaced, through its text (dumps, loads)."""
    moves = list(trace.moves[:index + 1])
    ball = moves[index].ball
    moves[index] = oracles.replace(moves[index], ball=Ball(
        ball.center if center is None else center, ball.radius if radius is None else radius))
    text = GameTrace(trace.params, trace.initial, moves).dumps()
    assert replay(GameTrace.loads(text)).dumps() == text


def test_late_moves_of_the_n3_construction_are_past_a_thousand_bits(n3_trace):
    # past move 900 greedy Black moves on every turn, and White holds
    assert _late(n3_trace, "B", False) and _late(n3_trace, "W", True)
    assert not _late(n3_trace, "B", True) and not _late(n3_trace, "W", False)
    ball = n3_trace.moves[_late(n3_trace, "B", False)[-1]].ball
    assert min(c.denominator.bit_length() for c in ball.center) > 1400


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("factor", [1 + HAIR, 1 - HAIR, Fraction(1, 2)])
def test_replay_rejects_a_late_radius_off_by_a_hair(n3_trace, held, factor):
    # a held center (White's) skips the slack test and still meets the law
    for i in _late(n3_trace, "W" if held else "B", held)[-2:]:
        ball = n3_trace.moves[i].ball
        moves = list(n3_trace.moves)
        moves[i] = oracles.replace(moves[i], ball=Ball(ball.center, ball.radius * factor))
        with pytest.raises(IllegalMove, match="radius law violated") as ei:
            replay(GameTrace(n3_trace.params, n3_trace.initial, moves))
        assert ei.value.move_index == i


#: unit directions with rational coordinates: a step along one is exactly
#: the slack long
UNITS = [
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(-1), Fraction(0)),
    (Fraction(3, 5), Fraction(0), Fraction(-4, 5)),
    (Fraction(2, 3), Fraction(-1, 3), Fraction(2, 3)),
]


@pytest.mark.parametrize("unit", UNITS)
def test_a_late_step_on_its_slack_boundary_replays_and_one_past_it_fails(n3_trace, unit):
    # Black's moved centers, and a held White move moved onto White's own
    # slack (1 - alpha)R, which differs from Black's
    for i in _late(n3_trace, "B", False)[-3:] + _late(n3_trace, "W", True)[-1:]:
        prev, ball = n3_trace.moves[i - 1].ball, n3_trace.moves[i].ball
        slack = prev.radius - ball.radius
        edge = tuple(c + slack * x for c, x in zip(prev.center, unit))
        assert oracles.contains_ball(prev, Ball(edge, ball.radius))
        _replay_text(n3_trace, i, center=edge)  # replays to its own bytes
        axis = next(j for j, x in enumerate(unit) if x)
        beyond = list(edge)
        beyond[axis] += Fraction(1 if unit[axis] > 0 else -1, edge[axis].denominator)
        assert not oracles.contains_ball(prev, Ball(beyond, ball.radius))
        with pytest.raises(IllegalMove, match="leaves current ball") as ei:
            _replay_text(n3_trace, i, center=beyond)
        assert ei.value.move_index == i


def test_a_late_move_past_both_slack_and_law_leaves_the_ball_first(n3_trace):
    for i in _late(n3_trace, "W", True)[-1:] + _late(n3_trace, "B", False)[-1:]:
        prev, ball = n3_trace.moves[i - 1].ball, n3_trace.moves[i].ball
        center = list(prev.center)
        center[0] += prev.radius - ball.radius + HAIR * ball.radius
        for radius in (ball.radius * (1 + HAIR), ball.radius / 3):
            with pytest.raises(IllegalMove, match="leaves current ball") as ei:
                _replay_text(n3_trace, i, center=center, radius=radius)
            assert ei.value.move_index == i


# -- a loaded trace writes back the canonical text it was read from ----------


@pytest.fixture(scope="module")
def constructions(golden_seq):
    """Seeded constructions from the origin against random Black: the golden
    one in n = 1 (two blocks) and one block in n = 2 and 3."""
    traces = []
    for n in (1, 2, 3):
        if n == 1:
            seq, rho0, blocks = golden_seq, Fraction(1, 2), 2
        else:
            seq = make_sequence([(1, 0, 0)[:n], (3, 1, 0)[:n], (13, 2, 1)[:n]])
            rho0, blocks = Fraction(1, 64), 1
        trace, *_ = run_constructed_game(
            seq, Fraction(1, 4), Fraction(1, 2), 3, rho0, blocks, RandomBlack(seed=n), seed=n
        )
        traces.append(trace)
    return traces


def _balls(trace):
    return [trace.initial] + [m.ball for m in trace.moves]


def test_a_loaded_ball_keeps_the_very_strings_it_was_read_from(constructions):
    for trace in constructions:
        assert all(b._text is None for b in _balls(trace))  # a played trace keeps none
        obj = json.loads(trace.dumps())
        made = {id(s) for ball in [obj["initial"], *obj["moves"]]
                for s in [*ball["center"], ball["radius"]]}
        loaded = GameTrace.from_jsonable(obj)
        balls = _balls(loaded)
        for ball in balls:
            centers, radius = ball._text
            assert centers == tuple(map(rat_str, ball.center)) and radius == rat_str(ball.radius)
            assert {id(s) for s in [*centers, radius]} <= made  # never copies
        for i in _held(loaded):  # a held move keeps its source's center strings
            assert balls[i + 1]._text[0] is balls[i]._text[0]
        again = replay(loaded)  # shares the loaded records, text and all
        assert all(a.ball._text is b.ball._text for a, b in zip(again.moves, loaded.moves))
        assert again.dumps() == loaded.dumps() == trace.dumps()


def test_dumps_writes_the_kept_text_and_renders_no_value_again(constructions):
    # text no rational renders to can only have come from the kept strings
    loaded = GameTrace.loads(constructions[-1].dumps())
    for ball in (loaded.initial, loaded.moves[-1].ball):
        geometry._set_text(ball, (("C",) * ball.dimension, "R"))
    text = loaded.dumps()
    assert text.count('"C"') == 2 * loaded.params.dimension
    assert text.count('"radius": "R"') == 2


def _decimal(value):
    """value as a decimal string, or None when its expansion does not end."""
    d = value.denominator
    twos, fives = (d & -d).bit_length() - 1, 0
    while d % 5 ** (fives + 1) == 0:
        fives += 1
    if d != 2**twos * 5**fives:
        return None
    k = max(twos, fives)
    digits = str(abs(value.numerator) * 10**k // d).rjust(k + 1, "0")
    return f"{'-' if value < 0 else ''}{digits[:len(digits) - k]}.{digits[len(digits) - k:]}"


#: Spellings of a value that parse to it but are not rat_str's; None where a
#: form cannot spell the value.
RESPELLINGS = {
    "2/4": lambda v: f"{2 * v.numerator}/{2 * v.denominator}",
    "007/3": lambda v: f"{'-' if v < 0 else ''}00{abs(v.numerator)}/{v.denominator}",
    "-0/1": lambda v: "-0/1" if v == 0 else None,
    "1/02": lambda v: f"{v.numerator}/0{v.denominator}",
    "+1/2": lambda v: f"+{v.numerator}/{v.denominator}" if v >= 0 else None,
    " 1/2": lambda v: f" {v.numerator}/{v.denominator}",
    "0.5": _decimal,
    "3": lambda v: str(v.numerator) if v.denominator == 1 else None,
    "JSON int": lambda v: v.numerator if v.denominator == 1 else None,
}


#: a radius is positive and, in these games, never an integer
NOT_A_RADIUS = {"-0/1", "3", "JSON int"}


@pytest.mark.parametrize("form, field", [(form, "center") for form in RESPELLINGS] + [
    (form, "radius") for form in RESPELLINGS if form not in NOT_A_RADIUS])
def test_a_respelled_trace_writes_canonical_text_not_its_input(constructions, form, field):
    # each value the form can spell is respelled, consistently, so a held
    # move still repeats its center string for string; with field="radius"
    # the held moves keep canonical centers under a respelled radius
    respell, respelled = RESPELLINGS[form], 0
    for trace in constructions:
        text = trace.dumps()
        obj = json.loads(text)
        changed = []
        for raw, ball in zip([obj["initial"], *obj["moves"]], _balls(trace)):
            if field == "center":
                spelled = [respell(c) for c in ball.center]
                raw["center"] = [c if s is None else s for c, s in zip(raw["center"], spelled)]
            else:
                spelled = [respell(ball.radius)]
                raw["radius"] = raw["radius"] if spelled[0] is None else spelled[0]
            changed.append(any(s is not None for s in spelled))
        respelled += sum(changed)
        loaded = GameTrace.loads(json.dumps(obj))
        assert loaded.dumps() == oracles.trace_json(loaded) == text
        assert replay(loaded).dumps() == text
        for ball, was_changed in zip(_balls(loaded), changed):
            if was_changed:
                assert ball._text is None
            elif ball._text is not None:
                assert ball._text == (tuple(map(rat_str, ball.center)), rat_str(ball.radius))
    assert respelled


def test_a_held_move_under_a_respelled_radius_keeps_no_text(legal_trace):
    text = legal_trace.dumps()
    for i in _some_held(legal_trace):
        obj = json.loads(text)
        radius = legal_trace.moves[i].ball.radius
        obj["moves"][i]["radius"] = f"{3 * radius.numerator}/{3 * radius.denominator}"
        loaded = GameTrace.loads(json.dumps(obj))
        balls = _balls(loaded)
        assert balls[i]._text is not None and balls[i + 1]._text is None
        assert balls[i + 1].center is balls[i].center
        assert loaded.dumps() == replay(loaded).dumps() == text


def test_replay_refuses_a_canonical_forgery_that_keeps_its_text(legal_trace):
    text = legal_trace.dumps()
    balls = _balls(legal_trace)
    moved = [i for i in range(len(legal_trace.moves)) if balls[i + 1].center != balls[i].center]
    for i in (moved[0], moved[-1]):
        prev, ball = balls[i], balls[i + 1]
        center = list(ball.center)
        center[-1] = prev.center[-1] + prev.radius - ball.radius + TINY
        for field, forged, reason in [
            ("center", [rat_str(c) for c in center], "leaves current ball"),
            ("radius", rat_str(ball.radius * (1 + TINY)), "radius law violated"),
        ]:
            obj = json.loads(text)
            obj["moves"][i][field] = forged
            loaded = GameTrace.loads(json.dumps(obj))
            assert loaded.moves[i].ball._text is not None
            with pytest.raises(IllegalMove, match=reason) as ei:
                replay(loaded)
            assert ei.value.move_index == i


# -- run_game's recorded radius, note check and replay's carried center ------


def test_the_recorded_radius_stays_in_lowest_terms_over_200_moves():
    # alpha = 2/9, beta = 3/4 from 2^150/125: each Black move cancels 4 from
    # the numerator (gcd(R.num, b)) and 3 from the denominator (gcd(a, R.den))
    gp = GameParams(Fraction(2, 9), Fraction(3, 4), 2)
    start = Ball((Fraction(1, 3), Fraction(-2, 7)), Fraction(2**150, 125))
    white = lambda state: ((9, (1, 2)) if state.move_index % 4 == 0 else hold(state), None)  # noqa: E731
    tr = run_game(gp, start, white, concentric, 100)
    p, u = 2**150, 125
    cancels = {"gcd(R.num, b)": 0, "gcd(a, R.den)": 0}
    prev = start.radius
    for mv, (a, b) in zip(tr.moves, cycle([(2, 9), (3, 4)])):
        cancels["gcd(R.num, b)"] += math.gcd(prev.numerator, b) > 1
        cancels["gcd(a, R.den)"] += math.gcd(a, prev.denominator) > 1
        p, u = p * a, u * b
        r, want = mv.ball.radius, Fraction(p, u)
        assert (type(r), r.numerator, r.denominator, hash(r)) == (
            Fraction, want.numerator, want.denominator, hash(want))
        assert type(r.numerator) is int and type(r.denominator) is int
        prev = r
    assert cancels == {"gcd(R.num, b)": 100, "gcd(a, R.den)": 100}
    assert len(tr.moves) == 200 and replay(tr).dumps() == tr.dumps()


@pytest.mark.parametrize("turn", ["W", "B"])
def test_a_policys_note_is_checked_after_its_step(turn):
    class Label(str):
        pass

    def game(step, note):
        mover = lambda state: (step, note)  # noqa: E731
        white, black = (mover, concentric) if turn == "W" else (concentric, mover)
        return run_game(params_1d(), unit_ball_1d(), white, black, 1)

    for note in (5, b"x", ["x"]):
        with pytest.raises(ValueError, match="must be strings"):
            game((4, (1,)), note)
        with pytest.raises(IllegalMove, match="leaves current ball"):
            game((1, (1,)), note)  # the step is checked first
    tr = game((4, (1,)), Label("x"))
    assert [m.note for m in tr.moves if m.player == turn] == ["x"]


def _moved_then_held(rounds):
    """A 2-d game where White's first move is the only one that moves."""
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 2)
    start = Ball((Fraction(1, 3), Fraction(-2, 7)), Fraction(3, 5))
    white = lambda state: ((4, (1, 2)) if state.move_index == 0 else hold(state), None)  # noqa: E731
    return run_game(gp, start, white, concentric, rounds)


def _with_center(trace, index, center):
    """The trace cut after move `index`, that move's center replaced."""
    moves = list(trace.moves[:index + 1])
    moves[index] = oracles.replace(moves[index], ball=Ball(center, moves[index].ball.radius))
    return GameTrace(trace.params, trace.initial, moves)


def _on_slack(prev, ball, excess):
    """prev's center moved along the first axis by the slack and `excess`."""
    return (prev.center[0] + prev.radius - ball.radius + excess,) + prev.center[1:]


@pytest.mark.parametrize("index", [5, 6, 11])
def test_replay_rejects_a_move_just_past_its_slack_after_held_moves(index):
    # the center carried since move 0 is the one the slack is measured from
    tr = _moved_then_held(6)
    balls = [tr.initial] + [m.ball for m in tr.moves]
    assert all(b.center == balls[1].center for b in balls[1:])
    prev, ball = balls[index], balls[index + 1]
    assert replay(_with_center(tr, index, _on_slack(prev, ball, 0))).moves
    with pytest.raises(IllegalMove, match="leaves current ball") as ei:
        replay(_with_center(tr, index, _on_slack(prev, ball, TINY * ball.radius)))
    assert (ei.value.move_index, ei.value.player) == (index, "W" if index % 2 == 0 else "B")


def test_replay_rejects_a_moved_center_over_a_coprime_denominator():
    # every coordinate of the forged center is over 11^40 * 13, coprime to
    # the carried denominator (a power of two times 3 * 7)
    tr = _moved_then_held(4)
    index = 3
    prev, ball = tr.moves[index - 1].ball, tr.moves[index].ball
    q = 11**40 * 13
    assert all(math.gcd(c.denominator, q) == 1 for c in prev.center)
    near = tuple(Fraction(round(c * q), q) for c in prev.center)  # within sqrt(2)/(2q)
    assert all(c.denominator == q for c in near)
    assert replay(_with_center(tr, index, near)).moves[index].ball.center == near
    slack = prev.radius - ball.radius
    past = (Fraction(math.ceil((prev.center[0] + slack) * q) + 1, q), near[1])
    assert math.gcd(past[0].denominator, prev.center[0].denominator) == 1
    with pytest.raises(IllegalMove, match="leaves current ball") as ei:
        replay(_with_center(tr, index, past))
    assert (ei.value.move_index, ei.value.player) == (index, "B")


@pytest.mark.parametrize("excess", [TINY, Fraction(1, 3)])
def test_replay_rejects_a_bad_first_move_from_the_initial_ball(excess):
    tr = _moved_then_held(2)
    prev, ball = tr.initial, tr.moves[0].ball
    assert replay(_with_center(tr, 0, _on_slack(prev, ball, 0))).moves
    with pytest.raises(IllegalMove, match="leaves current ball") as ei:
        replay(_with_center(tr, 0, _on_slack(prev, ball, excess)))
    assert (ei.value.move_index, ei.value.player) == (0, "W")
