"""Two-player nested-ball game engine.

Black owns the outer ball; White replies inside it with radius alpha*rho,
Black replies inside that with radius beta*rho_white, and so on.  The engine
owns the radii entirely — policies propose centers only — and every
containment check is exact rational arithmetic.  A policy is any callable
``state -> (center, note)``: the proposed center, and a short note saying
why (or None), which the engine records on the move.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Sequence

from .exact import json_rat, rat, rat_str
from .geometry import Ball, Vec


class IllegalMove(Exception):
    """A policy proposed a center whose forced ball leaves the current ball."""

    def __init__(self, player: str, move_index: int, center: Vec, reason: str):
        self.player = player
        self.move_index = move_index
        self.center = center
        self.reason = reason
        super().__init__(f"illegal move by {player} at move {move_index}: {reason}")


@dataclass(frozen=True)
class GameParams:
    alpha: Fraction
    beta: Fraction
    dimension: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", rat(self.alpha))
        object.__setattr__(self, "beta", rat(self.beta))
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def to_jsonable(self) -> dict:
        return {
            "alpha": rat_str(self.alpha),
            "beta": rat_str(self.beta),
            "dimension": self.dimension,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "GameParams":
        dimension = obj["dimension"]
        if type(dimension) is not int:  # a bool, float or string is a forgery
            raise ValueError(f"dimension must be a JSON integer, got {dimension!r}")
        return cls(json_rat(obj["alpha"], "alpha"), json_rat(obj["beta"], "beta"), dimension)


@dataclass(frozen=True)
class GameState:
    """What a policy sees: the ball it must reply inside, and whose turn it is."""

    params: GameParams
    ball: Ball
    move_index: int  # 0-based, counts half-moves (W, B, W, B, ...)
    turn: str  # "W" or "B"


@dataclass(frozen=True)
class MoveRecord:
    player: str
    ball: Ball
    note: Optional[str] = None

    def __post_init__(self):
        # dumps writes both as JSON strings; a trace file or a script may hold anything
        if not isinstance(self.player, str) or not isinstance(self.note, (str, type(None))):
            raise ValueError(f"player and note must be strings (note may be None), "
                             f"got {self.player!r} and {self.note!r}")

    def to_jsonable(self) -> dict:
        obj = {"player": self.player}
        obj.update(self.ball.to_jsonable())
        obj["note"] = self.note
        return obj

    @classmethod
    def from_jsonable(cls, obj: dict) -> "MoveRecord":
        return cls(obj["player"], Ball.from_jsonable(obj), obj.get("note"))


@dataclass
class GameTrace:
    params: GameParams
    initial: Ball
    moves: list[MoveRecord] = field(default_factory=list)

    def __post_init__(self):  # run_game, replay and loads all build one
        if self.initial.dimension != self.params.dimension:
            raise ValueError("initial ball dimension does not match params")

    @property
    def final_ball(self) -> Ball:
        """The last (hence smallest) ball; every later point of the
        alternation, and the limit point, lies inside it."""
        return self.moves[-1].ball if self.moves else self.initial

    def to_jsonable(self) -> dict:
        return {
            "params": self.params.to_jsonable(),
            "initial": self.initial.to_jsonable(),
            "moves": [m.to_jsonable() for m in self.moves],
        }

    def dumps(self) -> str:
        """The bytes of ``json.dumps(self.to_jsonable(), indent=2, sort_keys=True)``,
        written directly: the layout is fixed, and any ``indent`` sends
        ``json`` to its pure-Python encoder."""
        p = self.params
        head = (
            f'{{\n  "initial": {{\n    "center": {_rats_json(self.initial.center, 4)},\n'
            f'    "radius": "{rat_str(self.initial.radius)}"\n  }},\n  "moves": '
        )
        tail = (
            f',\n  "params": {{\n    "alpha": "{rat_str(p.alpha)}",\n    "beta": "{rat_str(p.beta)}",\n'
            f'    "dimension": {p.dimension}\n  }}\n}}'
        )
        if not self.moves:
            return f"{head}[]{tail}"
        moves = ",\n".join(
            f'    {{\n      "center": {_rats_json(m.ball.center, 6)},\n'
            f'      "note": {_str_json(m.note)},\n'
            f'      "player": {_str_json(m.player)},\n'
            f'      "radius": "{rat_str(m.ball.radius)}"\n    }}'
            for m in self.moves
        )
        return f"{head}[\n{moves}\n  ]{tail}"

    @classmethod
    def from_jsonable(cls, obj: dict) -> "GameTrace":
        return cls(
            GameParams.from_jsonable(obj["params"]),
            Ball.from_jsonable(obj["initial"]),
            [MoveRecord.from_jsonable(m) for m in obj["moves"]],
        )

    @classmethod
    def loads(cls, text: str) -> "GameTrace":
        return cls.from_jsonable(json.loads(text))


def _str_json(s: Optional[str]) -> str:
    """A note or player as json.dumps writes it (ASCII-escaped, None as null)."""
    return "null" if s is None else encode_basestring_ascii(s)


def _rats_json(values: Sequence[Fraction], indent: int) -> str:
    """A list of "p/q" strings as json.dumps(indent=2) writes it, the closing
    bracket `indent` spaces in."""
    if not values:
        return "[]"
    pad = " " * indent
    items = f",\n{pad}  ".join(f'"{v.numerator}/{v.denominator}"' for v in values)
    return f"[\n{pad}  {items}\n{pad}]"


def _half_move(params: GameParams, current: Ball, turn: str, center: Sequence, index: int) -> Ball:
    """The reply at `center` with the forced radius, alpha or beta times the
    current one; IllegalMove unless it lies inside `current`."""
    reply = Ball(center, (params.alpha if turn == "W" else params.beta) * current.radius)
    if not current.contains_ball(reply):
        raise IllegalMove(turn, index, reply.center, "reply ball leaves current ball")
    return reply


#: A policy maps the state to its proposed center and a note (or None).
Policy = Callable[[GameState], tuple[Sequence, Optional[str]]]


def run_game(
    params: GameParams,
    initial: Ball,
    white: Policy,
    black: Policy,
    rounds: int,
) -> GameTrace:
    """Play `rounds` full rounds (White then Black) from the initial ball.

    Raises IllegalMove as soon as a policy proposes a center whose forced
    ball is not contained in the current ball.  Nothing is clamped.
    """
    trace = GameTrace(params, initial)
    current = initial
    move_index = 0
    for _ in range(rounds):
        for turn, policy in (("W", white), ("B", black)):
            state = GameState(params, current, move_index, turn)
            center, note = policy(state)
            reply = _half_move(params, current, turn, center, move_index)
            trace.moves.append(MoveRecord(turn, reply, note))
            current = reply
            move_index += 1
    return trace


def concentric(state: GameState) -> tuple[Vec, None]:
    """The lazy policy: keep the current center."""
    return state.ball.center, None


def replay(trace: GameTrace) -> GameTrace:
    """Re-run a trace through the engine, re-checking every containment.

    Returns a freshly constructed trace (equal to the input iff the input is
    legal and internally consistent, including the radius law).
    """
    params = trace.params
    current = trace.initial
    out = GameTrace(params, trace.initial)
    expected_turn = "W"
    for i, mv in enumerate(trace.moves):
        if mv.player != expected_turn:
            raise IllegalMove(mv.player, i, mv.ball.center, "out-of-turn move")
        rebuilt = _half_move(params, current, mv.player, mv.ball.center, i)
        if rebuilt.radius != mv.ball.radius:
            raise IllegalMove(mv.player, i, mv.ball.center, "radius law violated")
        out.moves.append(MoveRecord(mv.player, rebuilt, mv.note))
        current = rebuilt
        expected_turn = "B" if expected_turn == "W" else "W"
    return out
