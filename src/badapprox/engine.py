"""Two-player nested-ball game engine.

Black owns the outer ball; White replies inside it with radius alpha*rho,
Black replies inside that with radius beta*rho_white, and so on.  The engine
owns the radii entirely.  A policy is any callable ``state -> (step, note)``:
the step s is the move's displacement in units of the current radius R, so
the reply center is c + R*s (a zero step holds the center), and the note
says why (or None); the engine records it on the move.

Legality is one exact integer predicate, within_slack: the reply ball lies
inside the current one iff |c' - c| <= (1 - rho)*R, i.e. |s| <= 1 - rho,
decided on the step's integers over their common denominator, with the
slack as an integer pair (b - a, b) for rho = a/b.  A zero step is always
legal, because GameParams keeps 1 - rho > 0, so run_game skips the test for
it.  run_game keeps the center as an integer vector over one denominator
and folds each step into it with small-integer products; each recorded
coordinate, and each radius, is reduced once, by exact.fraction.  Every
round scales the radius by alpha*beta, so that denominator is mostly a
power of two, and fraction takes it out by a shift and runs a gcd only on
the small odd part: exact, because the two parts are coprime.  Each
GameState hands its policy that integer center as a tuple
(GameState.integer_center), so no policy rebuilds a common denominator of
the Fraction center.  A step object is converted and checked once per seat:
when a policy returns the very tuple of Fractions it returned last, as a
drive, a cached chase or hold does, its integer form is reused.  The trace
still records every move's absolute center and radius, so its file layout
does not depend on how the game was played.
A held center is rendered, parsed and checked once: dumps, loads and replay
reuse the previous move's center when a move repeats it, and replay skips
its slack test.  A loaded trace writes back the canonical text it was read
from: each ball that loads builds keeps its strings when every one is what
rat_str writes, and dumps copies them instead of rendering 1500-bit integers
again; replay shares the loaded records, so the replayed trace does too.
Any other spelling is rendered afresh, so every written copy is canonical.
replay decides the slack on unreduced integers and the radius law by
cross-multiplying, with no Fraction arithmetic.  It returns a new move list
that shares the input's records, each once it has passed every check;
records are frozen.
"""
from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import cycle, repeat
from operator import sub

from .exact import (
    Rat,
    Record,
    fraction,
    json_list,
    json_list_pieces,
    json_object,
    json_rat,
    json_text,
    over_common_denominator,
    rat,
    rat_str,
    rat_vec,
)
from .geometry import Ball, Vec, same_dimension


class IllegalMove(Exception):
    """A reply ball leaves the current ball; `center` is its absolute center."""

    def __init__(self, player: str, move_index: int, center: Vec, reason: str):
        self.player = player
        self.move_index = move_index
        self.center = center
        self.reason = reason
        super().__init__(f"illegal move by {player} at move {move_index}: {reason}")


class GameParams(Record, frozen=True):
    __slots__ = ("alpha", "beta", "dimension")

    def __init__(self, alpha: Rat, beta: Rat, dimension: int):
        alpha, beta = rat(alpha), rat(beta)
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must lie in (0,1), got {alpha}")
        if not 0 < beta < 1:
            raise ValueError(f"beta must lie in (0,1), got {beta}")
        if type(dimension) is not int or dimension < 1:  # a bool, float or string is refused
            raise ValueError(f"dimension must be an integer >= 1, got {dimension!r}")
        set_alpha, set_beta, set_dimension = self._setters
        set_alpha(self, alpha)
        set_beta(self, beta)
        set_dimension(self, dimension)

    def to_jsonable(self) -> dict:
        return {
            "alpha": rat_str(self.alpha),
            "beta": rat_str(self.beta),
            "dimension": self.dimension,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "GameParams":
        return cls(json_rat(obj["alpha"], "alpha"), json_rat(obj["beta"], "beta"), obj["dimension"])


class _Form:
    """The slot where a GameState keeps its center's integer form
    (GameState.integer_center).  It is not a field of the record: equality,
    hash, repr, copy and pickle never see it."""

    __slots__ = ("_form",)


_set_form = _Form._form.__set__


class GameState(Record, _Form, frozen=True):
    """What a policy sees: the ball it must reply inside, and whose turn it
    is.  move_index is 0-based and counts half-moves (W, B, W, B, ...); turn
    is "W" or "B"."""

    __slots__ = ("params", "ball", "move_index", "turn")

    @property
    def integer_center(self) -> tuple[int, tuple[int, ...]]:
        """(D, N): the ball's center as the integers N over a common
        denominator D > 0, not always the least one, so a policy may only
        read from it what is the same over every common denominator.
        run_game hands out the form its fold already holds; a state built
        by hand computes the least one once, on the first read."""
        try:
            return self._form
        except AttributeError:
            den, nums = over_common_denominator(self.ball.center)
            form = den, tuple(nums)
            _set_form(self, form)
            return form


class MoveRecord(Record, frozen=True):
    __slots__ = ("player", "ball", "note")

    def __init__(self, player: str, ball: Ball, note: str | None = None):
        # dumps writes both as JSON strings; a trace file or a script may hold anything
        if not isinstance(player, str) or not isinstance(note, (str, type(None))):
            raise ValueError(f"player and note must be strings (note may be None), "
                             f"got {player!r} and {note!r}")
        set_player, set_ball, set_note = self._setters
        set_player(self, player)
        set_ball(self, ball)
        set_note(self, note)

    def to_jsonable(self) -> dict:
        obj = {"player": self.player}
        obj.update(self.ball.to_jsonable())
        obj["note"] = self.note
        return obj


class GameTrace(Record):
    __slots__ = ("params", "initial", "moves")

    def __init__(self, params: GameParams, initial: Ball, moves: list[MoveRecord] | None = None):
        # run_game, replay and loads all build one
        if initial.dimension != params.dimension:
            raise ValueError("initial ball dimension does not match params")
        self.params = params
        self.initial = initial
        self.moves = [] if moves is None else moves

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
        """The bytes of ``json_text(self.to_jsonable())``, with the move list
        written here: a ball that kept the canonical text it was loaded from
        (Ball.from_jsonable) is written from that text, any other is
        rendered by rat_str, and a held center is rendered once."""
        initial = self.initial
        parts = [
            '{\n  "initial": {\n    "center": ', *json_list_pieces(initial._center_strs(), 4),
            f',\n    "radius": "{initial._radius_str()}"\n  }},\n  "moves": ',
        ]
        if self.moves:
            parts.append("[\n")
            center = None  # the initial center is written at another indent
            for m in self.moves:
                ball = m.ball
                if ball.center != center:  # a held center is rendered once
                    center = ball.center
                    center_parts = json_list_pieces(ball._center_strs(), 6)
                parts += (
                    '    {\n      "center": ', *center_parts,
                    ',\n      "note": ', json_text(m.note), ',\n      "player": ', json_text(m.player),
                    ',\n      "radius": "', ball._radius_str(), '"\n    },\n',
                )
            parts[-1] = '"\n    }\n  ]'
        else:
            parts.append("[]")
        parts += (',\n  "params": ', json_text(self.params.to_jsonable(), 2), "\n}")
        # the parts are references, to kept text or to one rendering of each
        # center, so the join makes the one copy of the text
        return "".join(parts)

    @classmethod
    def from_jsonable(cls, obj: dict) -> "GameTrace":
        """A move whose "center" list equals the previous one's (the initial
        ball's, for move 0) is read with that ball held: Ball.from_jsonable
        reuses its parsed center and the center strings it kept when the list
        holds only strings.  Radius, player and note are read on every move.
        A ball read from canonical strings keeps them, and dumps writes them
        back."""
        obj = json_object(obj, "trace")
        params = GameParams.from_jsonable(json_object(obj["params"], "params"))
        initial = Ball.from_jsonable(json_object(obj["initial"], "initial"))
        raw, held = obj["initial"]["center"], initial
        moves = []
        for i, m in enumerate(json_list(obj["moves"], "moves")):
            m = json_object(m, f"move {i}")
            if m["center"] == raw:
                ball = Ball.from_jsonable(m, held)
            else:
                ball = held = Ball.from_jsonable(m)
                raw = m["center"]
            moves.append(MoveRecord(m["player"], ball, m.get("note")))
        return cls(params, initial, moves)

    @classmethod
    def loads(cls, text: str) -> "GameTrace":
        return cls.from_jsonable(json.loads(text))


def within_slack(disp: Iterable[int], den: int, p: int, q: int) -> bool:
    """Exact: does the displacement disp/den (integers over den > 0) have
    length at most the slack p/q (q > 0, p/q in any terms)?  On squares,
    sum d_j^2 * q^2 <= p^2 * den^2.  A negative slack holds nothing."""
    if p < 0:
        return False
    return sum(d * d for d in disp) * q * q <= p * p * den * den


#: A policy maps the state to its step, in units of the current radius, and
#: a note (or None).
Policy = Callable[[GameState], tuple[Sequence, str | None]]


@functools.cache
def _zero(n: int) -> Vec:
    return (Fraction(0),) * n


def hold(state: GameState) -> Vec:
    """The zero step: the reply keeps the current center.  One tuple per
    dimension is shared by every call."""
    return _zero(state.ball.dimension)


def run_game(
    params: GameParams,
    initial: Ball,
    white: Policy,
    black: Policy,
    rounds: int,
) -> GameTrace:
    """Play `rounds` full rounds (White then Black) from the initial ball.

    Raises IllegalMove as soon as a policy proposes a step longer than
    1 - rho (rho = alpha for White, beta for Black), i.e. a reply ball not
    contained in the current ball.  Nothing is clamped.

    The center is N / (U * lam): U the unreduced radius denominator
    den(rho0) * den(alpha)^w * den(beta)^b (the radius is P / U), and lam a
    multiple of the initial center's and of every step's denominator.  Each
    state hands that (U * lam, N) to its policy as its integer_center.  A
    step v/q moves it to N * b * (lam'/lam) + P * v * b * (lam'/q) over
    U * b * lam', lam' = lcm(lam, q) and rho = a/b: products of integers, no
    gcd.  Each recorded coordinate is reduced once, and each radius P/U
    too, by exact.fraction.  A step is legal iff within_slack holds on v/q
    with slack (b - a)/b.  A zero step is always legal (GameParams keeps
    1 - rho > 0), so it skips the slack test and reuses the current center.

    A step is checked once per seat: when a policy returns the very tuple
    it returned last, its (q, v) is reused with no conversion and no test.
    Only a tuple that rat_vec returns unchanged is remembered; it holds
    only Fractions, so it cannot have changed.  Any other step, a list
    among them, is converted and checked on every call.
    """
    trace = GameTrace(params, initial)
    current = initial
    p, u = initial.radius.numerator, initial.radius.denominator
    lam, nums = over_common_denominator(initial.center)
    nums = tuple(x * u for x in nums)
    den = u * lam
    # per seat: turn, policy, a, b, and the last remembered step with its
    # (q, v), None for a zero step
    seats = [[turn, policy, rho.numerator, rho.denominator, None, None]
             for turn, policy, rho in (("W", white, params.alpha), ("B", black, params.beta))]
    move_index = 0
    for _ in range(rounds):
        for seat in seats:
            turn, policy, a, b, known, form = seat
            state = GameState(params, current, move_index, turn)
            _set_form(state, (den, nums))
            step, note = policy(state)
            if step is not known:
                checked = rat_vec(step)
                same_dimension(checked, nums)
                form = None
                if any(checked):
                    form = over_common_denominator(checked)
                    if not within_slack(form[1], form[0], b - a, b):
                        center = tuple(c + current.radius * s
                                       for c, s in zip(current.center, checked))
                        raise IllegalMove(turn, move_index, center, "reply ball leaves current ball")
                if checked is step:
                    seat[4:] = step, form
            u *= b
            if form is None:
                nums = tuple(x * b for x in nums)
                den *= b
                center = current.center
            else:
                q, v = form
                grown = lam if lam % q == 0 else lam * (q // math.gcd(lam, q))
                keep, push = b * (grown // lam), p * b * (grown // q)
                nums = tuple(x * keep + y * push for x, y in zip(nums, v))
                lam = grown
                den = u * lam
                center = tuple(map(fraction, nums, repeat(den)))
            p *= a
            current = Ball(center, fraction(p, u))
            trace.moves.append(MoveRecord(turn, current, note))
            move_index += 1
    return trace


def concentric(state: GameState) -> tuple[Vec, None]:
    """The lazy policy: keep the current center."""
    return hold(state), None


def replay(trace: GameTrace) -> GameTrace:
    """Re-run a trace through the engine, re-checking every containment.

    With rho = a/b and R = p/q the current radius, each reply center c'
    must lie within slack (1 - rho)*R = (b - a)*p / (b*q) of the current
    center c: within_slack on c' - c over the two centers' common
    denominator, with that slack as unreduced integers.  A held center
    (c' == c) skips the test: GameParams keeps 1 - rho > 0, so a zero
    displacement is always legal.  The reply radius r must be rho*R, checked
    cross-multiplied: r.num * b * q == a * p * r.den.  Returns a new
    trace, equal to the input iff the input is legal and internally
    consistent; its move list is new, and holds the input's records
    themselves, each once it has passed every check.
    """
    params = trace.params
    n = params.dimension
    current = trace.initial
    out = GameTrace(params, trace.initial)
    turns = cycle([("W", params.alpha.numerator, params.alpha.denominator),
                   ("B", params.beta.numerator, params.beta.denominator)])
    for i, (mv, (turn, a, b)) in enumerate(zip(trace.moves, turns)):
        center = mv.ball.center
        if mv.player != turn:
            raise IllegalMove(mv.player, i, center, "out-of-turn move")
        same_dimension(center, current.center)
        p, q = current.radius.numerator, current.radius.denominator
        if center != current.center:
            den, nums = over_common_denominator(center + current.center)
            if not within_slack(map(sub, nums[:n], nums[n:]), den, (b - a) * p, b * q):
                raise IllegalMove(mv.player, i, center, "reply ball leaves current ball")
        r = mv.ball.radius
        if r.numerator * b * q != a * p * r.denominator:
            raise IllegalMove(mv.player, i, center, "radius law violated")
        current = mv.ball
        out.moves.append(mv)  # records are frozen: the verified one is shared
    return out
