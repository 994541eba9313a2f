"""Two-player nested-ball game engine.

Black owns the outer ball; White replies inside it with radius alpha*rho,
Black replies inside that with radius beta*rho_white, and so on.  The engine
owns the radii entirely.  A policy is any callable ``state -> ((q, v), note)``:
the step is the move's displacement v/q in units of the current radius R,
q a positive int and v a sequence of n ints, in any common terms (the order
(den, nums) of exact.over_common_denominator), so the reply center is
c + R*v/q (a zero v holds the center), and the note says why (or None); the
engine records it on the move.  A policy builds the integers where it makes
its value, and run_game reads every step in this one form.

Legality is one exact integer predicate, within_slack: the reply ball lies
inside the current one iff |c' - c| <= (1 - rho)*R, i.e. |v/q| <= 1 - rho,
decided on v and q with the slack as an integer pair (b - a, b) for
rho = a/b.  A zero step is always legal, because GameParams keeps
1 - rho > 0, so run_game skips the test for it.  run_game keeps the center
as an integer vector over one denominator and folds each step into it with
small-integer products.  Every round scales the radius by alpha*beta, so
that denominator is mostly a power of two: a moved center's coordinates
are reduced by exact.fractions_over, which splits the shared denominator
into 2^k * o once per move and runs a gcd only on the small odd part o.
The recorded radius is kept in lowest terms move by move, by two gcds
against the small terms of rho.  run_game builds each Ball and MoveRecord
from these values, which it made and checked itself, by setting their
slots; the policy's note, the one value it did not make, is type-checked
as MoveRecord checks it.  Each GameState hands its policy that integer
center as a tuple (GameState.integer_center), so no policy rebuilds a
common denominator of the Fraction center.  The trace still records every
move's absolute center and radius, so its file layout does not depend on
how the game was played.
A held center is rendered, parsed and checked once: dumps, loads and replay
reuse the previous move's center when a move repeats it, and replay skips
its slack test.  A loaded trace writes back the canonical text it was read
from: each ball that loads builds keeps its strings when every one is what
rat_str writes, and dumps copies them instead of rendering 1500-bit integers
again; replay shares the loaded records, so the replayed trace does too.
Any other spelling is rendered afresh, so every written copy is canonical.
replay carries the current center as integers over its least common
denominator, brings each moved center to its own once and meets the two
over their lcm, decides the slack there on unreduced integers and the
radius law by cross-multiplying, with no Fraction arithmetic.  It returns
a new move list that shares the input's records, each once it has passed
every check; records are frozen.
"""
from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import cycle

from .exact import (
    Rat,
    Record,
    _coprime,
    fractions_over,
    json_list,
    json_list_pieces,
    json_object,
    json_rat,
    json_text,
    over_common_denominator,
    rat,
    rat_str,
)
from .geometry import Ball, Direction, Vec, _set_text, same_dimension


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


def _check_labels(player, note) -> None:
    """dumps writes a move's player and note as JSON strings; a trace file,
    a script or a policy may hold anything."""
    if not isinstance(player, str) or not isinstance(note, (str, type(None))):
        raise ValueError(f"player and note must be strings (note may be None), "
                         f"got {player!r} and {note!r}")


class MoveRecord(Record, frozen=True):
    __slots__ = ("player", "ball", "note")

    def __init__(self, player: str, ball: Ball, note: str | None = None):
        _check_labels(player, note)
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


_INT_ONLY = {int}


def within_slack(disp: Iterable[int], den: int, p: int, q: int) -> bool:
    """Exact: does the displacement disp/den (integers over den > 0) have
    length at most the slack p/q (q > 0, p/q in any terms)?  On squares,
    sum d_j^2 * q^2 <= p^2 * den^2.  A negative slack holds nothing."""
    if p < 0:
        return False
    return sum(d * d for d in disp) * q * q <= p * p * den * den


#: A step: the displacement v/q radii as (q, v), q > 0 and v n ints.
Step = tuple[int, Sequence[int]]
#: A policy maps the state to its step and a note (or None).
Policy = Callable[[GameState], tuple[Step, str | None]]


@functools.cache
def _zero(n: int) -> Step:
    return 1, (0,) * n


def hold(state: GameState) -> Step:
    """The zero step (1, (0, ..., 0)): the reply keeps the current center.
    One pair per dimension is shared by every call."""
    return _zero(state.ball.dimension)


def full_step(direction: Direction, rho: Fraction) -> Step:
    """The longest step of a reply of ratio rho = a/b, 1 - rho radii along
    the exact unit direction (v, L): (L b, (b - a) v) divided by its gcd."""
    v, el = direction
    q, push = el * rho.denominator, rho.denominator - rho.numerator
    g = math.gcd(q, push * math.gcd(*v))  # the gcd of q and every push * v_i
    return q // g, [push * x // g for x in v]


#: run_game builds each Ball and MoveRecord from values it made and checked
#: itself: a bare instance whose slots it sets, past the constructors' checks.
_new = object.__new__
_set_center, _set_radius = Ball._setters
_set_player, _set_ball, _set_note = MoveRecord._setters


def run_game(
    params: GameParams,
    initial: Ball,
    white: Policy,
    black: Policy,
    rounds: int,
) -> GameTrace:
    """Play `rounds` full rounds (White then Black) from the initial ball.

    Each step (q, v) must be an int q > 0 and n ints v, or run_game raises
    TypeError (a float, bool, Fraction or string) or ValueError.  It raises
    IllegalMove as soon as a policy proposes a step longer than 1 - rho
    (rho = alpha for White, beta for Black), i.e. a reply ball not
    contained in the current ball.  Nothing is clamped.  A note that is not
    a string or None raises MoveRecord's ValueError, once the step has
    passed.  Each Ball and MoveRecord is built from values run_game made
    and checked itself, as a bare instance whose slots it sets.

    The center is N / (u * lam): u the unreduced radius denominator
    den(rho0) * den(alpha)^w * den(beta)^b (the radius is p / u), and lam a
    multiple of the initial center's and of every step's denominator.  Each
    state hands that (u * lam, N) to its policy as its integer_center.  A
    step v/q moves it to N * b * (lam'/lam) + p * v * b * (lam'/q) over
    u * b * lam', lam' = lcm(lam, q) and rho = a/b: products of integers, no
    gcd.  The recorded coordinates are reduced by exact.fractions_over, one
    2-adic split of the shared denominator per move.  The recorded radius
    r_num/r_den is kept in lowest terms beside p/u: with a/b in lowest terms
    too, gcd(r_num a, r_den b) = gcd(r_num, b) * gcd(a, r_den), two gcds
    against a small int, and no division at all when both are 1.
    A step is legal iff within_slack holds on v/q with slack (b - a)/b;
    every nonzero step is tested on every call.  A zero step is always
    legal (GameParams keeps 1 - rho > 0), so it skips the slack test and
    reuses the current center.
    """
    trace = GameTrace(params, initial)
    moves = trace.moves
    current = initial
    r_num, r_den = initial.radius.numerator, initial.radius.denominator
    p, u = r_num, r_den
    lam, nums = over_common_denominator(initial.center)
    nums = tuple(x * u for x in nums)
    den = u * lam
    seats = [(turn, policy, rho.numerator, rho.denominator)
             for turn, policy, rho in (("W", white, params.alpha), ("B", black, params.beta))]
    gcd, new = math.gcd, _new
    move_index = 0
    for _ in range(rounds):
        for turn, policy, a, b in seats:
            state = GameState(params, current, move_index, turn)
            _set_form(state, (den, nums))
            (q, v), note = policy(state)
            if type(q) is not int or not set(map(type, v)) <= _INT_ONLY:
                raise TypeError(f"a step (q, v) holds ints only, got "
                                f"{[type(x).__name__ for x in (q, *v)]}")
            if q <= 0:
                raise ValueError(f"a step's denominator must be positive, got {q}")
            same_dimension(v, nums)
            u *= b
            if any(v):
                if not within_slack(v, q, b - a, b):
                    center = tuple(c + current.radius * Fraction(x, q)
                                   for c, x in zip(current.center, v))
                    raise IllegalMove(turn, move_index, center, "reply ball leaves current ball")
                grown = lam if lam % q == 0 else lam * (q // gcd(lam, q))
                keep, push = b * (grown // lam), p * b * (grown // q)
                nums = tuple(x * keep + y * push for x, y in zip(nums, v))
                lam = grown
                den = u * lam
                center = fractions_over(nums, den)
            else:
                nums = tuple(x * b for x in nums)
                den *= b
                center = current.center
            if note is not None and type(note) is not str:
                _check_labels(turn, note)  # raises unless note is a str subclass
            p *= a
            g, h = gcd(r_num, b), gcd(a, r_den)
            if g == h == 1:  # a big int divided even by 1 costs a pass over its digits
                r_num, r_den = r_num * a, r_den * b
            else:
                r_num, r_den = r_num // g * (a // h), r_den // h * (b // g)
            current = new(Ball)
            _set_center(current, center)
            _set_radius(current, _coprime(r_num, r_den))
            _set_text(current, None)
            record = new(MoveRecord)
            _set_player(record, turn)
            _set_ball(record, current)
            _set_note(record, note)
            moves.append(record)
            move_index += 1
    return trace


def concentric(state: GameState) -> tuple[Step, None]:
    """The lazy policy: keep the current center."""
    return hold(state), None


def replay(trace: GameTrace) -> GameTrace:
    """Re-run a trace through the engine, re-checking every containment.

    With rho = a/b and R = p/q the current radius, each reply center c'
    must lie within slack (1 - rho)*R = (b - a)*p / (b*q) of the current
    center c: within_slack on c' - c over a common denominator of the two
    centers, with that slack as unreduced integers.  The current center is
    carried as integers N over its least common denominator D; a moved
    center c' is brought to its own, N'/D', once, and the two meet over
    lcm(D, D') = D * D'/g, g = gcd(D, D'), where c' - c is
    (N' * (D/g) - N * (D'/g)) / lcm(D, D').  N'/D' is then carried to the
    next move.  A held center (c' == c) skips the test: GameParams keeps
    1 - rho > 0, so a zero displacement is always legal.  The reply radius
    r must be rho*R, checked cross-multiplied: r.num * b * q == a * p * r.den.
    Returns a new trace, equal to the input iff the input is legal and
    internally consistent; its move list is new, and holds the input's
    records themselves, each once it has passed every check.
    """
    params = trace.params
    current = trace.initial
    out = GameTrace(params, current)
    den, nums = over_common_denominator(current.center)
    turns = cycle([("W", params.alpha.numerator, params.alpha.denominator),
                   ("B", params.beta.numerator, params.beta.denominator)])
    for i, (mv, (turn, a, b)) in enumerate(zip(trace.moves, turns)):
        center = mv.ball.center
        if mv.player != turn:
            raise IllegalMove(mv.player, i, center, "out-of-turn move")
        same_dimension(center, current.center)
        p, q = current.radius.numerator, current.radius.denominator
        if center != current.center:
            moved_den, moved = over_common_denominator(center)
            g = math.gcd(den, moved_den)
            scale_moved, scale_held = den // g, moved_den // g
            disp = [x * scale_moved - y * scale_held for x, y in zip(moved, nums)]
            if not within_slack(disp, den * scale_held, (b - a) * p, b * q):
                raise IllegalMove(mv.player, i, center, "reply ball leaves current ball")
            den, nums = moved_den, moved
        r = mv.ball.radius
        if r.numerator * b * q != a * p * r.denominator:
            raise IllegalMove(mv.player, i, center, "radius law violated")
        current = mv.ball
        out.moves.append(mv)  # records are frozen: the verified one is shared
    return out
