"""Opponent policies: random legal play, resonance-seeking play, replay.

All of them propose exact rational steps, in units of the current radius
(engine.Policy); the random one samples on an integer sub-lattice of the
legal disk so that runs are reproducible from the seed alone, with no float
in the resulting trace.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul
from random import Random
from typing import Optional, Sequence

from .engine import hold
from .exact import over_common_denominator, rat, round_half_even
from .geometry import Vec, rational_unit_direction, scale, sub
from .resonance import ResonanceSequence


RANDOM_GRID = 512  # K: RandomBlack moves by integer multiples of 1/K of the max step


class RandomBlack:
    """Uniform-ish legal reply: center displaced by (grid point)/K * max step.

    Rejection-samples an integer vector k with |k| <= K = RANDOM_GRID and
    steps by ((1-beta) / K) * k radii — always legal, exactly representable.
    Each coordinate draws randrange(2K + 1) - K, the same stream as
    randint(-K, K), and is built as one Fraction c * (b - a) / (b * K) for
    beta = a/b.
    """

    def __init__(self, seed: int = 0):
        self.rng = Random(seed)

    def __call__(self, state) -> tuple[Vec, None]:
        n = state.ball.dimension
        k = RANDOM_GRID
        draw = self.rng.randrange
        while True:
            pt = [draw(2 * k + 1) - k for _ in range(n)]
            if sum(c * c for c in pt) <= k * k:
                break
        beta = state.params.beta
        num, den = beta.denominator - beta.numerator, beta.denominator * k
        return tuple(Fraction(c * num, den) for c in pt), None


class GreedyBlack:
    """Chase the nearest resonance hyperplane at full legal speed.

    Finds the family minimizing |residual| / |u| (compared exactly via
    cross-multiplied squares; ties to the smallest index), then steps the
    whole 1 - beta radii toward it along a rationalized unit direction.
    The step is cached per (family, side, beta).
    """

    def __init__(self, seq: ResonanceSequence):
        self.seq = seq
        self._steps: dict[tuple[int, int, Fraction], Vec] = {}

    def _nearest_residual(self, center: Vec) -> tuple[int, int, int]:
        """(r, s - a*L, L) for the nearest family r: with the center over
        one common denominator L, u_r·center = s/L and a is the nearest
        integer to s/L, rounded half to even as Fraction rounding does.
        dist_r^2 = res_r^2 / (L^2 nsq_r), so families compare on
        res^2 * nsq of the other as plain integers."""
        den, nums = over_common_denominator(center)
        best_r = best_res = None
        for r in range(1, len(self.seq) + 1):
            _, rem = round_half_even(sum(map(mul, self.seq.vector(r), nums)), den)
            if best_r is None or (
                rem * rem * self.seq.norm_sq_of(best_r)
                < best_res * best_res * self.seq.norm_sq_of(r)
            ):
                best_r, best_res = r, rem
        return best_r, best_res, den

    def __call__(self, state) -> tuple[Vec, str]:
        r, res, _ = self._nearest_residual(state.ball.center)
        if res == 0:
            return hold(state), f"on family {r}"
        # step toward the plane: against the residual's sign
        side, beta = (-1 if res > 0 else 1), state.params.beta
        step = self._steps.get((r, side, beta))
        if step is None:
            direction = rational_unit_direction(scale(self.seq.vector(r), side))
            step = self._steps[r, side, beta] = scale(direction, 1 - beta)
        return step, f"chasing family {r}"


class Scripted:
    """Replay a fixed list of centers (then hold).  Notes ride along so a
    recorded trace can be reproduced byte-for-byte.  Each center c' becomes
    the step (c' - c) / R from the ball it is played in."""

    def __init__(self, centers: Sequence[Sequence], notes: Optional[Sequence[Optional[str]]] = None):
        self.centers = [tuple(rat(c) for c in ctr) for ctr in centers]
        self.notes = list(notes) if notes is not None else None
        self.cursor = 0

    def __call__(self, state) -> tuple[Vec, Optional[str]]:
        i = self.cursor
        self.cursor += 1
        if i >= len(self.centers):
            return hold(state), None
        note = self.notes[i] if self.notes is not None and i < len(self.notes) else None
        return scale(sub(self.centers[i], state.ball.center), 1 / state.ball.radius), note
