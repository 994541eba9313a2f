"""Opponent policies: random legal play, resonance-seeking play, replay.

All of them propose exact steps (q, v), the integers v over q in units of
the current radius (engine.Policy), built where each value is made; the
random one samples on an integer sub-lattice of the legal disk so that runs
are reproducible from the seed alone, with no float in the resulting trace.
"""
from __future__ import annotations

from collections.abc import Sequence
from operator import mul
from random import Random

from .engine import Step, full_step, hold
from .exact import over_common_denominator, rat
from .geometry import rational_unit_direction, same_dimension, scale, sub
from .resonance import ResonanceSequence


RANDOM_GRID = 512  # K: RandomBlack moves by integer multiples of 1/K of the max step
_DRAW_BITS = (2 * RANDOM_GRID + 1).bit_length()  # the bits randrange(2K + 1) draws


class RandomBlack:
    """Uniform-ish legal reply: center displaced by (grid point)/K * max step.

    Rejection-samples an integer vector k with |k| <= K = RANDOM_GRID and
    steps by ((1-beta) / K) * k radii — always legal, exactly representable.
    Each coordinate is drawn as CPython's randrange(2K + 1) draws it, by
    getrandbits(11) until the value is below 2K + 1 = 1025, less K: the
    same stream as randint(-K, K).  For beta = a/b the step is the
    integers c * (b - a) over b * K, not reduced.
    """

    def __init__(self, seed: int = 0):
        self.rng = Random(seed)

    def __call__(self, state) -> tuple[Step, None]:
        n = state.ball.dimension
        k = RANDOM_GRID
        draw = self.rng.getrandbits
        while True:
            pt = []
            for _ in range(n):
                c = draw(_DRAW_BITS)
                while c > 2 * k:
                    c = draw(_DRAW_BITS)
                pt.append(c - k)
            if sum(c * c for c in pt) <= k * k:
                break
        beta = state.params.beta
        num = beta.denominator - beta.numerator
        return (beta.denominator * k, tuple(c * num for c in pt)), None


class GreedyBlack:
    """Chase the nearest resonance hyperplane at full legal speed.

    Finds the family minimizing |residual| / |u| (exactly, on integers; ties
    to the smallest index), then steps the whole 1 - beta radii toward it
    along a rationalized unit direction (engine.full_step).  The step is
    cached per (family, side, beta).

    The center is read as the engine's integer form N/D
    (GameState.integer_center), so no call rebuilds a common denominator of
    the Fraction center.  A ball of another dimension than the families
    raises ValueError ("dimension mismatch") before any step is built.
    """

    def __init__(self, seq: ResonanceSequence):
        self.seq = seq
        # (r, u_r, |u_r|^2, bit length of |u_r|^2), read once
        self._families = [
            (r, seq.vector(r), nsq, nsq.bit_length())
            for r in range(1, len(seq) + 1)
            for nsq in (seq.norm_sq_of(r),)
        ]
        self._steps: dict[tuple[int, int, int, int], Step] = {}

    def _nearest_residual(self, den: int, nums: tuple[int, ...]) -> tuple[int, int, int]:
        """(r, s - a*den, den) for the nearest family r at the center
        nums/den: u_r·center = s/den and a is the nearest integer to s/den,
        rounded half to even as Fraction rounding does.

        dist_r^2 = res_r^2 / (den^2 nsq_r), so family r beats the best so far
        when res_r^2 nsq_best < res_best^2 nsq_r.  A product whose factors
        have bit lengths 2i and j lies in [2^(2i+j-3), 2^(2i+j)), so the two
        sides' bit lengths decide the comparison unless they are within 2 of
        each other; only then are the products formed.  A zero residual has
        no such lower bound and is the nearest possible: it ends the scan,
        since a later family can at most tie it."""
        best_r = None
        for r, u, nsq, nbits in self._families:
            a, res = divmod(sum(map(mul, u, nums)), den)
            twice = 2 * res
            if twice > den or (twice == den and a & 1):
                res -= den
            if not res:
                return r, 0, den
            res_bits = 2 * res.bit_length()
            if best_r is None:
                best_r, best_res, best_bits, best_nsq, best_nbits = r, res, res_bits, nsq, nbits
                continue
            lb, rb = res_bits + best_nbits, best_bits + nbits
            if lb + 2 < rb or (lb <= rb + 2 and res * res * best_nsq < best_res * best_res * nsq):
                best_r, best_res, best_bits, best_nsq, best_nbits = r, res, res_bits, nsq, nbits
        return best_r, best_res, den

    def __call__(self, state) -> tuple[Step, str]:
        den, nums = state.integer_center
        same_dimension(nums, self._families[0][1])  # the scan's zip would truncate
        r, res, _ = self._nearest_residual(den, nums)
        if not res:
            return hold(state), f"on family {r}"
        # step toward the plane: against the residual's sign
        side, beta = (-1 if res > 0 else 1), state.params.beta
        key = (r, side, beta.numerator, beta.denominator)
        step = self._steps.get(key)
        if step is None:
            direction = rational_unit_direction([side * x for x in self.seq.vector(r)])
            step = self._steps[key] = full_step(direction, beta)
        return step, f"chasing family {r}"


class Scripted:
    """Replay a fixed list of centers (then hold).  Notes ride along so a
    recorded trace can be reproduced byte-for-byte.  Each center c' becomes
    the step (c' - c) / R from the ball it is played in, as integers over
    their least common denominator."""

    def __init__(self, centers: Sequence[Sequence], notes: Sequence[str | None] | None = None):
        self.centers = [tuple(rat(c) for c in ctr) for ctr in centers]
        self.notes = list(notes) if notes is not None else None
        self.cursor = 0

    def __call__(self, state) -> tuple[Step, str | None]:
        i = self.cursor
        self.cursor += 1
        if i >= len(self.centers):
            return hold(state), None
        note = self.notes[i] if self.notes is not None and i < len(self.notes) else None
        step = scale(sub(self.centers[i], state.ball.center), 1 / state.ball.radius)
        return over_common_denominator(step), note
