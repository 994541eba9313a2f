"""The constructing player: block schedule execution and its certificate.

One block = avoidance_rounds full rounds.  At each block start the strategy
gathers, for every resonance family the schedule assigns to that block, the
integer-offset hyperplane(s) currently reachable by the ball, then runs the
avoidance drive to retire them all.  The certificate is recomputed from the
finished trace alone (gather points are read off the recorded balls), so a
trace produced by any policy whatsoever can be checked — a do-nothing player
fails it honestly.

Every gather, clearance and certificate test is decided on integers: the
ball's center as N over one common denominator D, its radius p/q and the
margin e/E, each rational comparison multiplied through by positive
denominators.  Only the reported residual lower bounds are Fractions.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from operator import mul

from .exact import (
    InvariantError,
    Record,
    int_dist,
    json_text,
    rat_str,
    round_half_even,
    sqrt_bounds,
)
from .engine import GameParams, GameTrace, Step, hold, run_game
from .geometry import Ball, Hyperplane
from .escape import AvoidanceDrive
from .resonance import ResonanceSequence
from .schedule import (
    BlockSchedule,
    ScheduleInfeasible,
    block_schedule,
    dangerous_hyperplanes,
    derive_params,
)


class CertificateFailed(Exception):
    def __init__(self, violations: list[dict]):
        self.violations = violations
        super().__init__(
            "certificate check failed for "
            + ", ".join(f"family {v['r']}" for v in violations)
        )


class HandledPlane(Record, frozen=True):
    __slots__ = ("r", "plane", "block")


def _integer_form(ball: Ball, margin: Fraction) -> tuple[int, list[int], tuple[int, int, int, int]]:
    """(den, nums, scales): the ball's form, its center as nums over a
    common denominator den, and scales = (E, e*den, q^2, (p*den*E)^2) for the
    margin e/E and the radius p/q.  A clearance c/(den*E) exceeds the reach
    |u|*radius iff c > 0 and c^2 q^2 > |u|^2 (p*den*E)^2."""
    den, nums = ball.form
    p, q = ball.radius.numerator, ball.radius.denominator
    e, big_e = margin.numerator, margin.denominator
    return den, nums, (big_e, e * den, q * q, (p * den * big_e) ** 2)


def gather_block_planes(
    ball: Ball, seq: ResonanceSequence, sched: BlockSchedule, block: int
) -> list[HandledPlane]:
    """Reachable hyperplanes of the block's families, at the block-start ball.

    Each family contributes its nearest integer offset; when the *second*
    nearest offset is close enough that end-of-game clearance could not be
    certified from this radius (margin <= |u| * radius, tested on squares),
    that offset's plane is gathered as well.  The total must stay strictly
    below the plane budget, or the schedule was infeasible after all.
    Decided on integers: u·center - a = lean/den, and the margin
    1 - |lean|/den - epsilon times den*E (_integer_form).
    """
    params = sched.params
    lo, hi = sched.handled_range(block)
    den, nums, (big_e, slack, q_sq, reach) = _integer_form(ball, params.margin)
    out: list[HandledPlane] = []
    for r, plane in dangerous_hyperplanes(ball, seq, lo, hi):
        out.append(HandledPlane(r, plane, block))
        lean = sum(map(mul, plane.normal, nums)) - plane.offset * den  # |lean| <= den/2
        margin = (den - abs(lean)) * big_e - slack
        if margin <= 0:
            raise ScheduleInfeasible(
                f"family {r}: margin to the second offset is non-positive"
            )
        if margin * margin * q_sq <= plane.norm_sq * reach:
            a2 = plane.offset + (1 if lean >= 0 else -1)
            out.append(HandledPlane(r, Hyperplane(plane.normal, a2), block))
    if len(out) > params.plane_budget - 1:
        raise ScheduleInfeasible(
            f"block {block} gathered {len(out)} planes; the avoidance "
            f"guarantee needs at most {params.plane_budget - 1}"
        )
    return out


def _family_clear(s: int, den: int, norm_sq: int, scales: tuple[int, int, int, int]) -> bool:
    """Exact: every integer offset of the family stays > margin beyond the
    ball's reach.  With u·center = s/den and f = s mod den, both f/den -
    margin and 1 - f/den - margin must be positive and exceed |u|*radius;
    the nearer side, min(f, den - f)*E - e*den over den*E, decides, on the
    scales of _integer_form."""
    big_e, slack, q_sq, reach = scales
    near = int_dist(s, den) * big_e - slack
    return near > 0 and near * near * q_sq > norm_sq * reach


class WhiteStrategy:
    """Play the full block schedule; exposes the gathered planes it handled."""

    def __init__(
        self,
        seq: ResonanceSequence,
        sched: BlockSchedule,
        *,
        seed: int = 0,
    ):
        self.seq = seq
        self.sched = sched
        self.params = sched.params
        self.seed = seed
        self.handled: list[HandledPlane] = []
        self.moves = 0
        self.sub: AvoidanceDrive | None = None

    def _check_handled_clear(self, ball: Ball) -> None:
        den, nums, scales = _integer_form(ball, self.params.margin)
        for h in self.handled:
            s = sum(map(mul, h.plane.normal, nums))
            if not _family_clear(s, den, h.plane.norm_sq, scales):
                raise InvariantError(
                    f"family {h.r} (handled in block {h.block}) lost its "
                    f"clearance at move {self.moves}"
                )

    def __call__(self, state) -> tuple[Step, str]:
        tau = self.params.avoidance_rounds
        block = self.moves // tau if tau else self.sched.blocks
        if block >= self.sched.blocks:
            self.moves += 1
            return hold(state), "schedule complete"
        if self.moves % tau == 0:
            self._check_handled_clear(state.ball)
            gathered = gather_block_planes(state.ball, self.seq, self.sched, block)
            self.handled.extend(gathered)
            self.sub = AvoidanceDrive(
                [h.plane for h in gathered],
                self.params,
                seed=self.seed + 7919 * block,
            )
        assert self.sub is not None
        step, note = self.sub(state)
        self.moves += 1
        return step, f"block {block} {note}"


def build_strategy(
    seq: ResonanceSequence,
    alpha,
    beta,
    lacunarity,
    rho0,
    blocks: int,
    *,
    seed: int = 0,
) -> tuple[WhiteStrategy, BlockSchedule]:
    params = derive_params(alpha, beta, lacunarity, seq.dimension)
    sched = block_schedule(params, seq, rho0, blocks)
    return WhiteStrategy(seq, sched, seed=seed), sched


# -- certification from the trace alone --------------------------------------


class CertificateEntry(Record, frozen=True):
    """residual_lb is a rational lower bound on |u·eta - a|, for reporting,
    where a is the offset gathered at the family's block.  It bounds no
    other offset, so ||u·eta|| can be smaller than it when eta ends nearer
    another integer."""

    __slots__ = ("r", "normal", "offset", "block", "residual_lb")

    def to_jsonable(self) -> dict:
        return {
            "r": self.r,
            "u": list(self.normal),
            "a": self.offset,
            "block": self.block,
            "residual_lb": rat_str(self.residual_lb),
        }


class Certificate(Record):
    __slots__ = (
        "params", "rho0", "blocks", "covered_through", "eta_center", "eta_radius", "entries",
    )

    def to_jsonable(self) -> dict:
        return {
            "params": self.params.to_jsonable(),
            "rho0": rat_str(self.rho0),
            "blocks": self.blocks,
            "covered_through": self.covered_through,
            "eta_center": [rat_str(c) for c in self.eta_center],
            "eta_radius": rat_str(self.eta_radius),
            "epsilon": rat_str(self.params.margin),
            "handled": [e.to_jsonable() for e in self.entries],
        }

    def dumps(self) -> str:
        return json_text(self.to_jsonable())


def block_start_ball(trace: GameTrace, sched: BlockSchedule, block: int) -> Ball:
    """The ball the given block opened with, read off the recorded trace."""
    tau = sched.params.avoidance_rounds
    idx = 2 * block * tau
    if idx == 0:
        return trace.initial
    if idx - 1 >= len(trace.moves):
        raise ValueError(f"trace too short for block {block}")
    return trace.moves[idx - 1].ball


def certificate(
    trace: GameTrace, seq: ResonanceSequence, sched: BlockSchedule
) -> Certificate:
    """Check that the trace's limit ball clears every scheduled family.

    The gather points are recomputed from the trace itself, so this accepts
    traces from any source; it raises CertificateFailed when any family's
    integer offsets come within margin of the final ball.  Every comparison
    is exact; the per-entry residual_lb is a rational lower bound for
    human consumption only.
    """
    params = sched.params
    if 2 * sched.blocks * params.avoidance_rounds > len(trace.moves):
        raise ValueError("trace does not cover the full schedule")
    handled: list[HandledPlane] = []
    for b in range(sched.blocks):
        handled.extend(
            gather_block_planes(block_start_ball(trace, sched, b), seq, sched, b)
        )
    final = trace.final_ball
    den, nums, scales = _integer_form(final, params.margin)
    violations: list[dict] = []
    entries: list[CertificateEntry] = []
    for h in handled:
        s = sum(map(mul, h.plane.normal, nums))
        if not _family_clear(s, den, h.plane.norm_sq, scales):
            violations.append(
                {
                    "r": h.r,
                    "block": h.block,
                    "offset": h.plane.offset,
                    "residual": rat_str(Fraction(abs(round_half_even(s, den)[1]), den)),
                }
            )
            continue
        # |u·eta - a| - hi/2^64 with hi/2^64 >= |u|*radius, over den*2^64
        hi = sqrt_bounds(h.plane.norm_sq * final.radius**2)[1]
        lb = (abs(s - h.plane.offset * den) << 64) - hi * den
        # floor to a compact dyadic for the report; still a valid lower bound
        compact = lb // (den << 34)
        entries.append(
            CertificateEntry(
                h.r, h.plane.normal, h.plane.offset, h.block,
                Fraction(compact, 1 << 30) if compact > 0 else Fraction(lb, den << 64),
            )
        )
    if violations:
        raise CertificateFailed(violations)
    return Certificate(
        params=params,
        rho0=sched.rho0,
        blocks=sched.blocks,
        covered_through=sched.cuts[-1],
        eta_center=final.center,
        eta_radius=final.radius,
        entries=entries,
    )


def run_constructed_game(
    seq: ResonanceSequence,
    alpha,
    beta,
    lacunarity,
    rho0,
    blocks: int,
    black,
    *,
    center: Sequence | None = None,
    seed: int = 0,
) -> tuple[GameTrace, Certificate, WhiteStrategy, BlockSchedule]:
    """Derive, schedule, play and certify in one call."""
    white, sched = build_strategy(
        seq, alpha, beta, lacunarity, rho0, blocks, seed=seed
    )
    n = seq.dimension
    initial = Ball(center if center is not None else (0,) * n, rho0)
    game_params = GameParams(alpha, beta, n)
    trace = run_game(
        game_params, initial, white, black,
        rounds=sched.blocks * sched.params.avoidance_rounds,
    )
    cert = certificate(trace, seq, sched)
    return trace, cert, white, sched
