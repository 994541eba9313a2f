"""Derived constants and the block schedule of the avoidance strategy.

All scheduling decisions are exact.  The escape length is found on Fraction
powers of alpha*beta; the plane-budget scan decides on scaled-integer
brackets of (1 - omega)^c and of the logarithms of 1/(alpha*beta) and M, and
compares integer powers only where a bracket straddles; block thresholds are
compared on squares.  The spherical-cap measure for dimension >= 2 is
bracketed in integers too (geometry.cap_measure_bounds) and enters as a
dyadic *lower* bound: its floor at 2^-40 granularity, less two steps.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul

from .exact import (
    InvariantError,
    Record,
    ceil_frac,
    log_bounds,
    over_common_denominator,
    rat,
    rat_str,
    round_half_even,
)
from .geometry import Ball, Hyperplane, cap_measure_bounds, same_dimension
from .resonance import ResonanceSequence


class ScheduleInfeasible(Exception):
    """The requested schedule cannot be certified with the given inputs."""


class StrategyParams(Record, frozen=True):
    """Everything the avoidance strategy needs, all exactly represented.

    gamma           1 + alpha*beta - 2*alpha (> 0): the per-round worst-case
                    escape drift as a multiple of the current ball radius.
    escape_rounds   rounds of one escape drive (smallest t with
                    (alpha*beta)^t < gamma/2, strictly).
    cap_measure_lb  dyadic lower bound on the normalized measure of the
                    direction cap that guarantees an absorbing escape.
    plane_budget    k: per-block capacity governing the schedule inequality
                    (1/(alpha*beta))^tau_k < M^(k-2).
    avoidance_rounds tau_k = escape_rounds * (number of escape sub-blocks
                    needed to clear k-1 planes).
    margin          epsilon = gamma / (4 M^(k+2)): the certified clearance,
                    in resonance-residual units, that the final point keeps
                    from every handled hyperplane's integer offsets.
    """

    __slots__ = (
        "alpha", "beta", "dimension", "lacunarity", "gamma", "escape_rounds",
        "cap_measure_lb", "plane_budget", "avoidance_rounds", "margin",
    )

    @property
    def shrink(self) -> Fraction:
        """alpha*beta: the per-round radius contraction."""
        return self.alpha * self.beta

    def to_jsonable(self) -> dict:
        return {
            "alpha": rat_str(self.alpha),
            "beta": rat_str(self.beta),
            "dimension": self.dimension,
            "lacunarity": rat_str(self.lacunarity),
            "gamma": rat_str(self.gamma),
            "escape_rounds": self.escape_rounds,
            "cap_measure_lb": rat_str(self.cap_measure_lb),
            "plane_budget": self.plane_budget,
            "avoidance_rounds": self.avoidance_rounds,
            "margin": rat_str(self.margin),
        }


_DYADIC_BITS = 40

#: The cap-measure bracket starts at _CAP_PREC bits and doubles while it
#: straddles a 2^-40 step, up to _MAX_PREC bits.
_CAP_PREC = 64
_MAX_PREC = 4096

#: Bits of the brackets the plane-budget scan decides on.
_SCAN_PREC = 64

#: The plane-budget scan gives up past this budget k.
_MAX_BUDGET = 100_000


def _cap_measure_lower_bound(gamma: Fraction, shrink_t: Fraction, n: int) -> Fraction:
    """Dyadic lower bound on the measure of the *reduced* escape cap.

    The full cap has angular radius arcsin(gamma/2); escapes that remain
    clear after the drive need directions within the reduced radius
    arcsin(gamma/2) - arcsin(gamma * (alpha*beta)^t), which is positive
    exactly when gamma/2 > gamma * (alpha*beta)^t.  For n = 1 both caps have
    measure exactly 1/2.  For n >= 2 the measure w is bracketed exactly
    (geometry.cap_measure_bounds), the precision doubling until the bracket
    decides floor(w * 2^40); the result is that floor less a guard of two
    steps, and at least one step.
    """
    if n == 1:
        return Fraction(1, 2)
    sin_a, sin_b = gamma / 2, gamma * shrink_t
    if not sin_b < sin_a:
        raise ScheduleInfeasible("escape margin leaves no usable direction cap")
    prec = _CAP_PREC
    while True:
        lo, hi = cap_measure_bounds(sin_a, sin_b, n, prec)
        steps = lo >> (prec - _DYADIC_BITS)
        if steps == hi >> (prec - _DYADIC_BITS):
            return Fraction(max(1, steps - 2), 1 << _DYADIC_BITS)
        prec *= 2
        if prec > _MAX_PREC:
            raise InvariantError(
                f"cap measure bracket still straddles a 2^-{_DYADIC_BITS} step "
                f"at {prec // 2} bits"
            )


def _schedule_holds(p: Fraction, m: Fraction, tau: int, k: int) -> bool:
    """(1/p)^tau < m^(k-2) for p = P/Q and m = M1/M2, on integers."""
    m1, m2 = m.numerator, m.denominator
    return (
        p.denominator**tau * m2**k * m1 * m1 < p.numerator**tau * m1**k * m2 * m2
    )


def check_ranges(alpha: Fraction, beta: Fraction, lacunarity: Fraction) -> None:
    """Raise ValueError unless 0 < alpha < 1/2, 0 < beta < 1 and M > 1."""
    if not 0 < alpha < Fraction(1, 2):
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    if not 0 < beta < 1:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if lacunarity <= 1:
        raise ValueError(f"lacunarity must exceed 1, got {lacunarity}")


def derive_params(alpha, beta, lacunarity, dimension: int) -> StrategyParams:
    """Derive the full parameter set from (alpha, beta, M, n).

    Raises ScheduleInfeasible when no plane budget can satisfy the schedule
    inequality (does not happen for valid inputs, but the scan is capped).
    """
    a, b, m = rat(alpha), rat(beta), rat(lacunarity)
    check_ranges(a, b, m)
    if dimension < 1:
        raise ValueError("dimension must be >= 1")

    gamma = 1 + a * b - 2 * a
    assert gamma > 0
    p = a * b

    # escape_rounds: smallest t >= 1 with p^t < gamma/2 (strict)
    t = 1
    pt = p
    while not 2 * pt < gamma:
        t += 1
        pt *= p

    omega = _cap_measure_lower_bound(gamma, pt, dimension)

    # plane-budget scan.  sub_blocks(k) = smallest c with k*(1-omega)^c <= 1;
    # it is nondecreasing in k, so c only grows.  (1-omega)^c = (D-N)^c / D^c
    # for omega = N/D is bracketed at _SCAN_PREC bits and only a straddle
    # compares k*(D-N)^c with D^c exactly.  The schedule inequality
    # (1/(alpha*beta))^tau < M^(k-2) reads tau*ln(1/(alpha*beta)) < (k-2)*ln M
    # on bracketed logarithms, and a straddle compares Q^tau*M2^k*M1^2 with
    # P^tau*M1^k*M2^2 exactly, for alpha*beta = P/Q and M = M1/M2.  For
    # k <= 2, (1/(alpha*beta))^tau >= 1 >= M^(k-2), so no such k qualifies;
    # once tau*ln(1/(alpha*beta)) >= (_MAX_BUDGET-2)*ln M no k ever does,
    # since tau only grows, and the scan stops there rather than raising c
    # through a near-zero omega.
    num, den = omega.numerator, omega.denominator
    keep = den - num
    one = 1 << _SCAN_PREC
    kept_lo = kept_hi = one  # (1-omega)^c
    lp_lo, lp_hi = log_bounds(1 / p, _SCAN_PREC)
    lm_lo, lm_hi = log_bounds(m, _SCAN_PREC)
    c = 0
    tau_cap = (_MAX_BUDGET - 2) * lm_hi  # tau*lp_lo at or past it: infeasible
    for k in range(1, _MAX_BUDGET + 1):
        while k * kept_hi > one and (k * kept_lo > one or k * keep**c > den**c):
            c += 1
            kept_lo, kept_hi = kept_lo * keep // den, -(-kept_hi * keep // den)
            if t * c * lp_lo >= tau_cap:
                raise ScheduleInfeasible("no plane budget satisfies the schedule inequality")
        tau = t * c
        if k > 2 and (
            tau * lp_hi < (k - 2) * lm_lo
            or tau * lp_lo < (k - 2) * lm_hi and _schedule_holds(p, m, tau, k)
        ):
            break
    else:
        raise ScheduleInfeasible("no plane budget satisfies the schedule inequality")

    eps = gamma / (4 * m ** (k + 2))
    return StrategyParams(
        alpha=a,
        beta=b,
        dimension=dimension,
        lacunarity=m,
        gamma=gamma,
        escape_rounds=t,
        cap_measure_lb=omega,
        plane_budget=k,
        avoidance_rounds=tau,
        margin=eps,
    )


class BlockSchedule(Record, frozen=True):
    """Which resonance indices each block of tau_k rounds must retire.

    Block b (0-based, b < blocks) starts at ball index b*tau_k and handles
    resonance indices r in (cuts[b], cuts[b+1]] where
    cuts = (0, r_1, ..., r_blocks) with r_1 = 1.  For b >= 1 the upper cut
    is the largest r whose size t_r stays below
    1/(2*rho0*(alpha*beta)^(b*tau_k)); the schedule also verifies that the
    *next* family size has crossed that threshold, which is what certifies
    that no family is ever handled too late.
    """

    __slots__ = ("params", "rho0", "blocks", "cuts")

    def handled_range(self, block: int) -> tuple[int, int]:
        """(lo, hi], 1-based resonance indices handled by `block`."""
        return self.cuts[block], self.cuts[block + 1]


def block_schedule(
    params: StrategyParams, seq: ResonanceSequence, rho0, blocks: int
) -> BlockSchedule:
    """Build and certify the block schedule.

    Raises ScheduleInfeasible when the initial radius is too large for the
    first family, when a block would have to handle >= plane_budget families,
    or when the resonance family runs out before a cut can be certified.
    """
    r0 = rat(rho0)
    if r0 <= 0:
        raise ValueError("rho0 must be positive")
    if blocks < 0:
        raise ValueError("blocks must be >= 0")
    if seq.dimension != params.dimension:
        raise ScheduleInfeasible(
            f"resonance vectors live in dimension {seq.dimension}, "
            f"strategy in {params.dimension}"
        )
    if blocks == 0:
        return BlockSchedule(params, r0, 0, (0,))

    # block 0 handles the single smallest family; its gather is well defined
    # only if the nearest resonance offset is unique at scale rho0:
    if 4 * r0 * r0 * seq.norm_sq_of(1) > 1:
        raise ScheduleInfeasible(
            "initial radius too large: 2*rho0*t_1 must not exceed 1"
        )

    p = params.shrink
    tau = params.avoidance_rounds
    cuts = [0, 1]
    shrink_pow = p**tau  # (alpha*beta)^(b*tau) at b = 1
    for b in range(1, blocks):
        # threshold T = 1/(2*rho0*p^(b*tau)); family r is due iff t_r < T,
        # compared on squares: t_r^2 * (2*rho0*p^(b*tau))^2 < 1.
        scale = 2 * r0 * shrink_pow
        scale_sq = scale * scale
        r_hi = cuts[-1]
        while r_hi + 1 <= len(seq) and seq.norm_sq_of(r_hi + 1) * scale_sq < 1:
            r_hi += 1
        if r_hi == len(seq):
            raise ScheduleInfeasible(
                f"resonance family exhausted at block {b}: cannot certify that "
                f"the next size has crossed the threshold (need >= {ceil_frac(1/scale)})"
            )
        if r_hi - cuts[-1] >= params.plane_budget:
            raise ScheduleInfeasible(
                f"block {b} would need {r_hi - cuts[-1]} families, "
                f"budget allows at most {params.plane_budget - 1}"
            )
        cuts.append(r_hi)
        shrink_pow *= p**tau
    return BlockSchedule(params, r0, blocks, tuple(cuts))


def dangerous_hyperplanes(
    ball: Ball, seq: ResonanceSequence, r_lo: int, r_hi: int
) -> list[tuple[int, Hyperplane]]:
    """The nearest integer-offset hyperplane of each family in (r_lo, r_hi].

    For family r with vector u, the hyperplanes are {y : u·y = a}, a in Z;
    at scales where 2*radius*|u| <= 1 at most one offset can meet the ball,
    and the nearest one is a = round(u·center) (ties to even, exactly as
    Fraction rounding does).  Decided on integers: with the center as N/D
    and radius = p/q, the scale test is 4 p^2 |u|^2 > q^2 and
    a = round_half_even(u·N, D).  A family of another dimension than the
    ball raises ValueError ("dimension mismatch").
    """
    same_dimension(ball.center, seq.vector(1))  # every family has one dimension
    den, nums = over_common_denominator(ball.center)
    p, q = ball.radius.numerator, ball.radius.denominator
    reach, bound = 4 * p * p, q * q
    out = []
    for r in range(r_lo + 1, r_hi + 1):
        u = seq.vector(r)
        if reach * seq.norm_sq_of(r) > bound:
            raise InvariantError(
                f"family {r} has multiple reachable offsets at radius {ball.radius}; "
                "schedule should have prevented this"
            )
        a, _ = round_half_even(sum(map(mul, u, nums)), den)
        out.append((r, Hyperplane(u, a)))
    return out
