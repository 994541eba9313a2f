"""Escape drives and direction-cap selection.

The core maneuver: from a ball threatened by an affine hyperplane with
integer normal u, pick a unit direction x̂ inside a spherical cap around the
outward normal and push the center by (1-alpha)*rho along x̂ every round:
the step (1-alpha)*x̂, in units of the radius, built by engine.full_step.
Against *any* legal opponent this drives the whole ball into the halfspace
{x̂·(y - start) >= (gamma/2)*rho_start} within `escape_rounds` rounds, and for
directions in a slightly smaller cap ("strong" hits) it leaves the final ball
at distance > gamma*rho from the plane — a state that nested play can never
undo.  A direction is the integer pair (v, L) of geometry.Direction, and
every membership test below is an exact integer test on it (at most two
squarings); floats appear only inside candidate *generation*, never in
acceptance of a candidate.  Grid and random candidates are lifted from
their chart points straight to (v, L) by geometry.chart_lift, the lift
behind rational_unit_direction's escort directions too.  The plane's side,
its absorption and the cap's clearance read the center residual
u·center - a as an integer over the center's common denominator.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import mul
from random import Random

from .engine import Step, full_step, hold
from .exact import (
    InvariantError,
    Record,
    ceil_frac,
    fraction,
    gt_sqrt,
    gt_sum_two_sqrt,
    over_common_denominator,
)
from .geometry import (
    Ball,
    Direction,
    Halfspace,
    Hyperplane,
    chart_lift,
    lex_sign,
    rational_unit_direction,
    same_dimension,
    stereo_chart,
)
from .schedule import StrategyParams


class SelectionExhausted(Exception):
    """No sampled direction met the strong-hit quota within the budget."""

    def __init__(self, quota: int, best_strong: int, tried: int):
        self.quota = quota
        self.best_strong = best_strong
        self.tried = tried
        super().__init__(
            f"direction search exhausted: quota {quota}, best strong count "
            f"{best_strong} after {tried} candidates"
        )


def _residual(ball: Ball, plane: Hyperplane) -> tuple[int, int]:
    """(res, den): the center residual u·center - a as res/den, with den the
    center's common denominator; ValueError if u is of another dimension."""
    same_dimension(plane.normal, ball.center)
    den, nums = over_common_denominator(ball.center)
    return sum(map(mul, plane.normal, nums)) - plane.offset * den, den


def absorbed(ball: Ball, plane: Hyperplane, gamma: Fraction) -> bool:
    """Exact: dist(ball, plane) > gamma * radius.

    The state is monotone under play: later balls are nested (distance can
    only grow) while gamma*radius shrinks, so once absorbed, always absorbed.
    On integers, with the residual res/den, radius p/q and gamma = g/h:
        (res q h)^2 > |u|^2 (p (h + g) den)^2.
    """
    res, den = _residual(ball, plane)
    p, q = ball.radius.numerator, ball.radius.denominator
    g, h = gamma.numerator, gamma.denominator
    return (res * q * h) ** 2 > plane.norm_sq * (p * (h + g) * den) ** 2


# -- exact cap membership on integer directions -------------------------------


class PlaneCap:
    """The three cap tests of one plane against one ball, in integers.

    The outward normal is sgn*u, sgn the sign of the center residual, or
    the lexicographic sign of u when the plane passes through the center:
    the side the escape pushes toward.  A direction x̂ enters as (v, L), and
    a = projection(v) = L*A with A = sgn*(u · x̂) the component along the
    outward normal.  With gamma = P/Q, shrink_t =
    (alpha*beta)^escape_rounds = S/T and |s0|/rho = R1/R2, each test below
    is its rational form multiplied through by positive denominators, so it
    is decided on integers with at most two squarings.
    """

    __slots__ = ("outward", "norm_sq", "cap_scale", "cap_bound", "strong_lhs",
                 "strong_perp", "strong_rim", "miss_clearance", "miss_lhs", "miss_perp")

    def __init__(self, ball: Ball, plane: Hyperplane, gamma: Fraction, shrink_t: Fraction):
        res, den = _residual(ball, plane)
        sgn = 1 if res > 0 else -1 if res < 0 else lex_sign(plane.normal)
        p, q = gamma.numerator, gamma.denominator
        s, t = shrink_t.numerator, shrink_t.denominator
        # |s0|/rho in lowest terms, so that the per-candidate tests stay small
        clearance = fraction(abs(res) * ball.radius.denominator, den * ball.radius.numerator)
        r1, r2 = clearance.numerator, clearance.denominator
        k = 4 * q * q - p * p  # 4Q^2 (1 - gamma^2/4)
        self.outward = tuple(sgn * c for c in plane.normal)
        self.norm_sq = plane.norm_sq
        self.cap_scale = 4 * q * q
        self.cap_bound = self.norm_sq * k
        self.strong_lhs = p * t
        self.strong_perp = k * t * t
        self.strong_rim = 4 * self.norm_sq * p * p * s * s
        self.miss_clearance = 2 * q * r1
        self.miss_lhs = p * r2
        self.miss_perp = k * r2 * r2

    def projection(self, v: Sequence[int]) -> int:
        """a = sgn * (u · v)."""
        return sum(map(mul, self.outward, v))

    def cap_member(self, a: int, l_sq: int) -> bool:
        """Is x̂ within angle arcsin(gamma/2) of the outward normal?
        A > 0 and A^2 >= |u|^2 (1 - gamma^2/4), times 4Q^2 L^2:
            a > 0  and  4Q^2 a^2 >= |u|^2 L^2 (4Q^2 - P^2).
        """
        return a > 0 and self.cap_scale * a * a >= self.cap_bound * l_sq

    def strong_cap_member(self, a: int, l_sq: int) -> bool:
        """Membership in the reduced cap that makes the escape absorbing:
            A*(gamma/2) > sqrt(U_perp^2 (1-gamma^2/4)) + sqrt(|u|^2 m^2)
        with U_perp^2 = |u|^2 - A^2 and m = gamma*shrink_t, i.e. the angle
        is below arcsin(gamma/2) - arcsin(gamma*shrink_t).  Times 2QLT:
            aPT > sqrt((|u|^2 L^2 - a^2)(4Q^2 - P^2) T^2) + sqrt(4|u|^2 P^2 S^2 L^2).
        """
        if a <= 0:
            return False
        perp = self.norm_sq * l_sq - a * a
        return gt_sum_two_sqrt(a * self.strong_lhs, perp * self.strong_perp, self.strong_rim * l_sq)

    def verified_miss(self, a: int, el: int, l_sq: int) -> bool:
        """Exact check that the whole guaranteed end-region avoids the plane.

        Every point reachable after the drive lies in
          D = {center + d : x̂·d >= (gamma/2) rho, |d| <= rho};
        along D the signed residual is minimized at height (gamma/2) rho, giving
          min >= |s0| + rho*(A*(gamma/2) - sqrt(U_perp^2 (1-gamma^2/4))).
        Its positivity, times 2QL*R2 / rho:
            a > 0  and  2QL R1 + aP R2 > sqrt((|u|^2 L^2 - a^2)(4Q^2 - P^2) R2^2).
        """
        if a <= 0:
            return False
        perp = self.norm_sq * l_sq - a * a
        return gt_sqrt(self.miss_clearance * el + a * self.miss_lhs, perp * self.miss_perp)


# -- candidate generation (floats allowed, outputs exact) --------------------


_LDS_STEPS = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19)]
_CHART_DENOM = 1 << 12


def _grid_direction(idx: int, n: int) -> Direction:
    """(v, L) of a deterministic low-discrepancy direction."""
    axis = idx % n
    sign = 1 if (idx // n) % 2 == 0 else -1
    base = idx // (2 * n) + 1
    a = []
    for j in range(n - 1):
        val = (0.5 + base * _LDS_STEPS[j % len(_LDS_STEPS)]) % 1.0
        a.append(round((2 * val - 1) * 2 * _CHART_DENOM))
    return chart_lift(a, _CHART_DENOM, axis, sign)


def _random_direction(rng: Random, n: int) -> Direction:
    """(v, L) of a seeded random direction: a Gaussian draw, charted."""
    v = [rng.gauss(0.0, 1.0) for _ in range(n)]
    norm = math.sqrt(math.fsum(x * x for x in v))
    if norm == 0.0:
        return _grid_direction(0, n)
    axis, sign, w = stereo_chart([x / norm for x in v])
    return chart_lift([round(x * _CHART_DENOM) for x in w], _CHART_DENOM, axis, sign)


# -- direction selection -----------------------------------------------------


class CapSelection(Record, frozen=True):
    """The chosen direction (v, L); escaped, the cap members whose
    end-region miss is verified; strong, the subset guaranteed to be
    absorbed after the drive; and the number of candidates tried."""

    __slots__ = ("direction", "escaped", "strong", "candidates_tried")


#: Grid directions in select_cap's first round; each later round doubles it.
INITIAL_BUDGET = 32
#: select_cap raises SelectionExhausted when a round ends short of its quota
#: with at least this many candidates tried.
MAX_CANDIDATES = 1 << 12


def select_cap(
    ball: Ball,
    planes: Sequence[Hyperplane],
    params: StrategyParams,
    *,
    seed: int = 0,
) -> CapSelection:
    """Pick a drive direction clearing at least ceil(cap_measure_lb * k')
    of the k' given planes, with every claimed clearance verified exactly.

    Candidates come from the planes' own escort directions, then rounds of
    a deterministic low-discrepancy grid and seeded random directions; the
    round size doubles until the strong-hit quota is met.  The mean number
    of strong hits over the sphere is >= cap_measure_lb * k', so a
    qualifying direction always exists; SelectionExhausted, raised once a
    round ends with MAX_CANDIDATES tried, signals a search-budget failure,
    not a mathematical one.
    """
    kprime = len(planes)
    if kprime == 0:
        raise ValueError("select_cap needs at least one plane")
    n = params.dimension
    if ball.dimension != n:
        raise ValueError("ball dimension does not match params")
    shrink_t = params.shrink**params.escape_rounds
    quota = ceil_frac(params.cap_measure_lb * kprime)
    caps = [PlaneCap(ball, p, params.gamma, shrink_t) for p in planes]

    def evaluate(v: tuple[int, ...], el: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        l_sq = el * el
        strong = []
        esc = []
        for j, cap in enumerate(caps):
            a = cap.projection(v)
            st = cap.strong_cap_member(a, l_sq)
            if st:
                strong.append(j)
            if cap.cap_member(a, l_sq) and cap.verified_miss(a, el, l_sq):
                esc.append(j)
            elif st:
                raise InvariantError("strong hit without verified miss")
        return tuple(strong), tuple(esc)

    # (strong count, escaped count, v, L, strong, escaped) of the best so far
    best: tuple[int, int, tuple[int, ...], int, tuple, tuple] | None = None
    seen: set[Direction] = set()
    tried = 0

    def consider(direction: Direction):
        """Judge the direction v/L given as (v, L); an equal score goes to
        the lexicographically smaller direction, v_i/L against w_i/M
        compared as v_i M against w_i L."""
        nonlocal best, tried
        if direction in seen:
            return
        seen.add(direction)
        tried += 1
        v, el = direction
        strong, esc = evaluate(v, el)
        key = (len(strong), len(esc))
        if (
            best is None
            or key > (best[0], best[1])
            or (key == (best[0], best[1])
                and [x * best[3] for x in v] < [x * el for x in best[2]])
        ):
            best = (len(strong), len(esc), v, el, strong, esc)

    if n == 1:
        consider(((1,), 1))
        consider(((-1,), 1))
    else:
        for cap in caps:
            consider(rational_unit_direction(cap.outward))
        rng = Random(seed)
        grid_cursor = 0
        budget = INITIAL_BUDGET
        while True:
            while grid_cursor < budget:
                consider(_grid_direction(grid_cursor, n))
                grid_cursor += 1
            for _ in range(budget // 2):
                consider(_random_direction(rng, n))
            if best[0] >= quota or tried >= MAX_CANDIDATES:
                break
            budget *= 2

    assert best is not None
    if best[0] < quota:
        raise SelectionExhausted(quota, best[0], tried)
    _, _, v, el, strong, esc = best
    return CapSelection(
        direction=(v, el),
        escaped=esc,
        strong=strong,
        candidates_tried=tried,
    )


# -- policies ----------------------------------------------------------------


def drive_halfspace(start: Ball, direction: Direction, gamma: Fraction) -> Halfspace:
    """The halfspace the escape drive certifies: height >= (gamma/2)*rho_start
    above the start center, along the drive direction."""
    return Halfspace(direction, gamma * start.radius / 2, start.center)


class AvoidanceDrive:
    """Clear a set of hyperplanes over `avoidance_rounds` White moves.

    Play proceeds in sub-blocks of `escape_rounds` moves.  At each sub-block
    start the still-threatening planes are re-measured exactly; if any
    remain, a direction x̂ meeting the strong-hit quota is selected and
    driven by the constant step (1-alpha)*x̂ (engine.full_step).
    Strong hits are absorbed by the end of the sub-block — verified at the
    next boundary, where failure raises InvariantError: the drive is chosen
    so that every legal opponent leaves them absorbed, so only a bug or a
    tampered drive gets there.
    """

    def __init__(
        self,
        planes: Sequence[Hyperplane],
        params: StrategyParams,
        *,
        seed: int = 0,
    ):
        self.planes = list(planes)
        self.params = params
        self.seed = seed
        self.remaining = list(range(len(self.planes)))
        self.pos = 0
        self.direction: Direction | None = None
        self.step: Step | None = None  # (1-alpha) * direction
        self.pending: tuple[Halfspace, tuple[int, ...]] | None = None

    def _boundary(self, ball: Ball) -> None:
        gamma = self.params.gamma
        if self.pending is not None:
            halfspace, strong = self.pending
            if not halfspace.contains_ball(ball):
                raise InvariantError(
                    "escape drive failed to reach its certified halfspace"
                )
            for j in strong:
                if not absorbed(ball, self.planes[j], gamma):
                    raise InvariantError(
                        f"plane {j} was strongly hit but is still a threat"
                    )
            self.pending = None
        self.remaining = [
            j for j in self.remaining if not absorbed(ball, self.planes[j], gamma)
        ]
        sub_index = self.pos // self.params.escape_rounds
        if self.remaining:
            sel = select_cap(
                ball,
                [self.planes[j] for j in self.remaining],
                self.params,
                seed=self.seed + sub_index,
            )
            self.direction = sel.direction
            strong_global = tuple(self.remaining[j] for j in sel.strong)
            self.pending = (drive_halfspace(ball, sel.direction, gamma), strong_global)
        else:
            self.direction = None

    def __call__(self, state) -> tuple[Step, str]:
        t = self.params.escape_rounds
        if self.pos < self.params.avoidance_rounds and self.pos % t == 0:
            self._boundary(state.ball)
            if self.direction is not None:
                self.step = full_step(self.direction, state.params.alpha)
        sub = self.pos // t
        if self.pos >= self.params.avoidance_rounds or self.direction is None:
            step = hold(state)
            note = f"sub {sub} hold"
        else:
            step = self.step
            note = f"sub {sub} drive {self.pos % t + 1}/{t} ({len(self.remaining)} live)"
        self.pos += 1
        return step, note
