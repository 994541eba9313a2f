"""Test-only oracles: the library's loops in plain ``Fraction`` arithmetic.

The brute-force scans are the point-by-point loops the library used before
it moved onto integer kernels; the differential tests in test_kernel.py
hold the library's functions to them value for value, argmin for argmin.
The integer box walk ``box_distances`` beside them, with ``box_walk`` and
``walk_records_and_steps`` built on it, served every scan and record
search until the lattice routes replaced it; it is the fast oracle that
holds those routes to boxes the Fraction loops cannot reach.  The
plane-budget scan of ``derive_params`` and Greedy Black's nearest-plane
search are the ``Fraction`` versions of the construction path's integer
loops, held to them by test_schedule.py and test_adversaries.py; beside
them, Random Black's first route draws each coordinate by ``randrange``
where the package draws it by ``getrandbits``.  The engine's ball
containment and trace rendering are the ``Fraction`` test and the generic
``json.dumps`` call that the integer test and the direct trace writer
replaced, held to them by test_geometry.py and test_engine.py; the
absolute-center engine beside them adds each step to the center as a
``Fraction`` sum and tests containment of the reply ball, where
``engine.run_game`` decides legality on the step and folds it into an
integer center, held to it by test_engine.py.  The three
cap predicates and the ``select_cap`` built on them are the ``Fraction``
tests that the escape layer's integer tests on (v, L) directions replaced,
held to them by test_escape.py; its escort, grid and random candidates are
lifted from their chart points by ``stereo_unit`` in ``Fraction``s, where
``geometry.chart_lift`` lifts them straight to (v, L), and
``rational_unit_direction`` is the library's refinement with each round
lifted by ``stereo_unit``, held to it by test_geometry.py.  ``halfspace_contains_ball`` is
the ``Fraction`` height test that ``Halfspace.contains_ball`` decides on
integers, held to it by test_geometry.py.  The gather, clearance and
certificate of White's strategy, the nearest offsets of
``dangerous_hyperplanes``, ``absorbed``, ``plane_sign``, the
continued-fraction records and the lacunary ratio tests are the ``Fraction`` bodies that their integer forms
replaced, held to them by test_strategy.py, test_schedule.py,
test_escape.py and test_resonance.py.  All of them are slow and obviously
correct.  The spherical-cap measure at the end is the float route that
``derive_params`` took before the measure was bracketed exactly: mpmath
quadrature and a ``math.asin`` difference, floored with a two-step guard.
The Monte-Carlo cap estimate beside it is the definitional check of the
exact cap measure.  ``decay_rho`` is the definitional table lookup that
``rho_upto``'s merge pass over a table and ``jarnik`` are held to, and
``add`` is the vector sum the tests build centers with.  ``replace``
builds a changed copy of a record through its constructor, as the
package's README describes.
"""
import itertools
import json
import math
import operator
from fractions import Fraction
from random import Random
from typing import Callable, Iterable, Iterator, Optional, Sequence

from badapprox import escape
from badapprox.certify import DecayTable, PowerLaw, TableRangeExceeded
from badapprox.engine import GameParams, GameState, GameTrace, IllegalMove, MoveRecord, within_slack
from badapprox.escape import CapSelection, SelectionExhausted
from badapprox.exact import (
    InvariantError,
    ceil_frac,
    floor_frac,
    gt_sqrt,
    gt_sum_two_sqrt,
    over_common_denominator,
    rat,
    rat_str,
    sqrt_bounds,
)
from badapprox.geometry import (
    DIRECTION_TOL,
    Ball,
    Halfspace,
    Hyperplane,
    Vec,
    dot,
    lex_sign,
    nearest_int_dist,
    same_dimension,
    scale,
    stereo_chart,
)
from badapprox.resonance import ResonanceEntry, ResonanceSequence, ThetaMatrix, convergents
from badapprox.schedule import BlockSchedule, ScheduleInfeasible, StrategyParams
from badapprox.strategy import (
    Certificate,
    CertificateEntry,
    CertificateFailed,
    HandledPlane,
    block_start_ball,
)


def replace(record, **changes):
    """A copy of the record with the given fields changed, built by its
    constructor so that its checks and coercions run again."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})


def add(a: Vec, b: Vec) -> Vec:
    same_dimension(a, b)
    return tuple(x + y for x, y in zip(a, b))


def decay_rho(table: DecayTable, s: int) -> int:
    """rho(s) = the largest size t_i with 1/psi_i <= s, by a walk of the table."""
    if s < table.s_min or s > table.s_max:
        raise TableRangeExceeded(
            f"s={s} outside table coverage [{table.s_min}, {table.s_max}]"
        )
    best: Optional[int] = None
    for t, v in zip(table.sizes, table.values):
        if v * s >= 1:  # 1/psi <= s
            best = t
        else:
            break
    assert best is not None
    return best


def scan_min(
    theta: ThetaMatrix,
    eta: Sequence[Fraction],
    limit: int,
    value_fn: Callable[[Fraction, int], Optional[Fraction]],
) -> tuple[Fraction, tuple[int, ...]]:
    """Exact min of value_fn(r(x), max|x_i|) over 0 < max|x_i| <= limit.

    r(x) = max_j || sum_i theta[i][j] x_i  -  eta[j] ||.  The innermost
    coordinate is accumulated incrementally (one vector add per step).
    A value_fn returning None excludes that point from the minimum.
    """
    m, n = theta.shape
    rows = theta.rows
    last_row = rows[m - 1]
    best: Optional[tuple[Fraction, tuple[int, ...]]] = None
    for head in itertools.product(range(-limit, limit + 1), repeat=m - 1):
        base = [
            sum((rows[i][j] * head[i] for i in range(m - 1)), Fraction(0)) - eta[j]
            for j in range(n)
        ]
        cur = [base[j] + last_row[j] * (-limit) for j in range(n)]
        for xm in range(-limit, limit + 1):
            if xm != -limit:
                cur = [c + d for c, d in zip(cur, last_row)]
            if xm == 0 and all(h == 0 for h in head):
                continue
            s = max(abs(xm), max((abs(h) for h in head), default=0))
            r = max(nearest_int_dist(c) for c in cur)
            v = value_fn(r, s)
            if v is None:
                continue
            x = head + (xm,)
            if best is None or v < best[0] or (v == best[0] and x < best[1]):
                best = (v, x)
    assert best is not None
    return best


def theorem1(theta: ThetaMatrix, eta, limit: int) -> tuple[Fraction, tuple[int, ...]]:
    m, n = theta.shape
    eta = [rat(e) for e in eta]
    return scan_min(theta, eta, limit, lambda r, s: r**n * Fraction(s) ** m)


def jarnik(theta: ThetaMatrix, eta, psi, limit: int) -> tuple[Fraction, tuple[int, ...]]:
    eta = [rat(e) for e in eta]
    if isinstance(psi, PowerLaw):
        p, q, c = psi.sigma_num, psi.sigma_den, psi.c
        return scan_min(theta, eta, limit, lambda r, s: r**p * (c * s) ** q)
    assert isinstance(psi, DecayTable)
    rho_cache = {s: decay_rho(psi, s) for s in range(psi.s_min, limit + 1)}
    return scan_min(
        theta, eta, limit, lambda r, s: r * rho_cache[s] if s in rho_cache else None
    )


def canonical_sign(y: tuple[int, ...]) -> bool:
    """True iff the first nonzero entry is positive (one vector per ±pair)."""
    for c in y:
        if c != 0:
            return c > 0
    return False


def psi_theta(theta: ThetaMatrix, t: int) -> Fraction:
    best: Optional[Fraction] = None
    for y in itertools.product(range(-t, t + 1), repeat=theta.n):
        if all(c == 0 for c in y):
            continue
        q = theta.dual_quality(y)
        if best is None or q < best:
            best = q
            if best == 0:
                break
    assert best is not None
    return best


def best_approximations(theta: ThetaMatrix, t_max: int) -> list[ResonanceEntry]:
    shells: dict[int, list[tuple[int, ...]]] = {}
    for y in itertools.product(range(-t_max, t_max + 1), repeat=theta.n):
        if not canonical_sign(y):
            continue
        nsq = sum(c * c for c in y)
        shells.setdefault(nsq, []).append(y)
    records: list[ResonanceEntry] = []
    best: Optional[Fraction] = None
    for nsq in sorted(shells):
        shell_best: Optional[tuple[Fraction, tuple[int, ...]]] = None
        for y in sorted(shells[nsq]):
            q = theta.dual_quality(y)
            if shell_best is None or (q, y) < shell_best:
                shell_best = (q, y)
        assert shell_best is not None
        q, y = shell_best
        if best is None or q < best:
            records.append(ResonanceEntry(y, nsq, q))
            best = q
            if q == 0:
                break
    return records


def decay_steps(theta: ThetaMatrix, t_max: int) -> list[tuple[int, str]]:
    """The steps of verify_decay_bound: one full box per t, filtered to its shell."""
    running: Optional[Fraction] = None
    steps: list[tuple[int, str]] = []
    for t in range(1, t_max + 1):
        shell_min: Optional[Fraction] = None
        for y in itertools.product(range(-t, t + 1), repeat=theta.n):
            if max(abs(c) for c in y) != t or not canonical_sign(y):
                continue
            q = theta.dual_quality(y)
            if shell_min is None or q < shell_min:
                shell_min = q
        if shell_min is not None and (running is None or shell_min < running):
            running = shell_min
            steps.append((t, rat_str(running)))
    return steps


# -- the box walk ----------------------------------------------------------------
#
# The integer box walk that served every brute-force scan before the lattice
# routes: fast enough to hold them to larger boxes than the Fraction loops
# above, and written with none of their lattice arithmetic.

#: Most points one chunk of ``box_distances`` holds; bounds its memory.
CHUNK = 4096


def sup_norms(head_norm: int, lo: int, hi: int) -> Iterator[int]:
    """max(head_norm, |x|) for x = lo, ..., hi - 1, as C-level ranges."""
    return itertools.chain(
        range(-lo, -min(hi, -head_norm), -1),
        itertools.repeat(head_norm, max(0, min(hi, head_norm + 1) - max(lo, -head_norm))),
        range(max(lo, head_norm + 1), hi),
    )


def box_distances(
    coeffs: Sequence[Sequence[int]],
    offsets: Sequence[int],
    den: int,
    limit: int,
    half: bool = False,
) -> Iterator[tuple[tuple[int, ...], int, list[int]]]:
    """Walk the integer box [-limit, limit]^k in lex order, a chunk at a time.

    Form f at the point x is ``offsets[f] + sum_i coeffs[i][f] * x_i`` over
    the denominator ``den``.  Yields ``(head, lo, nums)``: head is
    (x_1, ..., x_{k-1}), and nums[j] is the numerator over den of
    max_f ||form_f|| at the point head + (lo + j,), i.e. the largest
    ``int_dist`` of the forms.  Chunks hold at most CHUNK consecutive
    points of one innermost row.  With ``half`` only the points after the
    origin in lex order are walked: those whose first nonzero entry is
    positive, one of each +/- pair.

    Along a row each form is the progression ``(b + a * x) mod den``; it is
    shifted by h = den // 2 so that the distance is ``|v - h|`` with
    v = (b + h + a * x) mod den, and every pass is a C-level ``map``.
    """
    k = len(coeffs)
    h = den // 2
    steps = [c % den for c in coeffs[-1]]
    heads: Iterator[tuple[int, ...]] = itertools.product(
        range(-limit, limit + 1), repeat=k - 1
    )
    if half:  # the zero head sits in the middle of the product
        heads = itertools.islice(heads, ((2 * limit + 1) ** (k - 1) - 1) // 2, None)
    for head in heads:
        base = [
            off + h + sum(row[f] * x for row, x in zip(coeffs, head))
            for f, off in enumerate(offsets)
        ]
        lo = 1 if half and not any(head) else -limit
        while lo <= limit:
            count = min(CHUNK, limit + 1 - lo)
            forms = []
            for b, a in zip(base, steps):
                b = (b + a * lo) % den
                vals = (
                    map(operator.mod, range(b, b + a * count, a), itertools.repeat(den))
                    if a else itertools.repeat(b, count)
                )
                forms.append(map(abs, map(operator.sub, vals, itertools.repeat(h))))
            yield head, lo, list(forms[0] if len(forms) == 1 else map(max, *forms))
            lo += count


def powers(e: int) -> Callable[[Iterable[int]], Iterable[int]]:
    """Size weights s -> s^e, applied to a stream of sizes."""
    return lambda sizes: sizes if e == 1 else map(pow, sizes, itertools.repeat(e))


def box_min(
    theta: ThetaMatrix,
    eta: Sequence[Fraction],
    limit: int,
    power: int,
    weights: Callable[[Iterable[int]], Iterable[int]],
    s_floor: int = 1,
) -> tuple[int, int, tuple[int, ...]]:
    """Exact min of (D r(x))^power * w(s) over s_floor <= s <= limit, by a
    walk of the whole box.

    r(x) = max_j || sum_i theta[i][j] x_i  -  eta[j] ||, s = max|x_i|, and
    D is the common denominator of theta and eta, so every key is an
    integer; ``weights`` maps a stream of sizes s to their integer weights
    w(s).  Returns (key, D, argmin).  The box is walked in lex order and a
    later point wins only with a strictly smaller key, so ties go to the
    lex-smallest x.
    """
    m, n = theta.shape
    den, ints = over_common_denominator([x for row in theta.rows for x in row] + list(eta))
    coeffs = [ints[i * n:(i + 1) * n] for i in range(m)]
    offsets = [-v for v in ints[m * n:]]
    best: Optional[tuple[int, tuple[int, ...]]] = None
    for head, lo, nums in box_distances(coeffs, offsets, den, limit):
        head_norm = max(map(abs, head), default=0)
        hi = lo + len(nums)
        if head_norm >= s_floor:
            spans = [(lo, hi)]
        else:  # sizes below s_floor sit in the middle of the row
            spans = [(lo, min(hi, 1 - s_floor)), (max(lo, s_floor), hi)]
        for a, b in spans:
            if a >= b:
                continue
            part = nums[a - lo:b - lo]
            if power != 1:
                part = map(pow, part, itertools.repeat(power))
            keys = list(map(operator.mul, part, weights(sup_norms(head_norm, a, b))))
            low = min(keys)
            if best is None or low < best[0]:
                best = (low, head + (a + keys.index(low),))
    assert best is not None
    return best[0], den, best[1]


def rho_upto(table: DecayTable, limit: int) -> list[int]:
    """[rho(s) for s in s_min..limit] of a DecayTable, in one merge pass
    over the table.

    1/psi_i <= s  iff  s >= ceil(1/psi_i), and these thresholds increase
    with i, so rho only moves forward as s grows.
    """
    if limit > table.s_max:
        raise TableRangeExceeded(f"limit {limit} beyond table coverage {table.s_max}")
    thresholds = table.thresholds
    out, i = [], 0
    for s in range(table.s_min, limit + 1):
        while i + 1 < len(thresholds) and thresholds[i + 1] <= s:
            i += 1
        out.append(table.sizes[i])
    return out


def box_walk(theta, eta, limit, power, weight):
    """``box_min`` with the weight ``certify._scan_min`` takes: an exponent q
    or a DecayTable, whose window is read through ``rho_upto``."""
    if isinstance(weight, DecayTable):
        rho = [0] * weight.s_min + rho_upto(weight, limit)
        return box_min(theta, eta, limit, power,
                       lambda sizes: map(rho.__getitem__, sizes), weight.s_min)
    return box_min(theta, eta, limit, power, powers(weight))


def _dual_forms(theta: ThetaMatrix) -> tuple[list[list[int]], int]:
    den, ints = over_common_denominator([x for row in theta.rows for x in row])
    n = theta.n
    return [ints[j::n] for j in range(n)], den


def shell_records(
    theta: ThetaMatrix, t: int, *shells
) -> tuple[list[list[tuple[int, int, int]]], int]:
    """Strict records of the dual quality over shells in increasing order,
    for each shell function from one walk of the box.

    Scans one vector of each +/- pair in [-t, t]^n (lex order, first nonzero
    entry positive); ``shell(head, lo, hi)`` gives the shell of each point
    of a chunk.  A shell's minimum is a record iff it is strictly below the
    minimum of every earlier shell.  Returns ([found per shell function], D)
    with found = [(rank, shell, num)]: rank is the lex-first minimizer's
    position in the scan and num/D its quality.
    """
    coeffs, den = _dual_forms(theta)
    width = den // 2 + 1  # every distance numerator is at most den // 2
    total = ((2 * t + 1) ** theta.n - 1) // 2  # points in the scan
    keys: list[list[int]] = [[] for _ in shells]  # (shell * width + num) * total + rank
    scanned = 0
    for head, lo, nums in box_distances(coeffs, [0] * theta.m, den, t, half=True):
        ranks = range(scanned, scanned + len(nums))
        for shell, shell_keys in zip(shells, keys):
            shells_at = shell(head, lo, lo + len(nums))
            scaled = map(operator.mul, shells_at, itertools.repeat(width))
            shell_nums = map(operator.add, scaled, nums)
            shell_keys += map(operator.add, map(operator.mul, shell_nums, itertools.repeat(total)),
                              ranks)
        scanned += len(nums)
    return [lowered(shell_keys, width, total) for shell_keys in keys], den


def lowered(keys: list[int], width: int, total: int) -> list[tuple[int, int, int]]:
    """The (rank, shell, num) of each shell whose minimum is a strict record."""
    keys.sort()  # by shell, then quality, then lex order
    nums = map(operator.mod, map(operator.floordiv, keys, itertools.repeat(total)),
               itertools.repeat(width))
    prev, cur = itertools.tee(itertools.accumulate(nums, min))
    drops = itertools.chain((True,), map(operator.lt, itertools.islice(cur, 1, None), prev))
    found = []
    for key in itertools.compress(keys, drops):
        shell_num, rank = divmod(key, total)
        found.append((rank, *divmod(shell_num, width)))
    return found


def euclidean_shells(head, lo, hi):
    return map(sum(c * c for c in head).__add__, map(operator.mul, range(lo, hi), range(lo, hi)))


def sup_norm_shells(head, lo, hi):
    return sup_norms(max(map(abs, head), default=0), lo, hi)


def unrank_half(rank: int, t: int, n: int) -> tuple[int, ...]:
    """The rank-th point after the origin of [-t, t]^n in lex order."""
    index = ((2 * t + 1) ** n - 1) // 2 + 1 + rank
    digits = []
    for _ in range(n):
        index, d = divmod(index, 2 * t + 1)
        digits.append(d - t)
    return tuple(reversed(digits))


def walk_records_and_steps(theta: ThetaMatrix, t: int):
    """(best_approximations, psi_steps) of theta over [-t, t]^n, both shell
    sorts fed from one walk of the box."""
    (records, steps), den = shell_records(theta, t, euclidean_shells, sup_norm_shells)
    return (
        [ResonanceEntry(unrank_half(rank, t, theta.n), nsq, Fraction(num, den))
         for rank, nsq, num in records],
        [(s, Fraction(num, den)) for _, s, num in steps],
    )


# -- the construction path ---------------------------------------------------


def derive_params(alpha, beta, lacunarity, dimension: int) -> StrategyParams:
    """derive_params with the float cap measure and the plane-budget scan
    on Fraction powers (valid inputs only: the range checks are not
    repeated here)."""
    a, b, m = rat(alpha), rat(beta), rat(lacunarity)
    gamma = 1 + a * b - 2 * a
    p = a * b
    t = 1
    pt = p
    while not 2 * pt < gamma:
        t += 1
        pt *= p
    omega = cap_measure_lb_float(gamma, pt, dimension)
    one_minus = 1 - omega
    c = 0
    pow_c = Fraction(1)
    inv_p = 1 / p
    k_found: Optional[tuple[int, int]] = None
    for k in range(1, 100_001):
        while k * pow_c > 1:
            c += 1
            pow_c *= one_minus
        tau = t * c
        if inv_p**tau < m ** (k - 2):
            k_found = (k, tau)
            break
    if k_found is None:
        raise ScheduleInfeasible("no plane budget satisfies the schedule inequality")
    k, tau = k_found
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
        margin=gamma / (4 * m ** (k + 2)),
    )


def nearest_family(seq: ResonanceSequence, center) -> tuple[int, Fraction]:
    """(r, u_r·center - round(u_r·center)) minimizing |residual| / |u_r|,
    compared on cross-multiplied Fraction squares; ties to the smallest r."""
    best_r: Optional[int] = None
    best_res: Optional[Fraction] = None
    for r in range(1, len(seq) + 1):
        s = sum((Fraction(x) * Fraction(y) for x, y in zip(seq.vector(r), center)), Fraction(0))
        res = s - round(s)
        if best_r is None or (
            res * res * seq.norm_sq_of(best_r) < best_res * best_res * seq.norm_sq_of(r)
        ):
            best_r, best_res = r, res
    return best_r, best_res


class RandomBlack:
    """RandomBlack by its first route: each coordinate of the grid point drawn
    by randrange(2K + 1) - K and scaled by the Fraction (1 - beta) / K."""

    def __init__(self, seed: int = 0):
        self.rng = Random(seed)

    def __call__(self, state):
        n, k = state.ball.dimension, 512
        while True:
            pt = [self.rng.randrange(2 * k + 1) - k for _ in range(n)]
            if sum(c * c for c in pt) <= k * k:
                break
        beta = state.params.beta
        return tuple(Fraction(c * (beta.denominator - beta.numerator), beta.denominator * k)
                     for c in pt), None


class GreedyBlack:
    """Greedy Black in Fraction arithmetic, rationalizing its chase direction
    afresh on every move."""

    def __init__(self, seq: ResonanceSequence):
        self.seq = seq

    def __call__(self, state):
        r, res = nearest_family(self.seq, state.ball.center)
        if res == 0:
            return (Fraction(0),) * state.ball.dimension, f"on family {r}"
        direction = rational_unit_direction(scale(self.seq.vector(r), -1 if res > 0 else 1))
        return scale(direction, 1 - state.params.beta), f"chasing family {r}"


# -- the strategy's predicates and the 1x1 records ----------------------------


def dangerous_hyperplanes(
    ball: Ball, seq: ResonanceSequence, r_lo: int, r_hi: int
) -> list[tuple[int, Hyperplane]]:
    """schedule.dangerous_hyperplanes in Fraction arithmetic: the scale test
    4 R^2 |u|^2 > 1 and a = round(u·center)."""
    out = []
    for r in range(r_lo + 1, r_hi + 1):
        u = seq.vector(r)
        if 4 * ball.radius * ball.radius * seq.norm_sq_of(r) > 1:
            raise InvariantError(
                f"family {r} has multiple reachable offsets at radius {ball.radius}; "
                "schedule should have prevented this"
            )
        out.append((r, Hyperplane(u, round(dot(u, ball.center)))))
    return out


def gather_block_planes(
    ball: Ball, seq: ResonanceSequence, sched: BlockSchedule, block: int
) -> list[HandledPlane]:
    """strategy.gather_block_planes in Fraction arithmetic: the lean
    u·center - a, the margin 1 - |lean| - epsilon, and the second offset when
    margin^2 <= |u|^2 R^2."""
    params = sched.params
    lo, hi = sched.handled_range(block)
    out: list[HandledPlane] = []
    for r, plane in dangerous_hyperplanes(ball, seq, lo, hi):
        out.append(HandledPlane(r, plane, block))
        lean = dot(plane.normal, ball.center) - plane.offset
        margin = 1 - abs(lean) - params.margin
        if margin <= 0:
            raise ScheduleInfeasible(
                f"family {r}: margin to the second offset is non-positive"
            )
        if margin * margin <= plane.norm_sq * ball.radius * ball.radius:
            a2 = plane.offset + (1 if lean >= 0 else -1)
            out.append(HandledPlane(r, Hyperplane(plane.normal, a2), block))
    if len(out) > params.plane_budget - 1:
        raise ScheduleInfeasible(
            f"block {block} gathered {len(out)} planes; the avoidance "
            f"guarantee needs at most {params.plane_budget - 1}"
        )
    return out


def family_clear(radius: Fraction, norm_sq: int, s: Fraction, margin: Fraction) -> bool:
    """With f = s - floor(s), both f - margin and 1 - f - margin are positive
    and exceed |u|*radius, on squares."""
    f = s - floor_frac(s)
    reach_sq = norm_sq * radius * radius
    a1 = f - margin
    a2 = 1 - f - margin
    if a1 <= 0 or a2 <= 0:
        return False
    return a1 * a1 > reach_sq and a2 * a2 > reach_sq


def certificate(trace: GameTrace, seq: ResonanceSequence, sched: BlockSchedule) -> Certificate:
    """strategy.certificate in Fraction arithmetic, on the gathers and the
    clearance test above; residual_lb is |s - a| less a 64-bit upper bound on
    |u|*radius, floored to a multiple of 2^-30 when that stays positive."""
    params = sched.params
    if 2 * sched.blocks * params.avoidance_rounds > len(trace.moves):
        raise ValueError("trace does not cover the full schedule")
    handled: list[HandledPlane] = []
    for b in range(sched.blocks):
        handled.extend(gather_block_planes(block_start_ball(trace, sched, b), seq, sched, b))
    final = trace.final_ball
    violations: list[dict] = []
    entries: list[CertificateEntry] = []
    for h in handled:
        s = dot(h.plane.normal, final.center)
        if not family_clear(final.radius, h.plane.norm_sq, s, params.margin):
            violations.append({"r": h.r, "block": h.block, "offset": h.plane.offset,
                               "residual": rat_str(abs(s - round(s)))})
            continue
        reach = Fraction(sqrt_bounds(h.plane.norm_sq * final.radius**2)[1], 1 << 64)
        lb = abs(s - h.plane.offset) - reach
        compact = Fraction(floor_frac(lb * (1 << 30)), 1 << 30)
        entries.append(CertificateEntry(h.r, h.plane.normal, h.plane.offset, h.block,
                                        compact if compact > 0 else lb))
    if violations:
        raise CertificateFailed(violations)
    return Certificate(params, sched.rho0, sched.blocks, sched.cuts[-1],
                       final.center, final.radius, entries)


def plane_sign(ball: Ball, plane: Hyperplane) -> int:
    """The sign of the Fraction residual u·center - a, or the normal's
    lexicographic sign when it is 0."""
    s0 = plane.residual(ball.center)
    return 1 if s0 > 0 else -1 if s0 < 0 else lex_sign(plane.normal)


def absorbed(ball: Ball, plane: Hyperplane, gamma: Fraction) -> bool:
    """dist(ball, plane) > gamma * radius on Fraction squares."""
    r = plane.residual(ball.center)
    return r * r > plane.norm_sq * ball.radius * ball.radius * (1 + gamma) ** 2


def best_approximations_cf(theta: ThetaMatrix, t_max: int) -> list[ResonanceEntry]:
    """The strict quality records among the convergent denominators q <= t_max,
    each quality nearest_int_dist(theta * q) as a Fraction."""
    value = theta.rows[0][0]
    records: list[ResonanceEntry] = []
    best: Optional[Fraction] = None
    for _, q in convergents(value):
        if q > t_max:
            break
        qual = nearest_int_dist(value * q)
        if best is None or qual < best:
            records.append(ResonanceEntry((q,), q * q, qual))
            best = qual
    return records


def ratio_error(entries: Sequence[ResonanceEntry], lacunarity: Fraction) -> Optional[str]:
    """The message ResonanceSequence raises for the first consecutive pair
    whose Fraction ratio of squared sizes leaves [M^2, M^4], or None."""
    m2 = lacunarity**2
    m4 = m2 * m2
    for prev, cur in zip(entries, entries[1:]):
        ratio_sq = Fraction(cur.norm_sq, prev.norm_sq)
        if not m2 <= ratio_sq <= m4:
            return (f"size ratio^2 {ratio_sq} outside [M^2, M^4] between "
                    f"{prev.vector} and {cur.vector}")
    return None


def lacunary_normalize(records: Iterable[ResonanceEntry], lacunarity) -> ResonanceSequence:
    """resonance.lacunary_normalize on Fraction ratios, padding with the
    least s whose s^2 reaches the Fraction target M^2 t^2."""
    m = rat(lacunarity)
    m2 = m * m
    m4 = m2 * m2
    pending = [r for r in records if r.quality != 0]
    dim = len(pending[0].vector)
    out: list[ResonanceEntry] = [pending[0]]
    for rec in pending[1:]:
        while True:
            last_sq = out[-1].norm_sq
            ratio_sq = Fraction(rec.norm_sq, last_sq)
            if ratio_sq < m2:
                break
            if ratio_sq <= m4:
                out.append(rec)
                break
            target = m2 * last_sq
            s = math.isqrt(math.ceil(target))
            while s * s < target:
                s += 1
            out.append(ResonanceEntry((s,) + (0,) * (dim - 1), s * s, None))
    return ResonanceSequence(tuple(out), m)


# -- the engine ----------------------------------------------------------------


def contains_ball(outer: Ball, inner: Ball) -> bool:
    """inner ⊆ outer in Fraction arithmetic: ||c_i - c_o||^2 <= (R - r)^2."""
    assert len(inner.center) == len(outer.center)
    slack = outer.radius - inner.radius
    if slack < 0:
        return False
    return sum((a - b) ** 2 for a, b in zip(inner.center, outer.center)) <= slack * slack


def integer_contains_ball(outer: Ball, inner: Ball) -> bool:
    """inner ⊆ outer by the engine's legality predicate: c_i - c_o over the
    two centers' common denominator, within slack R - r (the integer test
    that Ball.contains_ball made before replay took it over)."""
    n = len(outer.center)
    if len(inner.center) != n:
        raise ValueError(f"dimension mismatch: {len(inner.center)} vs {n}")
    den, nums = over_common_denominator(inner.center + outer.center)
    disp = [a - b for a, b in zip(nums[:n], nums[n:])]
    slack = outer.radius - inner.radius
    return within_slack(disp, den, slack.numerator, slack.denominator)


def run_game_absolute(
    params: GameParams, initial: Ball, white, black, rounds: int
) -> GameTrace:
    """run_game on absolute centers: each reply center is c + R*s, a
    Fraction sum, and the reply ball must pass contains_ball."""
    trace = GameTrace(params, initial)
    current = initial
    index = 0
    for _ in range(rounds):
        for turn, policy, rho in (("W", white, params.alpha), ("B", black, params.beta)):
            step, note = policy(GameState(params, current, index, turn))
            if len(step) != params.dimension:
                raise ValueError("dimension mismatch")
            center = add(current.center, scale(step, current.radius))
            reply = Ball(center, rho * current.radius)
            if not contains_ball(current, reply):
                raise IllegalMove(turn, index, reply.center, "reply ball leaves current ball")
            trace.moves.append(MoveRecord(turn, reply, note))
            current = reply
            index += 1
    return trace


def trace_json(trace: GameTrace) -> str:
    """The trace file's text as the generic JSON encoder writes it."""
    return json.dumps(trace.to_jsonable(), indent=2, sort_keys=True)


def certificate_json(cert) -> str:
    """The certificate's text as the generic JSON encoder writes it."""
    return json.dumps(cert.to_jsonable(), indent=2, sort_keys=True)


# -- cap selection -------------------------------------------------------------


def cap_member(plane: Hyperplane, sgn: int, direction: Vec, gamma: Fraction) -> bool:
    """Is the unit direction within angle arcsin(gamma/2) of the outward
    normal?  Decided on squares: with A = sgn*(u · x̂),
        A > 0  and  A^2 >= |u|^2 (1 - gamma^2/4).
    """
    a = sgn * dot(plane.normal, direction)
    if a <= 0:
        return False
    return a * a >= plane.norm_sq * (1 - gamma * gamma / 4)


def strong_cap_member(
    plane: Hyperplane, sgn: int, direction: Vec, gamma: Fraction, shrink_t: Fraction
) -> bool:
    """Membership in the reduced cap that makes the escape absorbing.

    Requires  A*(gamma/2) > sqrt(U_perp^2 (1-gamma^2/4)) + sqrt(|u|^2 m^2)
    with U_perp^2 = |u|^2 - A^2 and m = gamma*shrink_t (shrink_t =
    (alpha*beta)^escape_rounds).  Equivalent to the angle being below
    arcsin(gamma/2) - arcsin(gamma*shrink_t).  Decided by double squaring.
    """
    a = sgn * dot(plane.normal, direction)
    if a <= 0:
        return False
    u_perp_sq = plane.norm_sq - a * a
    if u_perp_sq < 0:
        raise InvariantError("direction is not a unit vector")
    g2 = gamma * gamma
    return gt_sum_two_sqrt(
        a * gamma / 2,
        u_perp_sq * (1 - g2 / 4),
        plane.norm_sq * g2 * shrink_t * shrink_t,
    )


def verified_miss(
    ball: Ball, plane: Hyperplane, sgn: int, direction: Vec, gamma: Fraction
) -> bool:
    """Exact check that the whole guaranteed end-region avoids the plane.

    Every point reachable after the drive lies in
      D = {center + d : x̂·d >= (gamma/2) rho, |d| <= rho};
    along D the signed residual is minimized at height (gamma/2) rho, giving
      min >= |s0| + rho*(A*(gamma/2) - sqrt(U_perp^2 (1-gamma^2/4))).
    Positivity of that bound is decided by one squaring.
    """
    a = sgn * dot(plane.normal, direction)
    if a <= 0:
        return False
    s_abs = abs(plane.residual(ball.center))
    u_perp_sq = plane.norm_sq - a * a
    lhs = s_abs / ball.radius + a * gamma / 2
    return gt_sqrt(lhs, u_perp_sq * (1 - gamma * gamma / 4))


def stereo_unit(w: Sequence[Fraction], n: int, axis: int, sign: int) -> Vec:
    """Inverse stereographic projection of a rational chart point w in Q^(n-1):
    d_axis = s(1-|w|^2)/(1+|w|^2) and d_j = 2 w_j/(1+|w|^2) over the other
    axes, so |d| = 1 identically."""
    wsq = sum((x * x for x in w), Fraction(0))
    lift = 1 + wsq
    d = [Fraction(0)] * n
    d[axis] = Fraction(sign) * (1 - wsq) / lift
    rest = [i for i in range(n) if i != axis]
    for j, i in enumerate(rest):
        d[i] = 2 * w[j] / lift
    return tuple(d)


def rational_unit_direction(v: Sequence) -> Vec:
    """geometry.rational_unit_direction with its chart points lifted by
    stereo_unit: the same chart, denominator bounds, refinement schedule and
    float tolerance, each round's lift taken in Fractions."""
    v = tuple(map(Fraction, v))
    n = len(v)
    if not any(v):
        raise ValueError("cannot normalize the zero vector")
    nonzero = [i for i, x in enumerate(v) if x]
    if len(nonzero) == 1:
        i = nonzero[0]
        return tuple(Fraction(0 if j != i else 1 if v[i] > 0 else -1) for j in range(n))
    fv = [float(x) for x in v]
    fnorm = math.sqrt(math.fsum(x * x for x in fv))
    target = [x / fnorm for x in fv]
    axis, sign, w_ideal = stereo_chart(target)
    max_den = 1 << 20
    for _ in range(8):
        d = stereo_unit([Fraction(x).limit_denominator(max_den) for x in w_ideal], n, axis, sign)
        if math.sqrt(math.fsum((float(x) - t) ** 2 for x, t in zip(d, target))) < DIRECTION_TOL:
            return d
        max_den <<= 14
    raise InvariantError("direction refinement failed to reach tolerance")


LDS_STEPS = [math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19)]
CHART_DENOM = 1 << 12


def grid_direction(idx: int, n: int) -> Vec:
    """select_cap's grid candidate idx as a Fraction vector: a
    low-discrepancy chart point with coordinates in (1/2^12)Z, lifted by
    stereo_unit on axis idx mod n with a sign that alternates every n."""
    axis = idx % n
    sign = 1 if (idx // n) % 2 == 0 else -1
    base = idx // (2 * n) + 1
    w = []
    for j in range(n - 1):
        val = (0.5 + base * LDS_STEPS[j % len(LDS_STEPS)]) % 1.0
        w.append(Fraction(round((2 * val - 1) * 2 * CHART_DENOM), CHART_DENOM))
    return stereo_unit(w, n, axis, sign)


def random_direction(rng: Random, n: int) -> Vec:
    """select_cap's random candidate as a Fraction vector: a Gaussian draw,
    charted by stereo_chart, rounded to (1/2^12)Z and lifted by stereo_unit."""
    v = [rng.gauss(0.0, 1.0) for _ in range(n)]
    norm = math.sqrt(math.fsum(x * x for x in v))
    if norm == 0.0:
        return stereo_unit((), n, 0, 1) if n == 1 else grid_direction(0, n)
    axis, sign, w = stereo_chart([x / norm for x in v])
    w = [Fraction(round(x * CHART_DENOM), CHART_DENOM) for x in w]
    return stereo_unit(w, n, axis, sign)


def cap_candidates(
    ball: Ball, planes: Sequence[Hyperplane], params: StrategyParams, *, seed: int = 0
) -> dict[Vec, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every candidate escape.select_cap judges, in the order tried, with
    its (strong, escaped) plane indices from the Fraction predicates above:
    the same candidates in the same order, the same rounds, quota and
    bound."""
    n = params.dimension
    gamma = params.gamma
    shrink_t = params.shrink**params.escape_rounds
    quota = ceil_frac(params.cap_measure_lb * len(planes))
    signs = [plane_sign(ball, p) for p in planes]
    results: dict[Vec, tuple[tuple[int, ...], tuple[int, ...]]] = {}  # in order tried

    def consider(direction: Vec) -> None:
        if direction in results:
            return
        strong = tuple(
            j for j, (p, sgn) in enumerate(zip(planes, signs))
            if strong_cap_member(p, sgn, direction, gamma, shrink_t)
        )
        esc = tuple(
            j for j, (p, sgn) in enumerate(zip(planes, signs))
            if cap_member(p, sgn, direction, gamma)
            and verified_miss(ball, p, sgn, direction, gamma)
        )
        assert set(strong) <= set(esc), "strong hit without verified miss"
        results[direction] = (strong, esc)

    def best_strong() -> int:
        return max(len(strong) for strong, _ in results.values())

    if n == 1:
        consider((Fraction(1),))
        consider((Fraction(-1),))
    else:
        for p, sgn in zip(planes, signs):
            consider(rational_unit_direction(scale(p.normal, sgn)))
        rng = Random(seed)
        grid_start, budget = 0, escape.INITIAL_BUDGET
        while True:
            for i in range(grid_start, budget):
                consider(grid_direction(i, n))
            grid_start = budget
            for _ in range(budget // 2):
                consider(random_direction(rng, n))
            if best_strong() >= quota or len(results) >= escape.MAX_CANDIDATES:
                break
            budget *= 2
    return results


def select_cap(
    ball: Ball, planes: Sequence[Hyperplane], params: StrategyParams, *, seed: int = 0
) -> CapSelection:
    """escape.select_cap on cap_candidates: the most strong hits, then the
    most escaped planes, then the lexicographically least Fraction vector."""
    quota = ceil_frac(params.cap_measure_lb * len(planes))
    results = cap_candidates(ball, planes, params, seed=seed)
    best_strong = max(len(strong) for strong, _ in results.values())
    if best_strong < quota:
        raise SelectionExhausted(quota, best_strong, len(results))
    direction = min(results, key=lambda d: (-len(results[d][0]), -len(results[d][1]), d))
    strong, esc = results[direction]
    return CapSelection(direction, esc, strong, len(results))


def halfspace_contains_ball(hs: Halfspace, ball: Ball) -> bool:
    """Halfspace.contains_ball in Fraction arithmetic: the height of the
    center above the anchor, less the threshold, is at least the radius."""
    height = sum((d * (c - a) for d, c, a in zip(hs.direction, ball.center, hs.anchor)), Fraction(0))
    return height - hs.threshold >= ball.radius


# -- the spherical-cap measure -------------------------------------------------


def cap_fraction_angular(radius: float, n: int) -> float:
    """Normalized (n-1)-sphere measure of a cap of angular radius `radius`.

    n = 1: the 0-sphere is two points; any positive radius captures one of
    them, fraction 1/2.  n = 2: arc fraction radius/pi.  n >= 3: the standard
    sin^(n-2) integral ratio, evaluated with mpmath.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not 0 < radius <= math.pi:
        raise ValueError(f"angular radius out of range: {radius}")
    if n == 1:
        return 0.5 if radius < math.pi else 1.0
    if n == 2:
        return radius / math.pi
    import mpmath

    with mpmath.workdps(40):
        num = mpmath.quad(lambda t: mpmath.sin(t) ** (n - 2), [0, radius])
        den = mpmath.quad(lambda t: mpmath.sin(t) ** (n - 2), [0, mpmath.pi])
        return float(num / den)


def cap_fraction(gamma, n: int) -> float:
    """Fraction of the unit sphere within angle arcsin(gamma/2) of a point."""
    g = float(Fraction(gamma))
    if not 0 < g < 2:
        raise ValueError("gamma must lie in (0, 2)")
    return cap_fraction_angular(math.asin(g / 2), n)


def cap_measure_lb_float(gamma: Fraction, shrink_t: Fraction, n: int) -> Fraction:
    """The float route to schedule._cap_measure_lower_bound: the reduced
    radius asin(gamma/2) - asin(gamma * shrink_t) in floats, its measure by
    cap_fraction_angular, floored at 2^-40 less two steps, at least one."""
    if n == 1:
        return Fraction(1, 2)
    g = float(gamma)
    reduced = math.asin(g / 2) - math.asin(g * float(shrink_t))
    if reduced <= 0:
        raise ScheduleInfeasible("escape margin leaves no usable direction cap")
    w = cap_fraction_angular(reduced, n)
    scaled = math.floor(w * (1 << 40)) - 2
    return Fraction(max(1, scaled), 1 << 40)


def cap_fraction_montecarlo(
    gamma, n: int, samples: int = 1_000_000, seed: int = 0, grid: int = 1200
) -> float:
    """Definitional Monte-Carlo estimate of cap_fraction.

    Works from the defining property rather than the closed form: a unit
    y lies in the cap around x̂ of angular radius arcsin(γ/2) iff y has
    nonnegative inner product with every point of the closed dual cap of
    angular radius arccos(γ/2) around x̂.  We grid that dual cap densely and
    test min_z z·y >= 0 against uniform random directions.  Independent of
    cap_fraction (different formula, different code path) on purpose.
    """
    import numpy as np

    g = float(Fraction(gamma))
    if not 0 < g < 2:
        raise ValueError("gamma must lie in (0, 2)")
    if n == 1:
        # 0-sphere: the cap around +1 is {+1}; uniform on {±1}.
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, 2, size=samples)
        return float(np.mean(draws == 1))

    theta_c = math.acos(g / 2.0)  # dual cap radius
    if n == 2:
        phis = np.linspace(-theta_c, theta_c, grid)
        zs = np.stack([np.cos(phis), np.sin(phis)], axis=1)
    elif n == 3:
        n_rings = max(8, int(round(math.sqrt(grid / 4))))
        n_az = max(16, grid // n_rings)
        polar = np.linspace(0.0, theta_c, n_rings)
        az = np.linspace(0.0, 2 * math.pi, n_az, endpoint=False)
        pp, aa = np.meshgrid(polar, az, indexing="ij")
        zs = np.stack(
            [np.cos(pp).ravel(), (np.sin(pp) * np.cos(aa)).ravel(), (np.sin(pp) * np.sin(aa)).ravel()],
            axis=1,
        )
    else:
        raise NotImplementedError("Monte-Carlo oracle implemented for n <= 3")

    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 50_000
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        y = rng.standard_normal((m, n))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        mins = (y @ zs.T).min(axis=1)
        hits += int(np.count_nonzero(mins >= 0.0))
        done += m
    return hits / samples
