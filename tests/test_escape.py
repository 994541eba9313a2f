"""Escape drives, exact cap membership, direction selection, avoidance."""

import math
from fractions import Fraction
from random import Random

import pytest

from badapprox.engine import GameParams, run_game, concentric
from badapprox.escape import (
    MAX_CANDIDATES,
    AvoidanceDrive,
    PlaneCap,
    SelectionExhausted,
    _grid_direction,
    _random_direction,
    absorbed,
    drive_halfspace,
    integer_direction,
    plane_sign,
    select_cap,
)
from badapprox.exact import InvariantError
from badapprox.geometry import (
    Ball,
    Hyperplane,
    dot,
    norm_sq,
    rational_unit_direction,
    scale,
    stereo_unit,
)
from badapprox.adversaries import RandomBlack
from badapprox.schedule import derive_params
import oracles
from conftest import cap_selection_inputs, escape_drive, long_rational
from oracles import add, cap_member, strong_cap_member, verified_miss

F = Fraction
TINY = Fraction(1, 10**24)
GOLD = dict(alpha=Fraction(1, 4), beta=Fraction(1, 2), lacunarity=3)


def params_n(n):
    return derive_params(GOLD["alpha"], GOLD["beta"], GOLD["lacunarity"], n)


# -- signs, escorts, absorption ----------------------------------------------


def test_plane_sign_and_tie():
    ball = Ball((Fraction(1, 3),), Fraction(1, 10))
    assert plane_sign(ball, Hyperplane((1,), 0)) == 1  # residual 1/3 > 0
    assert plane_sign(ball, Hyperplane((1,), 1)) == -1
    through = Ball((Fraction(0),), Fraction(1, 10))
    # plane through the center: tie broken toward lexicographic sign of u
    assert plane_sign(through, Hyperplane((1,), 0)) == 1
    assert plane_sign(through, Hyperplane((-3,), 0)) == -1


def escort_point(ball, plane):
    """The boundary point of the ball farthest from the plane on the side
    plane_sign picks; its direction is select_cap's first candidate."""
    direction = rational_unit_direction(scale(plane.normal, plane_sign(ball, plane)))
    return add(ball.center, scale(direction, ball.radius))


def test_escort_point_pinned():
    # ball [-1, 1], plane u=10, a=3: center residual -3 -> push to -1
    ball = Ball((Fraction(0),), Fraction(1))
    assert escort_point(ball, Hyperplane((10,), 3)) == (Fraction(-1),)
    assert escort_point(ball, Hyperplane((10,), -3)) == (Fraction(1),)


def test_escort_point_on_tie_uses_lex_direction():
    # plane through the center: the escort goes along sgn*u with
    # sgn = lex_sign(u), here (-1)*(0,-5) -> direction (0,1)
    ball = Ball((Fraction(0), Fraction(0)), Fraction(2))
    p = escort_point(ball, Hyperplane((0, -5), 0))
    assert p == (Fraction(0), Fraction(2))


def test_absorbed_is_strict_at_the_boundary():
    g = Fraction(5, 8)
    ball = Ball((Fraction(0),), Fraction(1))
    # |residual| = |u| * rho * (1+gamma) exactly: NOT absorbed (strict)
    boundary = Fraction(13, 8)  # 1 * 1 * (1 + 5/8)
    assert not absorbed(Ball((boundary,), Fraction(1)), Hyperplane((1,), 0), g)
    assert absorbed(Ball((boundary + TINY,), Fraction(1)), Hyperplane((1,), 0), g)
    assert not absorbed(ball, Hyperplane((1,), 0), g)


def test_absorbed_monotone_under_nesting():
    # once absorbed, any legal successor ball (nested, smaller) stays absorbed
    g = Fraction(5, 8)
    plane = Hyperplane((3,), 1)
    outer = Ball((Fraction(9, 10),), Fraction(1, 4))
    assert absorbed(outer, plane, g)
    rng = Random(11)
    for _ in range(50):
        r = outer.radius * Fraction(rng.randrange(1, 100), 100)
        off = (outer.radius - r) * Fraction(rng.randrange(-99, 100), 100)
        inner = Ball((outer.center[0] + off,), r)
        assert oracles.contains_ball(outer, inner)
        assert absorbed(inner, plane, g)


HAIR = Fraction(1, 2**1500)


def test_absorbed_sign_and_clearance_match_fraction_oracles_on_long_denominators():
    # absorbed, plane_sign and PlaneCap's outward normal and clearance |s0|/rho
    # against their Fraction forms; a ninth of the planes pass through the center
    rng = Random(37)
    seen = set()
    for trial in range(600):
        n = rng.randint(1, 3)
        u = tuple(rng.randint(-50, 50) for _ in range(n - 1)) + (rng.choice([-1, 1]) * rng.randint(1, 50),)
        center = tuple(long_rational(rng, -3, 3) for _ in range(n))
        a = round(dot(u, center)) + rng.randint(-2, 2)
        if trial % 9 == 0:  # move the last coordinate onto the plane
            center = center[:-1] + (center[-1] + (a - dot(u, center)) / u[-1],)
        ball, plane = Ball(center, long_rational(rng, HAIR, Fraction(1, 50))), Hyperplane(u, a)
        gamma = rng.choice([params_n(n).gamma, long_rational(rng, HAIR, Fraction(1))])
        want = oracles.absorbed(ball, plane, gamma)
        assert absorbed(ball, plane, gamma) is want, trial
        sgn = oracles.plane_sign(ball, plane)
        assert plane_sign(ball, plane) == sgn
        cap = PlaneCap(ball, plane, gamma, Fraction(1, 8))
        clearance = abs(plane.residual(ball.center)) / ball.radius
        assert cap.outward == tuple(sgn * c for c in u)
        assert (cap.miss_clearance, cap.miss_lhs) == (
            2 * gamma.denominator * clearance.numerator, gamma.numerator * clearance.denominator)
        seen.add((want, clearance == 0))
    assert seen == {(True, False), (False, False), (False, True)}


@pytest.mark.parametrize("side", [1, -1])
def test_absorbed_is_strict_at_the_boundary_on_long_denominators(side):
    # |u·c - a| = |u| * radius * (1 + gamma) exactly, over 1500-bit denominators
    gamma = params_n(2).gamma
    radius = 7 * HAIR
    for extra, want in ((0, False), (HAIR * HAIR, True), (-HAIR * HAIR, False)):
        target = 4 + side * (5 * radius * (1 + gamma) + extra)
        y = Fraction(5, 3) - HAIR
        ball = Ball(((target - 4 * y) / 3, y), radius)
        assert dot((3, 4), ball.center) == target
        for test in (absorbed, oracles.absorbed):
            assert test(ball, Hyperplane((3, 4), 4), gamma) is want


# -- cap membership vs a float-angle oracle ----------------------------------


def float_angle(u, sgn, d):
    nu = math.sqrt(sum(c * c for c in u))
    cosang = sgn * sum(c * float(x) for c, x in zip(u, d)) / nu
    return math.acos(max(-1.0, min(1.0, cosang)))


def test_cap_member_dimension_one():
    g = Fraction(5, 8)
    p = Hyperplane((1,), 0)
    assert cap_member(p, 1, (Fraction(1),), g)
    assert not cap_member(p, 1, (Fraction(-1),), g)
    assert cap_member(p, -1, (Fraction(-1),), g)


def test_cap_member_matches_angle_oracle_n2():
    g = Fraction(5, 8)
    cap_radius = math.asin(float(g) / 2)
    rng = Random(7)
    params = params_n(2)
    shrink_t = params.shrink**params.escape_rounds
    reduced = cap_radius - math.asin(float(g) * float(shrink_t))
    checked = 0
    for _ in range(300):
        u = (rng.randrange(-9, 10), rng.randrange(-9, 10))
        if u == (0, 0):
            continue
        w = Fraction(rng.randrange(-2**12, 2**12), 2**12)
        raw = (
            Fraction(rng.randrange(-100, 101), 100) + w,
            Fraction(rng.randrange(-100, 101), 100),
        )
        if all(x == 0 for x in raw):
            continue
        d = rational_unit_direction(raw)
        sgn = 1 if rng.random() < 0.5 else -1
        ang = float_angle(u, sgn, d)
        got = cap_member(Hyperplane(u, 0), sgn, d, g)
        if abs(ang - cap_radius) > 1e-6:
            assert got == (ang < cap_radius)
            checked += 1
        got_strong = strong_cap_member(Hyperplane(u, 0), sgn, d, g, shrink_t)
        if abs(ang - reduced) > 1e-6:
            assert got_strong == (ang < reduced)
    assert checked > 100


def test_strong_implies_cap_and_miss():
    params = params_n(2)
    g = params.gamma
    shrink_t = params.shrink**params.escape_rounds
    rng = Random(3)
    ball = Ball((Fraction(1, 7), Fraction(-2, 9)), Fraction(1, 50))
    hits = 0
    for _ in range(400):
        u = (rng.randrange(-6, 7), rng.randrange(-6, 7))
        if u == (0, 0):
            continue
        plane = Hyperplane(u, round(sum(c * x for c, x in zip(u, ball.center))))
        sgn = plane_sign(ball, plane)
        raw = (
            Fraction(rng.randrange(-999, 1000), 999),
            Fraction(rng.randrange(-999, 1000), 999),
        )
        if all(x == 0 for x in raw):
            continue
        d = rational_unit_direction(raw)
        if strong_cap_member(plane, sgn, d, g, shrink_t):
            hits += 1
            assert cap_member(plane, sgn, d, g)
            assert verified_miss(ball, plane, sgn, d, g)
    assert hits > 20


def test_strong_cap_rejects_non_unit_direction():
    params = params_n(2)
    with pytest.raises(InvariantError):
        strong_cap_member(
            Hyperplane((1, 0), 0),
            1,
            (Fraction(2), Fraction(0)),  # |d| = 2: u_perp^2 goes negative
            params.gamma,
            params.shrink,
        )
    with pytest.raises(InvariantError):  # sum v^2 = 4 != L^2 = 1
        integer_direction((Fraction(2), Fraction(0)))


def test_verified_miss_plane_through_center():
    # s0 = 0: the end-region bound reduces to A*(gamma/2) > sqrt(U_perp^2 ...)
    g = Fraction(5, 8)
    ball = Ball((Fraction(0),), Fraction(1, 4))
    assert verified_miss(ball, Hyperplane((1,), 0), 1, (Fraction(1),), g)
    assert not verified_miss(ball, Hyperplane((1,), 0), 1, (Fraction(-1),), g)


# -- integer cap tests vs the Fraction oracles --------------------------------


def integer_decisions(ball, plane, direction, gamma, shrink_t, factor=1):
    """PlaneCap's (cap, strong, miss) on the (v, L) form scaled by factor."""
    cap = PlaneCap(ball, plane, gamma, shrink_t)
    v, el = integer_direction(direction)
    v, el = [factor * x for x in v], factor * el
    a = cap.projection(v)
    return cap.cap_member(a, el * el), cap.strong_cap_member(a, el * el), cap.verified_miss(a, el, el * el)


def oracle_decisions(ball, plane, direction, gamma, shrink_t):
    sgn = oracles.plane_sign(ball, plane)
    return (
        cap_member(plane, sgn, direction, gamma),
        strong_cap_member(plane, sgn, direction, gamma, shrink_t),
        verified_miss(ball, plane, sgn, direction, gamma),
    )


def assert_decisions_match(ball, plane, direction, gamma, shrink_t):
    want = oracle_decisions(ball, plane, direction, gamma, shrink_t)
    for factor in (1, 6):  # the tests are homogeneous in (v, L)
        assert integer_decisions(ball, plane, direction, gamma, shrink_t, factor) == want
    return want


#: u, a rational unit w orthogonal to u, and |u|: directions c*u/|u| + s*w
#: with (c, s) on a Pythagorean point are exact units at a known angle.
FRAMES = {
    2: ((3, 4), (F(-4, 5), F(3, 5)), 5),
    3: ((1, 2, 2), (F(2, 3), F(1, 3), F(-2, 3)), 3),
}


def at_angle(n, cos, sin, sgn=1):
    u, w, norm = FRAMES[n]
    return tuple(sgn * cos * c / norm + sin * x for c, x in zip(u, w))


def lift(t):
    """(cos, sin) of the stereographic chart point t: exactly on the circle."""
    return (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)


def half_angle(cos, sin):
    return sin / (1 + cos)


def ball_at(n, s0, radius=F(1, 64)):
    """A ball whose center has residual s0 against the plane (FRAMES[n] u, 0)."""
    u, _, norm = FRAMES[n]
    return Ball(tuple(s0 * c / norm**2 for c in u), radius)


EPS = F(1, 10**9)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("cos,sin", [(F(4, 5), F(3, 5)), (F(12, 13), F(5, 13)), (F(3, 5), F(4, 5))])
def test_cap_member_at_its_threshold(n, cos, sin):
    # gamma/2 = sin: the direction at angle asin(gamma/2) has A^2 equal to
    # |u|^2 (1 - gamma^2/4), and the cap is closed
    gamma = 2 * sin
    plane = Hyperplane(FRAMES[n][0], 0)
    ball = ball_at(n, F(10**6))  # far away: every cap direction is a verified miss
    d = at_angle(n, cos, sin)
    a = dot(plane.normal, d)
    assert a * a == plane.norm_sq * (1 - gamma * gamma / 4)
    shrink_t = F(1, 64)
    assert assert_decisions_match(ball, plane, d, gamma, shrink_t) == (True, False, True)
    t = half_angle(cos, sin)
    inside, outside = at_angle(n, *lift(t - EPS)), at_angle(n, *lift(t + EPS))
    assert assert_decisions_match(ball, plane, inside, gamma, shrink_t)[0]
    assert not assert_decisions_match(ball, plane, outside, gamma, shrink_t)[0]


def strong_terms(plane, direction, gamma, shrink_t):
    """lhs, x, y of the oracle's gt_sum_two_sqrt call, and D = lhs^2 - x - y."""
    a = dot(plane.normal, direction)
    lhs = a * gamma / 2
    x = (plane.norm_sq - a * a) * (1 - gamma * gamma / 4)
    y = plane.norm_sq * gamma * gamma * shrink_t * shrink_t
    return lhs, x, y, lhs * lhs - x - y


@pytest.mark.parametrize("n", [2, 3])
def test_strong_cap_member_on_the_double_squaring_edges(n):
    plane = Hyperplane(FRAMES[n][0], 0)
    ball = ball_at(n, F(10**6))
    # D^2 = 4xy with D > 0: the direction sits exactly on the reduced cap's
    # rim, at angle asin(gamma/2) - asin(gamma*shrink_t) = A0 - B with
    # sin A0 = 3/5 and sin B = 5/13, so cos and sin of the angle are 63/65, 16/65
    gamma, shrink_t = F(6, 5), F(25, 78)
    d = at_angle(n, F(63, 65), F(16, 65))
    lhs, x, y, dd = strong_terms(plane, d, gamma, shrink_t)
    assert dd > 0 and dd * dd == 4 * x * y
    assert assert_decisions_match(ball, plane, d, gamma, shrink_t) == (True, False, True)
    t = half_angle(F(63, 65), F(16, 65))
    assert assert_decisions_match(ball, plane, at_angle(n, *lift(t - EPS)), gamma, shrink_t)[1]
    assert not assert_decisions_match(ball, plane, at_angle(n, *lift(t + EPS)), gamma, shrink_t)[1]
    # D = 0 with x, y > 0: gamma = 3/2, shrink_t = 3/10 at cos, sin = 4/5, 3/5
    gamma, shrink_t = F(3, 2), F(3, 10)
    d = at_angle(n, F(4, 5), F(3, 5))
    lhs, x, y, dd = strong_terms(plane, d, gamma, shrink_t)
    assert dd == 0 and x > 0 and y > 0
    assert not assert_decisions_match(ball, plane, d, gamma, shrink_t)[1]
    # D = 0 with x = 0: along the normal itself at shrink_t = 1/2
    d = at_angle(n, F(1), F(0))
    for shrink_t, strong in ((F(1, 2), False), (F(1, 2) - EPS, True)):
        lhs, x, y, dd = strong_terms(plane, d, gamma, shrink_t)
        assert x == 0 and (dd == 0) == (shrink_t == F(1, 2))
        assert assert_decisions_match(ball, plane, d, gamma, shrink_t)[1] == strong


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("side", [1, -1])
def test_verified_miss_at_equality(n, side):
    # with sin A0 = gamma/2 = 3/5 and the direction at angle phi (cos 5/13,
    # sin 12/13) off the outward normal, the end-region bound is
    # |s0| + rho |u| (sin A0 cos phi - cos A0 sin phi), zero exactly when
    # |s0| = rho |u| sin(phi - A0) = rho |u| 33/65
    gamma, shrink_t = F(6, 5), F(1, 64)
    _, _, norm = FRAMES[n]
    plane = Hyperplane(FRAMES[n][0], 0)
    rho = F(1, 64)
    tight = rho * norm * F(33, 65)
    d = at_angle(n, F(5, 13), F(12, 13), side)
    for s0, miss in ((tight, False), (tight + EPS, True), (tight - EPS, False)):
        ball = ball_at(n, side * s0, rho)
        assert plane_sign(ball, plane) == side
        got = assert_decisions_match(ball, plane, d, gamma, shrink_t)
        assert got == (False, False, miss)
    a = side * dot(plane.normal, d)
    lhs = tight / rho + a * gamma / 2
    assert lhs * lhs == (plane.norm_sq - a * a) * (1 - gamma * gamma / 4)


def test_integer_direction_takes_the_least_common_denominator():
    assert integer_direction((F(3, 5), F(-4, 5))) == ([3, -4], 5)
    assert integer_direction((F(1, 3), F(2, 3), F(-2, 3))) == ([1, 2, -2], 3)
    assert integer_direction((F(0), F(-1))) == ([0, -1], 1)
    # a lift whose denominator 1 + |w|^2 = 5/4 cancels against its numerators
    assert integer_direction(stereo_unit([F(1, 2)], 2, 0, 1)) == ([3, 4], 5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cap_tests_match_the_fraction_oracles(n):
    rng = Random(70 + n)
    params = params_n(n)
    gammas = [(params.gamma, params.shrink**params.escape_rounds),
              (F(6, 5), F(1, 7)), (F(3, 2), F(3, 10)), (F(1, 3), F(1, 2))]
    seen = set()
    for trial in range(150):
        if trial % 3 == 0:  # integer center: the plane can pass through it
            center = tuple(F(rng.randrange(-3, 4)) for _ in range(n))
        else:
            center = tuple(F(rng.randrange(-500, 501), rng.randrange(1, 60)) for _ in range(n))
        ball = Ball(center, F(1, rng.choice([2, 7, 64, 1000])))
        u = tuple(rng.randrange(-9, 10) for _ in range(n))
        if not any(u):
            u = (0,) * (n - 1) + (-2,)
        offset = round(sum(c * x for c, x in zip(u, center)))
        if trial % 3 != 0:
            offset += rng.randrange(-1, 2)
        plane = Hyperplane(u, offset)
        sgn = plane_sign(ball, plane)
        if n == 1:
            directions = [(F(1),), (F(-1),)]
        else:
            directions = [oracles.grid_direction(rng.randrange(200), n), oracles.random_direction(rng, n)]
            for _ in range(3):  # near the outward normal, where the caps are
                jitter = [F(rng.randrange(-400, 401), 1000) for _ in range(n)]
                directions.append(rational_unit_direction([sgn * c + x for c, x in zip(u, jitter)]))
        for gamma, shrink_t in gammas:
            for d in directions:
                got = assert_decisions_match(ball, plane, d, gamma, shrink_t)
                seen.add((plane.residual(ball.center) == 0,) + got)
    # every reachable combination came up, planes through the center included
    for through in (False, True):
        for combo in [(False, False, False), (True, False, True), (True, True, True)]:
            assert (through,) + combo in seen


def test_select_cap_matches_the_fraction_oracle():
    for ball, planes, params, seed in cap_selection_inputs():
        assert select_cap(ball, planes, params, seed=seed) == oracles.select_cap(
            ball, planes, params, seed=seed
        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_candidate_lift_equals_the_fraction_lift(n):
    # select_cap's (v, L) of every grid index it can reach, and of seeded
    # random draws, is integer_direction of the stereo_unit lift
    for idx in range(MAX_CANDIDATES):
        v, el = integer_direction(oracles.grid_direction(idx, n))
        assert _grid_direction(idx, n) == (tuple(v), el), idx
    for seed in range(4):
        ours, theirs = Random(seed), Random(seed)
        for _ in range(300):
            v, el = integer_direction(oracles.random_direction(theirs, n))
            assert _random_direction(ours, n) == (tuple(v), el)
    # the lift's denominator c^2 + A is at least c^2 = 2^24: below it, the
    # gcd division reduced it, as it must for many grid indices
    assert sum(_grid_direction(idx, n)[1] < 2**24 for idx in range(MAX_CANDIDATES)) >= 500


def test_select_cap_breaks_a_lex_tie_across_denominators():
    # one plane far from the ball: every candidate in its cap clears it, so
    # the best score is shared and the lexicographically least direction
    # wins; the tied candidates have different L, and comparing numerators
    # without cross-multiplying by the other L would pick another one
    params = params_n(2)
    ball = Ball((F(0), F(0)), F(1, 64))
    planes = [Hyperplane((1, 0), -10)]
    results = oracles.cap_candidates(ball, planes, params)
    top = max((len(strong), len(esc)) for strong, esc in results.values())
    tied = [d for d, (strong, esc) in results.items() if (len(strong), len(esc)) == top]
    want = min(tied)
    assert want != tied[0]
    assert len({integer_direction(d)[1] for d in tied}) > 1
    assert min(tied, key=lambda d: integer_direction(d)[0]) != want
    assert select_cap(ball, planes, params) == oracles.select_cap(ball, planes, params)
    assert select_cap(ball, planes, params).direction == want


# -- drive halfspace and the escape guarantee --------------------------------


def test_drive_halfspace_anchored_at_start():
    ball = Ball((Fraction(1, 3),), Fraction(1, 2))
    hs = drive_halfspace(ball, (Fraction(1),), Fraction(5, 8))
    assert hs.anchor == ball.center
    assert hs.threshold == Fraction(5, 32)
    assert not hs.contains_ball(ball)


@pytest.mark.parametrize("n,seed", [(1, 0), (1, 5), (2, 1), (2, 9), (3, 2)])
def test_escape_drive_reaches_halfspace_vs_random(n, seed):
    params = params_n(n)
    gp = GameParams(params.alpha, params.beta, n)
    center = tuple(Fraction(seed % 3 - 1, 7) for _ in range(n))
    ball = Ball(center, Fraction(1, 2))
    direction = rational_unit_direction(tuple(Fraction(1) for _ in range(n)))
    white = escape_drive(direction)
    hs = drive_halfspace(ball, direction, params.gamma)
    tr = run_game(gp, ball, white, RandomBlack(seed=seed), params.escape_rounds)
    assert hs.contains_ball(tr.final_ball)


# -- select_cap ---------------------------------------------------------------


def test_select_cap_dimension_one_majority(golden_params):
    ball = Ball((Fraction(1, 10),), Fraction(1, 4))
    planes = [Hyperplane((1,), 0), Hyperplane((3,), 1), Hyperplane((13,), -2)]
    sel = select_cap(ball, planes, golden_params)
    assert sel.direction in {(Fraction(1),), (Fraction(-1),)}
    assert len(sel.strong) >= 2  # quota = ceil(3/2)
    assert set(sel.strong) <= set(sel.escaped)


def test_select_cap_dimension_one_tie_prefers_lex_smaller(golden_params):
    ball = Ball((Fraction(1, 10),), Fraction(1, 4))
    # two planes pulling in opposite directions: 1 strong hit each way
    planes = [Hyperplane((1,), 0), Hyperplane((1,), 1)]
    sel = select_cap(ball, planes, golden_params)
    assert len(sel.strong) == 1
    assert sel.direction == (Fraction(-1),)  # tie on counts, lex-smaller wins


def test_select_cap_deterministic(golden_params):
    ball = Ball((Fraction(1, 10),), Fraction(1, 4))
    planes = [Hyperplane((1,), 0), Hyperplane((3,), 1)]
    a = select_cap(ball, planes, golden_params, seed=4)
    b = select_cap(ball, planes, golden_params, seed=4)
    assert a == b


def test_select_cap_two_dim_meets_quota_and_verifies():
    params = params_n(2)
    rng = Random(21)
    from badapprox.exact import ceil_frac

    for trial in range(25):
        cx = Fraction(rng.randrange(-50, 51), 100)
        cy = Fraction(rng.randrange(-50, 51), 100)
        ball = Ball((cx, cy), Fraction(1, 64))
        planes = []
        for _ in range(rng.randrange(1, 9)):
            u = (rng.randrange(-9, 10), rng.randrange(-9, 10))
            if u == (0, 0):
                u = (1, 0)
            a = round(sum(c * x for c, x in zip(u, ball.center)))
            planes.append(Hyperplane(u, a))
        sel = select_cap(ball, planes, params, seed=trial)
        assert norm_sq(sel.direction) == 1
        assert len(sel.strong) >= ceil_frac(params.cap_measure_lb * len(planes))
        for j in sel.escaped:
            sgn = plane_sign(ball, planes[j])
            assert verified_miss(ball, planes[j], sgn, sel.direction, params.gamma)


def test_select_cap_requires_planes(golden_params):
    with pytest.raises(ValueError):
        select_cap(Ball((Fraction(0),), Fraction(1)), [], golden_params)


def test_select_cap_exhaustion_is_reported():
    # an impossible quota: pretend the cap covers 99% of the sphere.  The two
    # parallel planes bracket the ball, so their escape caps point opposite
    # ways and no direction can strongly hit both.
    params = oracles.replace(params_n(2), cap_measure_lb=Fraction(99, 100))
    ball = Ball((Fraction(0), Fraction(0)), Fraction(1, 64))
    planes = [Hyperplane((1, 0), 0), Hyperplane((1, 0), 1)]
    with pytest.raises(SelectionExhausted) as ei:
        select_cap(ball, planes, params)
    assert ei.value.quota == 2
    assert ei.value.best_strong <= 1
    assert ei.value.tried >= MAX_CANDIDATES


# -- avoidance drive ----------------------------------------------------------


def test_avoidance_clears_golden_planes(golden_params):
    ball = Ball((Fraction(1, 5),), Fraction(1, 16))
    planes = [Hyperplane((3,), 1), Hyperplane((13,), 3)]
    white = AvoidanceDrive(planes, golden_params, seed=2)
    gp = GameParams(golden_params.alpha, golden_params.beta, 1)
    tr = run_game(gp, ball, white, RandomBlack(seed=8), golden_params.avoidance_rounds)
    for p in planes:
        assert absorbed(tr.final_ball, p, golden_params.gamma)


def test_avoidance_two_dim_clears_all():
    params = params_n(2)
    ball = Ball((Fraction(1, 5), Fraction(-1, 3)), Fraction(1, 64))
    planes = []
    rng = Random(5)
    for _ in range(6):
        u = (rng.randrange(-5, 6), rng.randrange(-5, 6))
        if u == (0, 0):
            u = (2, 1)
        a = round(sum(c * x for c, x in zip(u, ball.center)))
        planes.append(Hyperplane(u, a))
    white = AvoidanceDrive(planes, params, seed=1)
    gp = GameParams(params.alpha, params.beta, 2)
    tr = run_game(gp, ball, white, RandomBlack(seed=3), params.avoidance_rounds)
    for p in planes:
        assert absorbed(tr.final_ball, p, params.gamma)


def test_avoidance_detects_tampered_halfspace(golden_params):
    # corrupting the pending certificate must trip the bug detector, proving
    # the boundary checks are real
    ball = Ball((Fraction(1, 5),), Fraction(1, 16))
    planes = [Hyperplane((13,), 3)]
    white = AvoidanceDrive(planes, golden_params, seed=0)
    gp = GameParams(golden_params.alpha, golden_params.beta, 1)

    class Tamper:
        def __init__(self, inner):
            self.inner = inner
            self.done = False

        def __call__(self, state):
            step, note = self.inner(state)
            if not self.done and self.inner.pending is not None:
                hs, strong = self.inner.pending
                far = oracles.replace(hs, threshold=Fraction(10**6))
                self.inner.pending = (far, strong)
                self.done = True
            return step, note

    with pytest.raises(InvariantError, match="halfspace"):
        run_game(gp, ball, Tamper(white), concentric, golden_params.avoidance_rounds)


def test_avoidance_notes_expose_progress(golden_params):
    ball = Ball((Fraction(1, 5),), Fraction(1, 16))
    white = AvoidanceDrive([Hyperplane((13,), 3)], golden_params, seed=0)
    gp = GameParams(golden_params.alpha, golden_params.beta, 1)
    tr = run_game(gp, ball, white, concentric, golden_params.avoidance_rounds)
    notes = [m.note for m in tr.moves if m.player == "W"]
    assert notes[0].startswith("sub 0 drive 1/1")
    assert all(n is not None for n in notes)
