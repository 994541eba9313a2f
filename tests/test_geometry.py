"""Geometric primitives: exact containment, unit directions, cap measures.

The float cap fractions (cap_fraction, cap_fraction_angular) are test
oracles from oracles.py; the package brackets the cap measure exactly.
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from badapprox import geometry
from badapprox.adversaries import GreedyBlack
from badapprox.engine import GameParams, GameState, GameTrace, replay, run_game
from badapprox.escape import PlaneCap, absorbed
from badapprox.exact import InvariantError, rat_str
from badapprox.geometry import (
    Ball,
    Halfspace,
    Hyperplane,
    cap_measure_bounds,
    chart_lift,
    dot,
    lex_sign,
    make_ball,
    nearest_int_dist,
    norm_sq,
    rational_unit_direction,
    scale,
    sub,
)
from badapprox.schedule import block_schedule, dangerous_hyperplanes, derive_params
from badapprox.strategy import ScheduleInfeasible, WhiteStrategy, gather_block_planes
from conftest import fraction_outcome, long_rational, make_sequence, odd
from oracles import add, cap_fraction, cap_fraction_angular, unit_fractions, unit_pair

TINY = Fraction(1, 10**30)

#
# Closed-form cap fractions for gamma = 5/8, frozen from an independent run of
# the quadrature path (and cross-checked by Monte Carlo in the acceptance
# suite).  arcsin(5/16) = 0.317560179... radians.
#
CAP_N2_PINNED = 0.1011664270237945
CAP_N3_PINNED = 0.02504112020091676

small_fracs = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=1000
)


# -- scalar helpers ----------------------------------------------------------


@pytest.mark.parametrize(
    "x,expected",
    [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(7, 3), Fraction(1, 3)),
        (Fraction(-1, 3), Fraction(1, 3)),
        (Fraction(5), Fraction(0)),
        (Fraction(-9, 4), Fraction(1, 4)),
    ],
)
def test_nearest_int_dist_pinned(x, expected):
    assert nearest_int_dist(x) == expected


@given(x=small_fracs)
def test_nearest_int_dist_properties(x):
    d = nearest_int_dist(x)
    assert 0 <= d <= Fraction(1, 2)
    assert nearest_int_dist(x + 1) == d
    assert nearest_int_dist(-x) == d


_scalars = st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**9))


@given(pairs=st.lists(st.tuples(_scalars, _scalars), max_size=4))
def test_dot_matches_fraction_sum(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    got = dot(a, b)
    assert type(got) is Fraction
    assert got == sum((Fraction(x) * Fraction(y) for x, y in pairs), Fraction(0))


@pytest.mark.parametrize("a, b", [((0.5,), (1,)), ((1,), (0.5,)),
                                  ((Fraction(1, 2), 2), (Fraction(1, 3), 0.0))])
def test_dot_refuses_floats(a, b):
    with pytest.raises(TypeError):
        dot(a, b)


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot((Fraction(1),), (Fraction(1), Fraction(2)))


@given(a=st.lists(small_fracs | st.integers(-50, 50), max_size=4), c=small_fracs)
def test_scale_returns_fractions_equal_to_the_wrapped_product(a, c):
    got = scale(a, c)
    assert got == tuple(Fraction(x) * c for x in a)
    assert all(type(x) is Fraction for x in got)
    assert all(type(x) is Fraction for x in scale(a, int(c)))


def test_add_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        add((Fraction(1), Fraction(2)), (Fraction(1),))


def test_sub_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        sub((Fraction(1),), (Fraction(1), Fraction(2)))


def test_lex_sign():
    assert lex_sign((0, 0, 3)) == 1
    assert lex_sign((0, -2, 5)) == -1
    assert lex_sign((0, 0)) == 0


# -- balls -------------------------------------------------------------------


def test_ball_contains_boundary_exact():
    outer = Ball((Fraction(0),), Fraction(1))
    assert oracles.integer_contains_ball(outer, Ball((Fraction(1, 2),), Fraction(1, 2)))
    assert not oracles.integer_contains_ball(outer, Ball((Fraction(1, 2) + TINY,), Fraction(1, 2)))
    assert not oracles.integer_contains_ball(outer, Ball((Fraction(0),), Fraction(1) + TINY))
    assert oracles.integer_contains_ball(outer, outer)


def test_ball_contains_multidim():
    outer = Ball((Fraction(0), Fraction(0)), Fraction(5))
    # center distance 5-r exactly: (3,4) has length 5; shrink to fit
    inner = Ball((Fraction(3, 5), Fraction(4, 5)), Fraction(4))
    assert oracles.integer_contains_ball(outer, inner)
    assert not oracles.integer_contains_ball(
        outer, Ball((Fraction(3, 5) + TINY, Fraction(4, 5)), Fraction(4))
    )


def test_ball_contains_ball_dimension_mismatch():
    # zip would truncate the 2-vector and call the ball contained
    with pytest.raises(ValueError, match="dimension mismatch"):
        oracles.integer_contains_ball(Ball((0, 0), 1), Ball((0,), Fraction(1, 2)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        oracles.integer_contains_ball(Ball((0,), 1), Ball((0, 0), 2))  # even with slack < 0


def _random_rat(rng, bits):
    den = rng.randint(1, 1 << bits)
    return Fraction(rng.randint(-4 * den, 4 * den), den)


def _random_radius(rng, bits):
    return Fraction(rng.randint(1, 1 << bits), rng.randint(1, 1 << bits))


def _containment_case(rng, n, kind):
    """(outer, inner) of one kind; 'tight' and 'multiple' offsets are exact."""
    bits = rng.choice([3, 20, 200])
    outer = Ball(tuple(_random_rat(rng, bits) for _ in range(n)), _random_radius(rng, bits))
    R = outer.radius
    if kind == "equal":  # slack == 0 with equal centers
        return outer, Ball(outer.center, R)
    if kind == "zero-slack-shifted":
        shifted = outer.center[:-1] + (outer.center[-1] + Fraction(1, 1 << bits),)
        return outer, Ball(shifted, R)
    if kind == "negative":  # slack < 0, even with equal centers
        return outer, Ball(outer.center, R + Fraction(1, rng.randint(1, 1 << bits)))
    r = R * Fraction(rng.randint(1, 99), 100)
    if kind in ("tight", "tight-out"):  # distance exactly R - r, or just past it
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if not any(v):
            v = (1,) + v[1:]
        d = scale(unit_fractions(rational_unit_direction(v)), R - r)
        if kind == "tight-out":
            d = scale(d, 1 + Fraction(1, 1 << 60))
        return outer, Ball(add(outer.center, d), r)
    if kind == "multiple":  # inner denominators a multiple of the outer ones
        den = math.lcm(*(c.denominator for c in outer.center)) * rng.randint(2, 1 << bits)
        reach = int((R - r) * den) * 5 // 4 + 1
        offset = tuple(Fraction(rng.randint(-reach, reach), den) for _ in range(n))
        return outer, Ball(add(outer.center, offset), r)
    offset = tuple((R - r) * Fraction(rng.randint(-120, 120), 100) for _ in range(n))
    return outer, Ball(add(outer.center, offset), r)


KINDS = ["equal", "zero-slack-shifted", "negative", "tight", "tight-out", "multiple", "random"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contains_ball_matches_fraction_oracle(n):
    rng = random.Random(n)
    seen = {}
    for i in range(70 * len(KINDS)):
        kind = KINDS[i % len(KINDS)]
        outer, inner = _containment_case(rng, n, kind)
        got = oracles.integer_contains_ball(outer, inner)
        assert got == oracles.contains_ball(outer, inner), (kind, outer, inner)
        seen.setdefault(kind, set()).add(got)
    assert seen["equal"] == seen["tight"] == {True}
    assert seen["zero-slack-shifted"] == seen["negative"] == seen["tight-out"] == {False}
    assert seen["random"] == seen["multiple"] == {True, False}


def test_ball_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        Ball((Fraction(0),), Fraction(0))
    with pytest.raises(ValueError):
        Ball((Fraction(0),), Fraction(-1))


def test_ball_json_round_trip():
    b = Ball((Fraction(2, 3), Fraction(-1, 7)), Fraction(3, 16))
    assert Ball.from_jsonable(b.to_jsonable()) == b


# -- a ball's one form: its center as integers over one denominator ----------


def _least_form(center):
    den = math.lcm(*(c.denominator for c in center))
    return den, tuple(c.numerator * (den // c.denominator) for c in center)


def _unreduced(ball, k):
    """The ball with its form scaled by k: the same value over k times its
    denominator, as run_game's fold holds it, and no center until one is read."""
    den, nums = ball.form
    return make_ball((k * den, tuple(k * x for x in nums)), ball.radius)


def _seeded_centers(rng, n):
    """Centers in n dimensions over an odd D and over a 1500-bit D (times a
    small odd part), with a zero and a negative coordinate among them."""
    for den in (odd(rng, 40), 3 * 5 * 7 * 11 * 13, (1 << 1500) * 9, odd(rng, 30) << 1499):
        center = [Fraction(rng.randrange(-4 * den, 4 * den), den) for _ in range(n)]
        center[rng.randrange(n)] = Fraction(0)
        center[rng.randrange(n)] = -abs(center[-1]) or Fraction(-1, den)
        yield tuple(center)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_ball_from_any_input_holds_its_least_form_and_fraction_center(n):
    rng = random.Random(n)
    for center in _seeded_centers(rng, n):
        radius = long_rational(rng, 0, 1) or Fraction(1, 7)
        ball = Ball(center, radius)
        texts = [rat_str(c) for c in center]
        obj = {"center": texts, "radius": rat_str(radius)}
        respelled = [f"{2 * c.numerator}/{2 * c.denominator}" for c in center]
        ints = tuple(c.numerator for c in center)  # a point of Z^n from each
        built = [
            ball,
            Ball(texts, rat_str(radius)),
            Ball(respelled, radius),
            Ball.from_jsonable(obj),
            Ball.from_jsonable({"center": list(obj["center"]), "radius": "1/3"}, ball),
            Ball.from_jsonable({"center": list(respelled), "radius": "1/3"},
                               Ball.from_jsonable({"center": respelled, "radius": "1/5"})),
        ]
        for b in built:
            assert b.center == center and b.form == _least_form(center)
            assert all(type(c) is Fraction for c in b.center)
            assert [fraction_outcome(lambda n, d: c, c.numerator, c.denominator) for c in b.center] \
                == [fraction_outcome(Fraction, c.numerator, c.denominator) for c in center]
        held = built[4]  # read with the first loaded ball held: its form and center are shared
        assert held.form is ball.form and held.center is ball.center
        for b in (ball, built[1], built[2], built[3]):
            assert b == ball and hash(b) == hash((center, radius))
            assert repr(b) == f"Ball(center={center!r}, radius={radius!r})"
            for again in (copy.copy(b), copy.deepcopy(b), pickle.loads(pickle.dumps(b))):
                assert type(again) is Ball and again == ball and again.form == ball.form
        on_lattice = Ball(ints, 1)
        assert on_lattice.form == (1, ints)
        assert on_lattice.center == tuple(map(Fraction, ints))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_ball_over_an_unreduced_denominator_is_the_same_ball(n):
    # equality and hash are by value: a form over k D equals the least one's
    rng = random.Random(10 + n)
    for center in _seeded_centers(rng, n):
        ball = Ball(center, Fraction(1, 3))
        for k in (2, 3, 2**40 * 7, odd(rng, 200) << 300):
            twin = _unreduced(ball, k)
            assert twin.form != ball.form and twin.dimension == ball.dimension == n
            assert twin == ball and ball == twin and hash(twin) == hash(ball)
            assert repr(twin) == repr(ball) and twin.to_jsonable() == ball.to_jsonable()
            assert twin.center == center and twin.center is twin.center  # derived once


@pytest.mark.parametrize("den, nums", [
    (12 << 1500, (0, 5, -(7 << 1600), 0)),
    (3**5 * 7 * 11, (1, -2, 3**5 * 7 * 4, -(3**9 << 800), 0)),
    ((2**521 - 1) * (2**127 - 1) << 700, ((2**521 - 1) << 3, -(2**127 - 1) * 5, 1, -(1 << 1400))),
    (1 << 40, (3 << 90, -(1 << 41), 1 << 40, -(5 << 40), 1)),
    (1, (0, -1, 7 << 2000)),
], ids=["zero-and-negative-coordinates", "odd-D", "two-Mersenne-primes", "more-2s-than-D-has",
        "D-is-1"])
def test_the_center_of_a_form_equals_fraction_per_coordinate(den, nums):
    got = make_ball((den, nums), Fraction(1)).center
    assert type(got) is tuple and len(got) == len(nums)
    for x, f in zip(nums, got):
        assert fraction_outcome(lambda n, d: f, x, den) == fraction_outcome(Fraction, x, den)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_center_of_a_form_equals_fraction_on_seeded_centers(seed):
    # a game center's shape: D = 2^k o with a small or a long odd part o,
    # and numerators that share part of o and any power of two
    rng = random.Random(seed)
    for _ in range(60):
        pieces = [odd(rng, rng.randrange(1, 300)) for _ in range(rng.randrange(0, 3))]
        k = rng.randrange(0, 1600)
        den = math.prod(pieces) << k
        nums = []
        for _ in range(rng.randrange(1, 5)):
            x = (rng.getrandbits(rng.randrange(1, 1700)) | 1) << rng.randrange(0, k + 3)
            x *= math.prod(p for p in pieces if rng.random() < 0.5)
            nums.append(rng.choice([0, 1, -1]) * x)
        ball = make_ball((den, tuple(nums)), Fraction(1))
        assert ball.center == tuple(Fraction(x, den) for x in nums)
        for x, f in zip(nums, ball.center):
            assert fraction_outcome(lambda n, d: f, x, den) == fraction_outcome(Fraction, x, den)


def _checked_forms(trace):
    """Each ball's form against its center, and a held move's form and center
    shared with the move before it; returns the number of held moves."""
    held, previous = 0, trace.initial
    for mv in trace.moves:
        ball = mv.ball
        den, nums = ball.form
        assert tuple(Fraction(x, den) for x in nums) == ball.center
        if ball.center == previous.center:
            assert ball.form is previous.form and ball.center is previous.center
            held += 1
        else:
            assert ball.form is not previous.form
        previous = ball
    return held


def test_a_held_move_shares_its_form_with_the_move_before_it():
    # White's escape drive against greedy Black in n = 2: moves and holds
    a, b = Fraction(1, 4), Fraction(1, 2)
    seq = make_sequence([(1, 1), (3, 4), (-12, 9), (40, 30)])
    params = derive_params(a, b, 3, 2)
    sched = block_schedule(params, seq, Fraction(1, 64), 1)
    start = Ball((Fraction(3, 10), Fraction(-7, 9)), Fraction(1, 64))
    trace = run_game(GameParams(a, b, 2), start, WhiteStrategy(seq, sched, seed=5),
                     GreedyBlack(seq), params.avoidance_rounds)
    absolute = oracles.run_game_absolute(GameParams(a, b, 2), start, WhiteStrategy(seq, sched, seed=5),
                                         GreedyBlack(seq), params.avoidance_rounds)
    assert [mv.ball for mv in trace.moves] == [mv.ball for mv in absolute.moves]
    held = _checked_forms(trace)
    assert 0 < held < len(trace.moves)
    loaded = GameTrace.loads(trace.dumps())
    assert _checked_forms(loaded) == held
    assert _checked_forms(replay(loaded)) == held


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InvariantError, ScheduleInfeasible) as e:
        return type(e), str(e)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_integer_site_reads_the_form_as_its_fraction_oracle_does(n):
    # on hand-built balls over their least form and over forms scaled by 3
    # and by 2^40 * 7, every site that reads a ball's form gives the answer
    # of its Fraction oracle, which reads the center
    rng = random.Random(20 + n)
    vectors = {1: [(1,), (3,), (13,)], 2: [(1, 1), (3, 4), (-12, 9)],
               3: [(1, 0, 0), (3, 1, 0), (13, 2, 1)]}[n]
    seq = make_sequence(vectors)
    params = derive_params(Fraction(1, 4), Fraction(1, 2), 3, n)
    sched = block_schedule(params, seq, Fraction(1, 64), 1)
    gamma = params.gamma
    greedy = GreedyBlack(seq)
    for center in _seeded_centers(rng, n):
        plane = Hyperplane(vectors[-1], round(dot(vectors[-1], center)))
        direction = rational_unit_direction([rng.randint(-5, 5) or 1 for _ in range(n)])
        hs = Halfspace(direction, long_rational(rng, -1, 1), tuple(long_rational(rng, -1, 1) for _ in range(n)))
        for radius in (Fraction(1, 64), long_rational(rng, 0, Fraction(1, 64)) or Fraction(1, 99)):
            least = Ball(center, radius)
            for ball in (least, _unreduced(least, 3), _unreduced(least, 2**40 * 7)):
                assert _outcome(dangerous_hyperplanes, ball, seq, 0, len(seq)) \
                    == _outcome(oracles.dangerous_hyperplanes, least, seq, 0, len(seq))
                assert _outcome(gather_block_planes, ball, seq, sched, 0) \
                    == _outcome(oracles.gather_block_planes, least, seq, sched, 0)
                assert absorbed(ball, plane, gamma) is oracles.absorbed(least, plane, gamma)
                sgn = oracles.plane_sign(least, plane)
                assert PlaneCap(ball, plane, gamma, Fraction(1, 8)).outward \
                    == tuple(sgn * c for c in plane.normal)
                assert hs.contains_ball(ball) is oracles.halfspace_contains_ball(hs, least)
                r, res = oracles.nearest_family(seq, center)
                _, note = greedy(GameState(GameParams(Fraction(1, 4), Fraction(1, 2), n), ball, 1, "B"))
                assert note == (f"on family {r}" if res == 0 else f"chasing family {r}")


# -- hyperplanes and halfspaces ---------------------------------------------


def test_hyperplane_residual_and_norm():
    h = Hyperplane((3, -4), 2)
    assert h.norm_sq == 25
    assert h.residual((Fraction(2), Fraction(1))) == 0
    assert h.residual((Fraction(0), Fraction(0))) == -2
    with pytest.raises(ValueError):
        Hyperplane((0, 0), 1)


def test_hyperplane_refuses_non_integral_entries():
    # an integral Fraction is its int; anything else is refused, never truncated
    h = Hyperplane((Fraction(2), -1), Fraction(-6, 2))
    assert (h.normal, h.offset) == ((2, -1), -3)
    assert all(type(c) is int for c in (*h.normal, h.offset))
    for normal, offset in [
        ((2.5, 1), 3),
        ((2.0, 1), 3),
        ((True, 1), 3),
        ((Fraction(5, 2), 1), 3),
        ((2, 1), Fraction(7, 2)),
        ((2, 1), 3.0),
        ((2, 1), False),
        ((2, 1), "3"),
    ]:
        with pytest.raises(ValueError, match="must be an integer"):
            Hyperplane(normal, offset)


def test_halfspace_requires_exact_unit_direction():
    with pytest.raises(ValueError, match="exact unit"):
        Halfspace(((1, 1), 1), Fraction(0), (Fraction(0), Fraction(0)))
    # 3-4-5 direction is exactly unit
    hs = Halfspace(((3, 4), 5), Fraction(1, 4), (Fraction(0), Fraction(0)))
    # heights 5/4 and 1 above the anchor, against threshold 1/4 + radius 1
    assert hs.contains_ball(Ball((Fraction(3, 4), Fraction(1)), Fraction(1)))
    assert not hs.contains_ball(Ball((Fraction(3, 5), Fraction(4, 5)), Fraction(1)))


def test_halfspace_direction_is_an_integer_pair_in_lowest_terms():
    assert Halfspace([[3, -4], 5], Fraction(0), (0, 0)).direction == ((3, -4), 5)
    # L > 0 and gcd(L, v) = 1: one direction has one pair
    for direction in [((-3, 4), -5), ((6, -8), 10), ((0, 2), 2)]:
        with pytest.raises(ValueError, match="exact unit"):
            Halfspace(direction, Fraction(0), (0, 0))
    for direction in [((Fraction(3), 4), 5), ((3, 4), 5.0), ((3, 4), Fraction(5, 1))]:
        with pytest.raises(TypeError):
            Halfspace(direction, Fraction(0), (0, 0))


def test_halfspace_height_dimension_mismatch():
    # contains_ball measures the center's height against the anchor
    hs = Halfspace(((3, 4), 5), Fraction(0), (Fraction(0), Fraction(0)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        hs.contains_ball(Ball((Fraction(1),), Fraction(1, 2)))


def test_halfspace_refuses_a_direction_of_another_dimension():
    # a 2-d direction on a 1-d anchor once measured heights on the first
    # coordinate alone, and held the ball (5,) of radius 1
    for direction, anchor in [(((1, 0), 1), (0,)), (((1,), 1), (0, 0))]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            Halfspace(direction, 0, anchor)


def test_halfspace_contains_ball_boundary():
    hs = Halfspace(((1,), 1), Fraction(5, 16), (Fraction(0),))
    # center height 5/8, radius 1/16: 5/8 - 5/16 = 5/16 >= 1/16
    assert hs.contains_ball(Ball((Fraction(5, 8),), Fraction(1, 16)))
    # exactly touching: height - threshold == radius passes (closed halfspace)
    assert hs.contains_ball(Ball((Fraction(6, 16),), Fraction(1, 16)))
    assert not hs.contains_ball(Ball((Fraction(6, 16) - TINY,), Fraction(1, 16)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_halfspace_decides_touching_balls_on_long_denominators(n):
    # anchor, threshold and radius over ~1500-bit denominators, the direction
    # a rationalized unit vector: a ball whose height - threshold equals its
    # radius is contained, and the ball one unit 1/D lower is not
    rng = random.Random(31 + n)
    long_den = 2**1500 * 3**5
    for _ in range(20):
        direction = rational_unit_direction([rng.randint(-9, 9) or 1 for _ in range(n)])
        d = unit_fractions(direction)
        anchor = tuple(Fraction(rng.randrange(-long_den, long_den), long_den) for _ in range(n))
        threshold = Fraction(rng.randrange(-long_den, long_den), 2**1499)
        radius = Fraction(rng.randrange(1, long_den), long_den)
        hs = Halfspace(direction, threshold, anchor)
        center = tuple(a + (threshold + radius) * x for a, x in zip(anchor, d))
        lower = tuple(c - x / long_den for c, x in zip(center, d))
        assert dot(d, [c - a for c, a in zip(center, anchor)]) - threshold == radius
        assert hs.contains_ball(Ball(center, radius))
        assert not hs.contains_ball(Ball(lower, radius))
        assert oracles.halfspace_contains_ball(hs, Ball(center, radius))
        assert not oracles.halfspace_contains_ball(hs, Ball(lower, radius))
        # the unit check on the same long scale: one unit off is refused
        v, el = direction
        off = (v[0] * long_den + 1,) + tuple(x * long_den for x in v[1:])
        with pytest.raises(ValueError, match="exact unit"):
            Halfspace((off, el * long_den), threshold, anchor)


def test_halfspace_contains_ball_matches_fraction_oracle():
    # centers at height threshold + radius + delta, moved off the direction
    # by a random perpendicular: delta < 0, = 0 and > 0 all come up
    rng = random.Random(12)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        direction = rational_unit_direction([rng.randint(-5, 5) or 2 for _ in range(n)])
        anchor = tuple(long_rational(rng, -1, 1) for _ in range(n))
        hs = Halfspace(direction, long_rational(rng, -1, 1), anchor)
        direction = unit_fractions(direction)
        radius = long_rational(rng, 0, 1) or Fraction(1, 3)
        delta = rng.choice([Fraction(0), long_rational(rng, -1, 1) / 2**rng.randrange(200)])
        p = tuple(long_rational(rng, -1, 1) for _ in range(n))
        off = dot(p, direction)
        center = tuple(a + (hs.threshold + radius + delta) * d + x - off * d
                       for a, d, x in zip(anchor, direction, p))
        ball = Ball(center, radius)
        got = hs.contains_ball(ball)
        assert got == oracles.halfspace_contains_ball(hs, ball) == (delta >= 0)
        outcomes.add((got, delta == 0))
    assert outcomes == {(True, True), (True, False), (False, False)}
    with pytest.raises(ValueError, match="dimension mismatch"):
        hs.contains_ball(Ball((Fraction(0),) * (n + 1), Fraction(1)))


# -- rational unit directions ------------------------------------------------


int_vecs = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=1, max_size=4
).filter(lambda v: any(c != 0 for c in v))


def assert_unit_pair(direction):
    """(v, L) is an exact unit direction: ints, sum v^2 = L^2, L > 0 and
    gcd(L, v) = 1."""
    v, el = direction
    assert type(v) is tuple and type(el) is int and all(type(x) is int for x in v)
    assert el > 0 and sum(x * x for x in v) == el * el and math.gcd(el, *v) == 1


def reference(v):
    """oracles.rational_unit_direction in its (v, L) form."""
    return unit_pair(oracles.rational_unit_direction(v))


def float_distance(direction, v):
    """Float distance from the direction v/L to x/|x|."""
    fv = [float(x) for x in v]
    fnorm = math.sqrt(math.fsum(x * x for x in fv))
    return math.dist(map(float, unit_fractions(direction)), [x / fnorm for x in fv])


@given(v=int_vecs)
def test_rational_unit_direction_postconditions(v):
    d = rational_unit_direction(v)
    assert_unit_pair(d)  # exact, not approximate
    assert float_distance(d, v) < 2 * float(Fraction(1, 2**30)) + 1e-12


def test_rational_unit_direction_axis_aligned_exact():
    assert rational_unit_direction((0, -7, 0)) == ((0, -1, 0), 1)
    assert rational_unit_direction((3,)) == ((1,), 1)
    assert rational_unit_direction((Fraction(1, 10**400), 0)) == ((1, 0), 1)


def test_rational_unit_direction_failed_refinement_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(geometry, "DIRECTION_TOL", 0.0)
    with pytest.raises(InvariantError, match="direction refinement failed"):
        rational_unit_direction((1, 3))


def test_rational_unit_direction_zero_vector():
    with pytest.raises(ValueError):
        rational_unit_direction((0, 0))


def test_rational_unit_direction_equals_the_fraction_reference():
    # the integer lift returns, pair for pair, the (v, L) form of the
    # Fraction directions of the same refinement on oracles.stereo_unit
    rng = random.Random(26)
    for n in range(2, 6):
        for _ in range(120):
            bits = rng.randrange(1, 60)
            v = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)]
            if any(v):
                assert rational_unit_direction(v) == reference(v), v
        for i in range(n):  # axis-aligned, and one axis far longer than the rest
            for sign in (1, -1):
                e = [0] * n
                e[i] = sign * rng.randrange(1, 100)
                assert rational_unit_direction(e) == reference(e)
                e[(i + 1) % n] = 1
                e[i] *= 3 * 10**6
                assert rational_unit_direction(e) == reference(e), e
    # (1, 3*10^6)'s chart point needs a denominator bound past the first
    # round's 2^20, so its L exceeds c^2 + A <= 2^41
    assert rational_unit_direction((1, 3 * 10**6))[1] > 2**41


@pytest.mark.parametrize("v", [(10**200, 10**200), (10**154, 10**154), (10**400, 1)])
def test_rational_unit_direction_past_the_float_range(v):
    # the squares of the first two, and the first entry of the third, overflow
    # a float: the vector is divided by 2^k first, which keeps its direction
    d = rational_unit_direction(v)
    assert_unit_pair(d)
    k = max(map(abs, v)).bit_length() - 500
    scaled = [Fraction(x, 1 << k) for x in v]
    assert d == rational_unit_direction(scaled) == reference(scaled)
    assert float_distance(d, scaled) < 2.0**-30


@pytest.mark.parametrize("v", [
    (Fraction(1, 10**400), Fraction(1, 10**400)),
    (Fraction(1, 10**400), Fraction(2, 10**400), 0),
    (Fraction(1, 2**1100), Fraction(3, 2**1100)),
])
def test_rational_unit_direction_below_the_float_range(v):
    # every entry underflows a float to 0: the vector is multiplied by 2^k
    # first, which brings its largest entry near 1 and keeps its direction
    d = rational_unit_direction(v)
    assert_unit_pair(d)
    top = max(map(abs, v))
    k = top.denominator.bit_length() - top.numerator.bit_length()
    scaled = [x * (1 << k) for x in v]
    assert d == rational_unit_direction(scaled) == reference(scaled)
    assert float_distance(d, scaled) < 2.0**-30


def test_rational_unit_direction_is_unchanged_below_two_to_the_500():
    # seeded integer and rational vectors up to 2^500, and past it up to the
    # 2^510 where the sum of squares still fits a float: the direction the
    # unscaled chart gives
    rng = random.Random(500)
    for bits in (1, 40, 300, 499, 500, 505, 510):
        for n in range(2, 5):
            for _ in range(6):
                v = [rng.randrange(-(1 << bits), 1 << bits) for _ in range(n - 1)]
                v.append(rng.choice([1 << bits, -(1 << bits), Fraction(rng.randrange(1, 1 << bits), 3)]))
                assert rational_unit_direction(v) == reference(v), v


def test_rational_unit_direction_is_unchanged_above_two_to_the_minus_500():
    # seeded vectors whose largest entry lies near 2^-bits, down to the
    # 2^-500 below which the vector is scaled: the direction the unscaled
    # chart gives
    rng = random.Random(-500)
    for bits in (1, 40, 300, 499, 500):
        for n in range(2, 5):
            for _ in range(6):
                den = 1 << (bits + 40)
                v = [Fraction(rng.randrange(-(1 << 40), 1 << 40), den) for _ in range(n - 1)]
                v.append(rng.choice([Fraction(1, 1 << bits), Fraction(-1, 1 << bits),
                                     Fraction(rng.randrange(1 << 39, 1 << 40), 3 << (bits + 38))]))
                assert rational_unit_direction(v) == reference(v), v


@pytest.mark.parametrize("c", [3, 12, 10**6 + 3])
def test_chart_lift_equals_the_fraction_lift(c):
    # chart points a/c over denominators other than the grid's 2^12
    rng = random.Random(c)
    reduced = 0
    for n in range(2, 6):
        for _ in range(60):
            a = [rng.randrange(-3 * c, 3 * c + 1) for _ in range(n - 1)]
            axis, sign = rng.randrange(n), rng.choice((1, -1))
            v, el = chart_lift(a, c, axis, sign)
            want = unit_pair(oracles.stereo_unit([Fraction(x, c) for x in a], n, axis, sign))
            assert (v, el) == want, (a, c, axis, sign)
            reduced += el < c * c + sum(x * x for x in a)
    assert reduced  # the gcd division shortened L
    # w = 6/12 = 1/2: (108, 144) over 180 reduces to (3, 4) over 5
    assert chart_lift([6], 12, 0, 1) == ((3, 4), 5)
    assert chart_lift([6], 12, 1, -1) == ((4, -3), 5)


# -- cap fractions (float oracles) -------------------------------------------


def test_cap_fraction_n1_is_half():
    assert cap_fraction(Fraction(5, 8), 1) == 0.5
    assert cap_fraction(Fraction(1, 100), 1) == 0.5


def test_cap_fraction_pinned_values():
    assert cap_fraction(Fraction(5, 8), 2) == pytest.approx(CAP_N2_PINNED, abs=1e-12)
    assert cap_fraction(Fraction(5, 8), 3) == pytest.approx(CAP_N3_PINNED, abs=1e-12)


def test_cap_fraction_n2_matches_arc_formula():
    g = Fraction(5, 8)
    assert cap_fraction(g, 2) == pytest.approx(math.asin(5 / 16) / math.pi, abs=1e-15)


def test_cap_fraction_n3_matches_closed_form():
    # n=3 has the elementary closed form (1 - cos r)/2
    r = math.asin(5 / 16)
    assert cap_fraction_angular(r, 3) == pytest.approx((1 - math.cos(r)) / 2, abs=1e-12)


def test_cap_fraction_decreases_with_dimension():
    g = Fraction(5, 8)
    assert cap_fraction(g, 1) > cap_fraction(g, 2) > cap_fraction(g, 3)


def test_cap_fraction_rejects_bad_gamma():
    with pytest.raises(ValueError):
        cap_fraction(Fraction(0), 2)
    with pytest.raises(ValueError):
        cap_fraction(Fraction(2), 2)
    with pytest.raises(ValueError):
        cap_fraction_angular(0.1, 0)


# -- cap measure, bracketed exactly ------------------------------------------


def _cap_bracket(sin_a, sin_b, n, prec=64):
    lo, hi = cap_measure_bounds(sin_a, sin_b, n, prec)
    return Fraction(lo, 1 << prec), Fraction(hi, 1 << prec)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("sin_a, sin_b", [
    (Fraction(5, 16), Fraction(0)),
    (Fraction(5, 16), Fraction(5, 64)),
    (Fraction(1, 2), Fraction(49, 100)),
    (Fraction(1, 1000), Fraction(1, 3000)),
])
def test_cap_measure_bounds_bracket_the_quadrature(n, sin_a, sin_b):
    import mpmath

    lo, hi = cap_measure_bounds(sin_a, sin_b, n, 64)
    assert 0 <= lo <= hi and hi - lo < 1 << 12
    with mpmath.workdps(40):  # the quadrature, far past 64 bits
        r = mpmath.asin(mpmath.mpf(sin_a.numerator) / sin_a.denominator) - mpmath.asin(
            mpmath.mpf(sin_b.numerator) / sin_b.denominator)
        w = mpmath.quad(lambda t: mpmath.sin(t) ** (n - 2), [0, r]) / mpmath.quad(
            lambda t: mpmath.sin(t) ** (n - 2), [0, mpmath.pi])
        assert lo <= w * 2**64 <= hi


def test_cap_measure_bounds_closed_forms():
    # full cap at gamma = 5/8: n = 2 is r/pi and n = 3 is (1 - cos r)/2,
    # with r = asin(5/16) and cos r = sqrt(231)/16
    for n, pinned in ((2, CAP_N2_PINNED), (3, CAP_N3_PINNED)):
        lo, hi = _cap_bracket(Fraction(5, 16), Fraction(0), n)
        assert float(lo) == pytest.approx(pinned, abs=1e-15) == float(hi)
    lo, hi = _cap_bracket(Fraction(5, 16), Fraction(0), 3, prec=200)
    # (1 - 2w)^2 = cos^2 r = 231/256 on both ends, up to the bracket
    assert (1 - 2 * hi) ** 2 <= Fraction(231, 256) <= (1 - 2 * lo) ** 2


def test_cap_measure_bounds_tighten_with_precision():
    widths = []
    for prec in (64, 128, 256):
        lo, hi = _cap_bracket(Fraction(5, 16), Fraction(5, 64), 4, prec)
        widths.append(hi - lo)
        if len(widths) > 1:
            assert prev_lo <= lo <= hi <= prev_hi
        prev_lo, prev_hi = lo, hi
    assert widths[2] < Fraction(1, 1 << 240)


def test_cap_measure_decreases_with_dimension():
    his = [_cap_bracket(Fraction(5, 16), Fraction(0), n)[1] for n in range(2, 8)]
    los = [_cap_bracket(Fraction(5, 16), Fraction(0), n)[0] for n in range(2, 8)]
    assert all(lo > hi for lo, hi in zip(los, his[1:]))


def test_cap_measure_bounds_rejects_bad_input():
    with pytest.raises(ValueError):
        cap_measure_bounds(Fraction(1, 4), Fraction(1, 8), 1, 64)
    with pytest.raises(ValueError):
        cap_measure_bounds(Fraction(1, 4), Fraction(1, 4), 3, 64)  # r = 0
    with pytest.raises(ValueError):
        cap_measure_bounds(Fraction(1, 4), Fraction(-1, 8), 3, 64)
    with pytest.raises(ValueError):
        cap_measure_bounds(Fraction(3, 5), Fraction(0), 2, 64)  # radius above pi/6


def test_cap_montecarlo_agrees_at_small_sample():
    # the heavy 10^6-sample agreement runs in the acceptance suite; this is a
    # cheap smoke check that the independent estimator lands in the right spot
    est = oracles.cap_fraction_montecarlo(Fraction(5, 8), 2, samples=200_000, seed=1)
    assert est == pytest.approx(CAP_N2_PINNED, abs=5e-3)


def test_cap_montecarlo_n1():
    est = oracles.cap_fraction_montecarlo(Fraction(5, 8), 1, samples=100_000, seed=3)
    assert est == pytest.approx(0.5, abs=5e-3)
