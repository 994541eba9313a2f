"""Opponent policies: legality, determinism, chase semantics, replay."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

import oracles
from badapprox.adversaries import RANDOM_GRID, GreedyBlack, RandomBlack, Scripted
from badapprox.engine import (
    GameParams,
    GameState,
    GameTrace,
    IllegalMove,
    concentric,
    run_game,
)
from badapprox.exact import over_common_denominator
from badapprox.geometry import Ball, dot, rational_unit_direction
from badapprox.resonance import ThetaMatrix, best_approximations, lacunary_normalize
from badapprox.strategy import run_constructed_game
from conftest import escape_drive, long_rational, make_sequence


def test_random_black_always_legal_many_rounds():
    for n, seed in [(1, 0), (2, 1), (3, 2)]:
        gp = GameParams(Fraction(1, 3), Fraction(2, 5), n)
        start = Ball((Fraction(0),) * n, Fraction(1))
        tr = run_game(gp, start, concentric, RandomBlack(seed=seed), 25)
        assert len(tr.moves) == 50  # no IllegalMove raised on the way


def test_random_black_deterministic_per_seed():
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 2)
    start = Ball((Fraction(0), Fraction(0)), Fraction(1))

    def play(seed):
        return run_game(gp, start, concentric, RandomBlack(seed=seed), 6).dumps()

    assert play(7) == play(7)
    assert play(7) != play(8)


def test_random_black_centers_lie_on_grid():
    # every offset is k/K of the max step for an integer vector k with |k| <= K
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 2)
    start = Ball((Fraction(0), Fraction(0)), Fraction(1))
    tr = run_game(gp, start, concentric, RandomBlack(seed=5), 8)
    ks = []
    for prev, mv in zip([start] + [m.ball for m in tr.moves], tr.moves):
        if mv.player != "B":
            continue
        unit = (1 - gp.beta) * prev.radius / RANDOM_GRID
        k = [(c - p) / unit for c, p in zip(mv.ball.center, prev.center)]
        assert all(c.denominator == 1 for c in k)  # integer grid multiples
        assert sum(c * c for c in k) <= RANDOM_GRID**2
        ks.append(k)
    # the grid is fine: the multiples are not all even, nor all zero
    assert any(c % 2 for k in ks for c in k)


def test_random_black_steps_match_the_per_coordinate_fraction():
    # each step is Fraction(c * step, K) for the rejection-sampled grid point c
    K = RANDOM_GRID
    gp = GameParams(Fraction(1, 3), Fraction(2, 5), 3)
    start = Ball((Fraction(1, 5), Fraction(-2, 7), Fraction(0)), Fraction(1))
    tr = run_game(gp, start, concentric, RandomBlack(seed=9), 5)
    rng = random.Random(9)
    for prev, mv in zip([start] + [m.ball for m in tr.moves], tr.moves):
        if mv.player != "B":
            continue
        while True:
            pt = [rng.randint(-K, K) for _ in range(3)]
            if sum(c * c for c in pt) <= K * K:
                break
        step = (1 - gp.beta) * prev.radius
        want = tuple(x + Fraction(c * step, K) for x, c in zip(prev.center, pt))
        assert mv.ball.center == want


@pytest.mark.parametrize("beta", [Fraction(1, 2), Fraction(2, 5), Fraction(3, 7), Fraction(5, 12)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_black_draws_equal_the_randrange_route(n, beta):
    # getrandbits(11) below 1025 is randrange(1025)'s own draw, and the
    # integers c * (b - a) over b * K are the Fractions (1 - beta) / K builds
    gp = GameParams(Fraction(1, 4), beta, n)
    state = GameState(gp, Ball((Fraction(0),) * n, Fraction(1)), 1, "B")
    for seed in (0, 5, 2**40 + 3):
        ours, theirs = RandomBlack(seed=seed), oracles.RandomBlack(seed=seed)
        for _ in range(200):
            (q, v), note = ours(state)
            want, want_note = theirs(state)
            assert note is want_note is None
            assert oracles.step_fractions((q, v)) == oracles.step_fractions(want)
            assert q == beta.denominator * RANDOM_GRID and all(type(x) is int for x in v)
        assert ours.rng.getstate() == theirs.rng.getstate()


@pytest.mark.parametrize("seed, n, digest", [
    (0, 1, "f54f0eb1f2487f43eaa7c0565896321f285b2400085e9b517f4bdee6ff7fa0b6"),
    (0, 2, "442d59140561d745d468559e128b15abc87d1dd60ae3f2fe22a41e260084044f"),
    (0, 3, "4b0464649ff8bd4d542a721c5ed438cd7a98edd65ce04d8c83b43add754bc11a"),
    (7, 1, "ecdc97170c924a3d5adaea37fd58c4c84e9244700b9b23184a246423fedb4aab"),
    (7, 2, "1d7545324c33eb59346e0147b7d202402efb1f3b6d01da7902f589c96ecca586"),
    (7, 3, "dc5a26028870dc3fe1f5dfe31f940c48c4751f8c14e7e9e5f40ec4260cb5cd88"),
])
def test_random_black_steps_are_pinned(seed, n, digest):
    # sha256 of the first 300 steps, taken when each coordinate was drawn by
    # randint(-K, K) and scaled by the Fraction (1 - beta) / K
    gp = GameParams(Fraction(1, 3), Fraction(2, 5), n)
    state = GameState(gp, Ball((Fraction(0),) * n, Fraction(1)), 1, "B")
    black = RandomBlack(seed=seed)
    h = hashlib.sha256()
    for _ in range(300):
        (q, v), note = black(state)
        assert note is None and type(q) is int and all(type(x) is int for x in v)
        step = oracles.step_fractions((q, v))
        h.update((",".join(f"{s.numerator}/{s.denominator}" for s in step) + "\n").encode())
    assert h.hexdigest() == digest


def test_greedy_black_chases_nearest_family():
    seq = make_sequence([(1,), (3,)])
    black = GreedyBlack(seq)
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    # center 0.30: family 1 offsets at integers (dist 0.30), family 2 planes
    # at thirds (nearest 1/3, dist 1/30): chases family 2 downward... upward
    start = Ball((Fraction(3, 10),), Fraction(1, 10))
    tr = run_game(gp, start, concentric, black, 1)
    b_move = tr.moves[1]
    assert b_move.note == "chasing family 2"
    # residual of u=3 at 0.3 is 0.9 - 1 = -0.1 < 0: step toward +
    assert b_move.ball.center[0] > Fraction(3, 10)


def test_greedy_black_tie_prefers_smaller_index():
    seq = make_sequence([(1,), (3,)])
    black = GreedyBlack(seq)
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    # center 0: both families have residual 0 -> distance tie, family 1 wins
    tr = run_game(gp, Ball((Fraction(0),), Fraction(1, 10)), concentric, black, 1)
    assert tr.moves[1].note == "on family 1"
    assert tr.moves[1].ball.center == (Fraction(0),)


def test_greedy_black_full_step_size():
    seq = make_sequence([(1,)])
    black = GreedyBlack(seq)
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    start = Ball((Fraction(3, 10),), Fraction(1))
    tr = run_game(gp, start, concentric, black, 1)
    # Black replies inside the White ball of radius 1/4: step (1-beta)*1/4 =
    # 1/8 toward the nearest integer 0, i.e. downward
    assert tr.moves[1].ball.center[0] == Fraction(3, 10) - Fraction(1, 8)


def test_greedy_black_two_dim_moves_toward_plane():
    seq = make_sequence([(1, 0), (2, 2)], lacunarity=2)
    black = GreedyBlack(seq)
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 2)
    start = Ball((Fraction(1, 20), Fraction(1, 3)), Fraction(1, 8))
    tr = run_game(gp, start, concentric, black, 1)
    before = abs(start.center[0])  # family 1 plane: x = 0
    after = abs(tr.moves[1].ball.center[0])
    assert tr.moves[1].note == "chasing family 1"
    assert after < before


@pytest.mark.parametrize("vectors", [[(1, 1, 1), (3, 4, 5)], [(1,), (3,)]])
@pytest.mark.parametrize("center", [(Fraction(1, 3), Fraction(1, 5)), (Fraction(0), Fraction(0))])
def test_greedy_black_refuses_a_family_of_another_dimension(vectors, center):
    # before any step is built: at the origin every family's residual is 0,
    # which used to end the scan with a hold
    seq = make_sequence(vectors)
    black = GreedyBlack(seq)
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 2)
    start = Ball(center, Fraction(1, 1000))
    with pytest.raises(ValueError, match="dimension mismatch"):
        black(GameState(gp, start, 1, "B"))
    with pytest.raises(ValueError, match="dimension mismatch"):
        run_game(gp, start, concentric, black, 1)
    assert black._steps == {}


def test_greedy_drift_identity_against_escape():
    # one full round: White escape drive up, Black full chase down toward a
    # far-below plane; the center climbs by exactly gamma * rho
    seq = make_sequence([(1,)])
    for a, b in [(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 3))]:
        gamma = 1 + a * b - 2 * a
        gp = GameParams(a, b, 1)
        # start below 1/2 so the nearest integer plane stays below even after
        # White's upward push: Black's full chase is exactly opposed
        start = Ball((Fraction(1, 4),), Fraction(1, 100))
        white = escape_drive(((1,), 1))
        tr = run_game(gp, start, white, GreedyBlack(seq), 1)
        drift = tr.final_ball.center[0] - start.center[0]
        assert drift == gamma * start.radius


def test_scripted_replays_and_holds():
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    start = Ball((Fraction(0),), Fraction(1))
    black = Scripted([(Fraction(1, 8),)], notes=["planned"])
    tr = run_game(gp, start, concentric, black, 2)
    assert tr.moves[1].ball.center == (Fraction(1, 8),)
    assert tr.moves[1].note == "planned"
    # script exhausted: concentric hold, no note
    assert tr.moves[3].ball.center == tr.moves[2].ball.center
    assert tr.moves[3].note is None


def test_scripted_illegal_center_raises():
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    start = Ball((Fraction(0),), Fraction(1))
    black = Scripted([(Fraction(1),)])  # way outside the White ball
    with pytest.raises(IllegalMove):
        run_game(gp, start, concentric, black, 1)


def test_scripted_reproduces_recorded_trace():
    # extract Black's centers from a greedy game, replay them scripted, and
    # get the identical trace byte for byte
    seq = make_sequence([(1,), (3,)])
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 1)
    start = Ball((Fraction(3, 10),), Fraction(1, 10))
    original = run_game(gp, start, concentric, GreedyBlack(seq), 4)
    b_moves = [m for m in original.moves if m.player == "B"]
    replayer = Scripted(
        [m.ball.center for m in b_moves], notes=[m.note for m in b_moves]
    )
    again = run_game(gp, start, concentric, replayer, 4)
    assert again.dumps() == original.dumps()


# -- the integer nearest-plane search against its Fraction oracle ------------


class _Family:
    """What GreedyBlack reads of a family, without the lacunarity check, so
    that equal and doubled vectors can share a family."""

    def __init__(self, vectors):
        self.vectors = [tuple(v) for v in vectors]

    def __len__(self):
        return len(self.vectors)

    def vector(self, r):
        return self.vectors[r - 1]

    def norm_sq_of(self, r):
        return sum(c * c for c in self.vectors[r - 1])


def _random_center(rng, n):
    den = rng.choice([1, 2, 12, 2**20, 3**30 * 7, rng.randrange(1, 2**64)])
    return tuple(Fraction(rng.randrange(-4 * den, 4 * den + 1), den) for _ in range(n))


def _onto_half_integer(center, u):
    """Move the last coordinate with u_j != 0 so that u·center = a + 1/2."""
    j = max(i for i, c in enumerate(u) if c)
    s = dot(u, center)
    shift = (s.numerator // s.denominator + Fraction(1, 2) - s) / u[j]
    return center[:j] + (center[j] + shift,) + center[j + 1:]


def _nearest(seq, center) -> tuple[int, Fraction]:
    """(r, u_r·center - a_r) of GreedyBlack's nearest family r, a_r the
    nearest integer, from its integer residual over the center's denominator."""
    r, res, den = GreedyBlack(seq)._nearest_residual(*over_common_denominator(center))
    return r, Fraction(res, den)


@pytest.mark.parametrize("seed", range(12))
def test_greedy_nearest_matches_fraction_oracle(seed):
    rng = random.Random(seed)
    halves = ties = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        vectors, size = [], rng.randint(1, 5)
        while len(vectors) < size:
            u = tuple(rng.randint(-9, 9) for _ in range(n))
            if any(u):
                vectors.append(u)
        if rng.random() < 0.4:  # a multiple of a family: equal distances at s = 1/4, 3/4
            vectors.insert(rng.randrange(len(vectors) + 1), tuple(2 * c for c in vectors[0]))
        seq = _Family(vectors)
        center = _random_center(rng, n)
        if rng.random() < 0.5:
            center = _onto_half_integer(center, rng.choice(vectors))
        got = _nearest(seq, center)
        assert got == oracles.nearest_family(seq, center)
        dists = [
            (dot(u, center) - round(dot(u, center))) ** 2 / seq.norm_sq_of(r)
            for r, u in enumerate(vectors, start=1)
        ]
        halves += any((2 * dot(u, center)).denominator == 1 for u in vectors)
        ties += dists.count(min(dists)) > 1
    assert halves >= 10 and ties >= 1


@pytest.mark.parametrize(
    "x, want",
    [
        # round(u·c) is half to even: 1/2 -> 0, 3/2 -> 2, -1/2 -> 0, -3/2 -> -2
        (Fraction(1, 2), (1, Fraction(1, 2))),
        (Fraction(3, 2), (1, Fraction(-1, 2))),
        (Fraction(-1, 2), (1, Fraction(-1, 2))),
        (Fraction(-3, 2), (1, Fraction(1, 2))),
    ],
)
def test_greedy_nearest_half_integer_rounds_to_even(x, want):
    seq = make_sequence([(1,)])
    assert _nearest(seq, (x,)) == want == oracles.nearest_family(seq, (x,))


def test_greedy_nearest_equal_distances_go_to_smallest_index():
    # u = 1 and u = 2 at 1/4: residuals 1/4 and 1/2 (2/4 rounds to 0), both
    # at distance 1/4; the same at 3/4 with the signs flipped
    for first, second in [((1,), (2,)), ((2,), (1,))]:
        seq = _Family([first, second])
        for x in (Fraction(1, 4), Fraction(3, 4)):
            r, res = _nearest(seq, (x,))
            assert r == 1
            assert (r, res) == oracles.nearest_family(seq, (x,))
    seq = _Family([(1, 0), (0, 1)])
    center = (Fraction(1, 3), Fraction(-1, 3))
    assert _nearest(seq, center) == (1, Fraction(1, 3))


def test_greedy_cached_directions_give_identical_traces(golden_seq):
    # flagship n = 1, a one-block n = 2 construction, and a long n = 3 chase
    # of a concentric White: every trace equals the one whose chase
    # direction is rationalized afresh on every move, byte for byte
    gp3 = GameParams(Fraction(1, 4), Fraction(1, 2), 3)
    seq3 = make_sequence([(1, 2, 2), (5, -3, 7), (-20, 31, 44)])
    seq2 = make_sequence([(1, 1), (3, 4), (-12, 9), (40, 30)])
    games = [
        lambda black: run_constructed_game(
            golden_seq, Fraction(1, 4), Fraction(1, 2), 3, Fraction(1, 2), 2, black(golden_seq)
        )[0],
        lambda black: run_constructed_game(
            seq2, Fraction(1, 4), Fraction(1, 2), 3, Fraction(1, 64), 1, black(seq2),
            center=(Fraction(3, 10), Fraction(-7, 9)), seed=5,
        )[0],
        lambda black: run_game(
            gp3, Ball((Fraction(1, 7), Fraction(2, 9), Fraction(-3, 11)), Fraction(1, 20)),
            concentric, black(seq3), 40,
        ),
    ]
    for play in games:
        made = []

        def greedy(seq):
            made.append(GreedyBlack(seq))
            return made[-1]

        text = play(greedy).dumps()
        assert text == play(oracles.GreedyBlack).dumps()
        # the cache was hit: more chasing moves than steps computed
        chases = text.count('"note": "chasing family')
        assert chases > len(made[0]._steps) >= 1


def test_greedy_direction_cache_is_keyed_by_family_and_side():
    # one instance asked from alternating sides of two families' planes:
    # every reply equals the one of a policy that rationalizes afresh
    seq = make_sequence([(1, 1), (3, -4)])
    gp = GameParams(Fraction(1, 4), Fraction(1, 2), 2)
    rng = random.Random(3)
    cached, fresh = GreedyBlack(seq), oracles.GreedyBlack(seq)
    for i in range(24):
        # near 0 the plane of family 1 is nearest, near (1/10, 1/10) family 2's
        base = (Fraction(0), Fraction(0)) if i % 4 < 2 else (Fraction(1, 10), Fraction(1, 10))
        side = Fraction(1 if i % 2 else -1, rng.randint(200, 400))
        center = (base[0] + side, base[1] + Fraction(rng.randint(-9, 9), 10**4))
        state = GameState(gp, Ball(center, Fraction(1, 1000)), 2 * i + 1, "B")
        assert cached(state) == fresh(state)
    assert len(cached._steps) == 4


def test_greedy_step_follows_beta_on_one_instance():
    # the cached step is (1 - beta) * direction for the beta of each call,
    # also when one instance is asked at beta = 1/2, 1/3 and 1/2 again
    seq = make_sequence([(1, 1), (3, -4)])
    greedy, fresh = GreedyBlack(seq), oracles.GreedyBlack(seq)
    center = (Fraction(2, 1000), Fraction(-1, 1000))  # u_1 · center = 1/1000
    # toward the plane u_1 · y = 0
    direction = oracles.unit_fractions(rational_unit_direction((-1, -1)))
    for beta in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 2)):
        gp = GameParams(Fraction(1, 4), beta, 2)
        state = GameState(gp, Ball(center, Fraction(1, 1000)), 1, "B")
        step, note = greedy(state)
        assert note == "chasing family 1"
        assert oracles.step_fractions(step) == tuple((1 - beta) * x for x in direction)
        assert (step, note) == fresh(state)
    assert len(greedy._steps) == 2


# -- the ranking by bit length, on ~1500-bit denominators ---------------------

#: A center denominator as the game's late ones: a power of two past 1500
#: bits times a small odd part.  Family sizes k below are prime to it.
LONG = 2**1500 * 5**3


def _placed(k1, res1, k2, res2):
    """Families u_1 = (k1, 0) and u_2 = (0, k2), and a center over LONG at
    which u_r·center lies res_r / LONG from its nearest integer."""
    center = tuple(Fraction(res * pow(k, -1, LONG) % LONG, LONG)
                   for k, res in ((k1, res1), (k2, res2)))
    return _Family([(k1, 0), (0, k2)]), center


def _bit_gap(seq, center):
    """lb - rb of family 2 against family 1: the bit lengths of res_2^2 nsq_1
    and res_1^2 nsq_2, with each residual over the center's denominator."""
    (r1, res1), (r2, res2) = (oracles.nearest_family(_Family([seq.vector(r)]), center)
                              for r in (1, 2))
    den = math.lcm(*(c.denominator for c in center))
    a, b = (abs(res * den) for res in (res2, res1))
    assert a.denominator == b.denominator == 1
    lb = 2 * int(a).bit_length() + seq.norm_sq_of(1).bit_length()
    rb = 2 * int(b).bit_length() + seq.norm_sq_of(2).bit_length()
    return lb - rb


@pytest.mark.parametrize("k1, res1, k2, res2, gap, winner", [
    # each product sits at its range's edge: 11^2 = 121 is near the top of
    # [64, 128), 3^2 = 9 and 1 near or at the bottom of theirs
    (11, 2**703, 1, 2**700 - 1, -2, 1),      # the bits lean toward 2, the products do not
    (1, 2**700 - 1, 11, 2**703, 2, 2),       # the bits lean toward 1, the products do not
    (11, -(2**703), 1, 1 - 2**700, -2, 1),   # the same with negative residuals
    (1, 1 - 2**700, 11, -(2**703), 2, 2),
    (1, 2**700, 1, 2**699, -2, 2),
    (1, 2**700, 1, 2**701, 2, 1),
    (11, 2**702, 3, 2**700 - 1, -3, 2),      # 121 against 144: decided by bits
    (3, 2**700 - 1, 11, 2**702, 3, 1),
])
def test_greedy_ranking_at_bit_gaps_two_and_three(k1, res1, k2, res2, gap, winner):
    seq, center = _placed(k1, res1, k2, res2)
    assert _bit_gap(seq, center) == gap
    got = _nearest(seq, center)
    assert got == oracles.nearest_family(seq, center)
    assert got[0] == winner
    assert got[1] * LONG == (res1, res2)[winner - 1]


def test_greedy_exact_hit_after_and_before_a_nonzero_best():
    # a zero residual has no lower bound 2^(bits - 3): it wins on the spot,
    # also against a family whose tiny residual over a huge |u|^2 has far
    # fewer bits, and once found no later family replaces it
    huge = 2**20 + 1
    for k1, res1, k2, res2, want in [
        (huge, 1, 1, 0, (2, 0)),   # after a nonzero best
        (1, 0, huge, 1, (1, 0)),   # before one
        (1, 0, 1, 0, (1, 0)),      # two exact hits: the smaller index
    ]:
        seq, center = _placed(k1, res1, k2, res2)
        assert _nearest(seq, center) == want == oracles.nearest_family(seq, center)


def test_greedy_equal_distances_on_long_denominators_go_to_smallest_index():
    # res 3b over |u| = 3 and res b over |u| = 1: one distance, in either order
    for b in (1, 2**700 + 7, -(2**1000 - 3)):
        for k1, res1, k2, res2 in [(1, b, 3, 3 * b), (3, 3 * b, 1, b)]:
            seq, center = _placed(k1, res1, k2, res2)
            assert _nearest(seq, center) == (1, Fraction(res1, LONG))
            assert _nearest(seq, center) == oracles.nearest_family(seq, center)


@pytest.mark.parametrize("m", [2, 3, -3, 2**900 + 1])
def test_greedy_half_integer_rounds_to_even_on_long_denominators(m):
    # u·center = m + 1/2 over a ~1500-bit common denominator: the residual is
    # +1/2 when m is even (rounded down to m) and -1/2 when m is odd
    shift = Fraction(12345, LONG)
    center = (Fraction(2 * m + 1, 2) + shift, -shift)
    seq = _Family([(1, 1), (1, 1)])  # one distance twice: the smaller index
    assert _nearest(seq, center) == (1, Fraction(1 if m % 2 == 0 else -1, 2))
    assert _nearest(seq, center) == oracles.nearest_family(seq, center)


@pytest.mark.parametrize("seed", range(3))
def test_greedy_nearest_matches_fraction_oracle_on_long_denominators(seed):
    # seeded centers over ~1500-bit denominators, and the balls of an n = 3
    # construction against greedy Black, against families of 1 to 40 vectors
    rng = random.Random(100 + seed)
    for _ in range(30):
        n = rng.randint(1, 3)
        size = rng.randint(1, 40)
        bound = rng.choice([3, 50, 10**6])
        vectors = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(size)]
        vectors = [u if any(u) else (1,) + (0,) * (n - 1) for u in vectors]
        seq = _Family(vectors)
        center = tuple(long_rational(rng, -3, 3) for _ in range(n))
        assert _nearest(seq, center) == oracles.nearest_family(seq, center)


def test_greedy_nearest_matches_fraction_oracle_on_an_n3_construction():
    seq = make_sequence([(1, 0, 0), (3, 1, 0), (13, 2, 1)])
    trace, *_ = run_constructed_game(
        seq, Fraction(1, 4), Fraction(1, 2), 3, Fraction(1, 64), 1, GreedyBlack(seq),
        center=(Fraction(3, 10), Fraction(-7, 9), Fraction(1, 5)), seed=5,
    )
    rng = random.Random(7)
    families = [seq] + [
        _Family([tuple(rng.randint(-10**k, 10**k) or 1 for _ in range(3)) for _ in range(25)])
        for k in (1, 3, 9)
    ]
    balls = [mv.ball for mv in trace.moves[::17]]
    assert max(c.denominator.bit_length() for b in balls for c in b.center) > 1400
    for ball in balls:
        for fam in families:
            assert _nearest(fam, ball.center) == oracles.nearest_family(fam, ball.center)


# -- greedy on the engine's integer center, move by move ----------------------


class CheckedGreedy(GreedyBlack):
    """GreedyBlack that checks, on every call, that the ball's form N/D is
    its center and that its choice is oracles.nearest_family's."""

    def __call__(self, state):
        den, nums = state.ball.form
        assert tuple(Fraction(x, den) for x in nums) == state.ball.center
        step, note = super().__call__(state)
        r, res = oracles.nearest_family(self.seq, state.ball.center)
        assert note == (f"on family {r}" if res == 0 else f"chasing family {r}")
        return step, note


def test_greedy_choices_through_an_n3_construction():
    seq = make_sequence([(1, 0, 0), (3, 1, 0), (13, 2, 1)])
    trace, *_ = run_constructed_game(
        seq, Fraction(1, 4), Fraction(1, 2), 3, Fraction(1, 64), 1, CheckedGreedy(seq),
        center=(Fraction(3, 10), Fraction(-7, 9), Fraction(1, 5)), seed=5,
    )
    assert len(trace.moves) == 2 * 473


@pytest.fixture(scope="module")
def deep2_seq():
    """The family of CI's deep2 game: records of a 1x2 theta over 2^1279 - 1
    drawn by Random(11), to 10^130, thinned at M = 3."""
    p = 2**1279 - 1
    rng = random.Random(11)
    theta = ThetaMatrix(((Fraction(rng.randrange(p), p), Fraction(rng.randrange(p), p)),))
    return lacunary_normalize(best_approximations(theta, 10**130), 3)


def test_greedy_choices_through_the_deep2_game(deep2_seq):
    # 211 families up to 10^130 long, over centers that grow past 600 bits
    trace, *_ = run_constructed_game(
        deep2_seq, Fraction(1, 4), Fraction(1, 2), 3, Fraction(1, 2), 3, CheckedGreedy(deep2_seq))
    assert len(deep2_seq) == 211 and len(trace.moves) == 2 * 180
    assert max(c.denominator.bit_length() for c in trace.final_ball.center) > 600
