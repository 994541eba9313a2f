"""Acceptance gate: ten exactly-checked criteria covering the whole chain.

Each criterion is a single test and prints one PASS/FAIL line (visible
under -s, and implicit in the per-test verdicts of -v).  Tolerances are
pinned next to each check; everything on the game path is exact rational
arithmetic, and floats appear only where a measure is itself a float
(the Monte-Carlo cap validation).
"""
import math
import time
from fractions import Fraction as F
from random import Random

import pytest

from badapprox.adversaries import GreedyBlack, RandomBlack
from badapprox.certify import (
    PowerLaw,
    jarnik_constant,
    resonance_margin,
    theorem1_constant,
)
from badapprox.engine import Ball, GameParams, GameTrace, concentric, replay, run_game
from badapprox.escape import (
    AvoidanceDrive,
    drive_halfspace,
    select_cap,
)
from badapprox.exact import ceil_frac, over_common_denominator
from badapprox.geometry import Hyperplane, cap_measure_bounds, norm_sq
from badapprox.resonance import ThetaMatrix, golden_theta
from badapprox.schedule import block_schedule, derive_params
from badapprox.strategy import CertificateFailed, certificate, run_constructed_game
from conftest import cap_selection_inputs, escape_drive, make_sequence
from oracles import (
    cap_fraction_montecarlo,
    contains_ball,
    plane_sign,
    strong_cap_member,
    unit_fractions,
    verified_miss,
)


def report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _params_cache():
    cache = {}

    def get(alpha, beta, n):
        key = (alpha, beta, n)
        if key not in cache:
            cache[key] = derive_params(alpha, beta, 3, n)
        return cache[key]

    return get


params_for = _params_cache()

GOLDEN_ETA = F(160567, 524288)
GOLDEN_T1 = F(6450562909, 176458170368)


def jitter_policy(seed: int):
    """Random legal policy for either seat: per-coordinate offsets capped
    at 9/16 of the slack, so the Euclidean offset stays legal up to n=3."""
    rng = Random(seed)

    def policy(state):
        shrink = state.params.alpha if state.turn == "W" else state.params.beta
        return over_common_denominator([
            (1 - shrink) * F(rng.randrange(-9, 10), 16) for _ in state.ball.center
        ]), None

    return policy


def small_family(n: int):
    vectors = {
        1: [(1,), (3,), (13,)],
        2: [(1, 0), (3, 1), (13, 2)],
        3: [(1, 0, 0), (3, 1, 0), (13, 2, 1)],
    }[n]
    return make_sequence(vectors)


# ---------------------------------------------------------------------------


def test_criterion_01_game_legality_replay_and_radius_law():
    t0 = time.monotonic()
    rng = Random(12345)
    pools = [(F(1, 4), F(1, 2)), (F(1, 3), F(1, 2)), (F(2, 5), F(1, 3)), (F(1, 5), F(3, 4))]
    games = 1000
    for trial in range(games):
        n = trial % 3 + 1
        alpha, beta = pools[trial % len(pools)]
        rho0 = F(rng.randrange(1, 5), 4)
        center = tuple(F(rng.randrange(-8, 9), 8) for _ in range(n))
        gp = GameParams(alpha, beta, n)
        tr = run_game(
            gp, Ball(center, rho0),
            jitter_policy(rng.randrange(2**30)),
            jitter_policy(rng.randrange(2**30)),
            3,
        )
        prev = tr.initial
        for i, mv in enumerate(tr.moves):
            expect = rho0 * alpha ** ((i + 2) // 2) * beta ** ((i + 1) // 2)
            assert mv.ball.radius == expect  # exact radius law
            assert contains_ball(prev, mv.ball)  # exact nesting
            prev = mv.ball
        blob = tr.dumps()
        assert GameTrace.loads(blob).dumps() == blob  # byte round-trip
        assert replay(tr).dumps() == blob  # replay reproduces
    dt = time.monotonic() - t0
    report(1, dt < 60, f"{games} seeded games legal, serialized, replayed in {dt:.1f}s")


def test_criterion_02_drift_identity_exact():
    rng = Random(7)
    checked = 0
    for _ in range(20):
        alpha = F(rng.randrange(1, 50), 100)  # (0, 1/2)
        beta = F(rng.randrange(1, 99), 100)
        gamma = 1 + alpha * beta - 2 * alpha
        gp = GameParams(alpha, beta, 1)

        def opposed(state):
            return over_common_denominator([-(1 - state.params.beta)]), None

        white = escape_drive(((1,), 1))
        tr = run_game(gp, Ball((F(0),), F(1)), white, opposed, 1)
        assert tr.moves[1].ball.center[0] == gamma  # rho_B = 1, exact identity
        checked += 1
    report(2, checked == 20, f"height gain == gamma*rho for {checked}/20 random (alpha, beta)")


def test_criterion_03_escape_halfspace_postcondition():
    t0 = time.monotonic()
    rng = Random(99)
    pools = [(F(1, 4), F(1, 2)), (F(1, 3), F(1, 2))]
    families = {n: small_family(n) for n in (1, 2, 3)}
    trials = 200
    for trial in range(trials):
        n = trial % 3 + 1
        alpha, beta = pools[trial % 2]
        params = params_for(alpha, beta, n)
        ball = Ball(tuple(F(0) for _ in range(n)), F(1, 2))
        u = tuple(rng.randrange(-9, 10) for _ in range(n))
        if all(c == 0 for c in u):
            u = (1,) + (0,) * (n - 1)
        plane = Hyperplane(u, 0)  # through the block-start center
        sel = select_cap(ball, [plane], params, seed=trial)
        white = escape_drive(sel.direction)
        hs = drive_halfspace(ball, sel.direction, params.gamma)
        black = RandomBlack(seed=trial) if trial % 2 == 0 else GreedyBlack(families[n])
        gp = GameParams(alpha, beta, n)
        tr = run_game(gp, ball, white, black, params.escape_rounds)
        assert hs.contains_ball(tr.final_ball)  # exact containment
    dt = time.monotonic() - t0
    report(3, dt < 120, f"{trials} escape drives all landed in the certified halfspace ({dt:.1f}s)")


def test_criterion_04_cap_selection_quota():
    inputs = list(cap_selection_inputs())
    for ball, planes, params, seed in inputs:
        sel = select_cap(ball, planes, params, seed=seed)
        quota = ceil_frac(params.cap_measure_lb * len(planes))
        assert len(sel.strong) >= quota
        shrink_t = params.shrink ** params.escape_rounds
        direction = unit_fractions(sel.direction)
        for j in sel.strong:  # independent exact re-verification
            sgn = plane_sign(ball, planes[j])
            assert strong_cap_member(planes[j], sgn, direction, params.gamma, shrink_t)
        for j in sel.escaped:
            sgn = plane_sign(ball, planes[j])
            assert verified_miss(ball, planes[j], sgn, direction, params.gamma)
    report(4, True, f"{len(inputs)} selections met ceil(omega_lb*k) with exact re-verification")


def test_criterion_05_avoidance_residual_postcondition():
    rng = Random(505)
    trials = 100
    for trial in range(trials):
        n = trial % 2 + 1
        params = params_for(F(1, 4), F(1, 2), n)
        center = tuple(F(rng.randrange(-20, 21), 100) for _ in range(n))
        ball = Ball(center, F(1, 16) if n == 1 else F(1, 64))
        k = rng.randrange(1, 8) if n == 1 else rng.randrange(1, 13)
        planes = []
        for _ in range(k):
            u = tuple(rng.randrange(-9, 10) for _ in range(n))
            if all(c == 0 for c in u):
                u = (1,) + (0,) * (n - 1)
            a = round(sum(F(c) * x for c, x in zip(u, center)))
            planes.append(Hyperplane(u, a))
        white = AvoidanceDrive(planes, params, seed=trial)
        black = RandomBlack(seed=trial) if trial % 2 == 0 else concentric
        gp = GameParams(params.alpha, params.beta, n)
        tr = run_game(gp, ball, white, black, params.avoidance_rounds)
        fin = tr.final_ball
        bound = (1 + params.gamma / 2) * fin.radius
        for p in planes:
            res = sum(F(c) * x for c, x in zip(p.normal, fin.center)) - p.offset
            # every point of the final ball sits > rho_final*gamma/2 away
            assert res * res > norm_sq(p.normal) * bound * bound
    report(5, True, f"{trials} avoidance drives cleared every plane by > rho*gamma/2")


def test_criterion_06_cap_fraction_monte_carlo():
    gamma = F(5, 8)
    deltas = {}
    for n in (2, 3):
        # the exact bracket of the full cap, angular radius asin(gamma/2)
        lo, hi = (F(v, 1 << 64) for v in cap_measure_bounds(gamma / 2, F(0), n, 64))
        mc = cap_fraction_montecarlo(gamma, n, samples=1_000_000, seed=0)
        deltas[n] = max(0.0, float(lo) - mc, mc - float(hi))
        assert deltas[n] <= 5e-3
    report(6, True, "exact cap bracket vs 1e6-sample Monte Carlo: "
           + ", ".join(f"n={n} distance={d:.2e}" for n, d in deltas.items()))


def test_criterion_07_golden_thread_end_to_end(golden_seq):
    t0 = time.monotonic()
    trace, cert, white, sched = run_constructed_game(
        golden_seq, F(1, 4), F(1, 2), 3, F(1, 2), 2, GreedyBlack(golden_seq), seed=0
    )
    p = sched.params
    assert (p.gamma, p.escape_rounds, p.cap_measure_lb) == (F(5, 8), 1, F(1, 2))
    assert (p.plane_budget, p.avoidance_rounds, p.margin) == (8, 3, F(5, 1889568))
    assert [golden_seq.norm_sq_of(r) for r in range(1, 7)] == [1, 9, 169, 3025, 54289, 974169]
    assert sched.cuts == (0, 1, 5)
    assert trace.final_ball.center == (GOLDEN_ETA,)
    assert trace.final_ball.radius == F(1, 524288)
    assert [m.note for m in trace.moves] == [
        "block 0 sub 0 drive 1/1 (1 live)", "chasing family 6",
        "block 0 sub 1 hold", "chasing family 6",
        "block 0 sub 2 hold", "chasing family 5",
        "block 1 sub 0 drive 1/1 (1 live)", "chasing family 6",
        "block 1 sub 1 hold", "chasing family 6",
        "block 1 sub 2 hold", "chasing family 6",
    ]
    assert [(e.r, e.normal, e.offset, e.block) for e in cert.entries] == [
        (1, (1,), 0, 0), (2, (3,), 1, 1), (3, (13,), 4, 1),
        (4, (55,), 17, 1), (5, (233,), 71, 1),
    ]
    margin = resonance_margin(golden_seq, cert.eta_center, r_max=cert.covered_through)
    assert margin.value == F(9781, 524288)
    assert margin.value > p.margin  # every realized residual beats epsilon
    dt = time.monotonic() - t0
    report(7, dt < 300, f"constants, schedule, certificate, margin all pinned ({dt:.1f}s)")


def test_criterion_08_brute_force_positivity():
    values = {}
    warned = {}
    for n_bound in (100, 1000, 10000):
        rep = theorem1_constant(golden_theta(), [GOLDEN_ETA], n_bound)
        values[n_bound] = rep.value
        warned[n_bound] = bool(rep.warnings)
    assert values[100] == values[1000] == values[10000] == GOLDEN_T1
    assert values[10000] > 0
    assert values[1000] <= values[100] and values[10000] <= values[1000]
    assert not warned[100] and not warned[1000] and warned[10000]
    report(8, True, f"value {GOLDEN_T1} > 0, non-increasing through N=1e4, "
           "surrogate bound flagged exactly once")


def test_criterion_09_decay_product_consistency():
    rng = Random(909)
    instances = 50
    for _ in range(instances):
        m = rng.choice([1, 2])
        n = rng.choice([1, 2])
        rows = tuple(
            tuple(F(rng.randrange(1, 40), 41) for _ in range(n)) for _ in range(m)
        )
        theta = ThetaMatrix(rows)
        eta = [F(rng.randrange(0, 53), 53) for _ in range(n)]
        limit = rng.randrange(8, 15) if m == 2 else rng.randrange(30, 201)
        rj = jarnik_constant(theta, eta, PowerLaw(F(1), n, m), limit)
        rp = theorem1_constant(theta, eta, limit)
        assert rj.argmin == rp.argmin  # identical minimizers
        assert rj.value == rp.value  # power-identity values, exact
    report(9, True, f"{instances} random instances: decay profile t^(-n/m) "
           "reproduces the product functional exactly")


def test_criterion_10_negative_controls(golden_seq, golden_params):
    theta_val = golden_theta().rows[0][0]
    planted = 7 * theta_val - int(7 * theta_val)
    rep = theorem1_constant(golden_theta(), [planted], 50)
    assert rep.value == 0 and rep.argmin == (7,)

    sched = block_schedule(golden_params, golden_seq, F(1, 2), 2)
    gp = GameParams(F(1, 4), F(1, 2), 1)
    lazy = run_game(
        gp, Ball((F(0),), F(1, 2)), concentric, GreedyBlack(golden_seq),
        2 * golden_params.avoidance_rounds,
    )
    with pytest.raises(CertificateFailed):
        certificate(lazy, golden_seq, sched)
    report(10, True, "planted shift scored exactly 0; do-nothing strategy failed certification")
