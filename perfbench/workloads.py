"""The three benchmark workloads: seeded inputs, jobs and exact output gates.

A workload is a list of rounds.  ``make_round(seed, index)`` builds the
inputs of one round from the seed alone and returns its jobs; the loop in
run.py times each job and hashes its outputs.  Every job checks its own
outputs exactly and reports each failed check as an error string.

Library functions are always reached through their module (``engine.run_game``,
not a name imported once), so the tracer in tracing.py can wrap them.
"""
from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from badapprox import adversaries, certify, cli, engine, escape, resonance, schedule, strategy
from badapprox.engine import GameParams
from badapprox.geometry import Ball, Hyperplane, nearest_int_dist

ALPHA = Fraction(1, 4)
BETA = Fraction(1, 2)
LACUNARITY = Fraction(3)


@dataclass
class Outcome:
    outputs: dict[str, str] = field(default_factory=dict)  # hashed, must not change
    facts: dict[str, int] = field(default_factory=dict)  # work counts measured here
    errors: list[str] = field(default_factory=list)  # failed output checks

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)


@dataclass
class Job:
    kind: str
    run: Callable[[], Outcome]


def max_den_bits(trace) -> int:
    balls = [trace.initial] + [mv.ball for mv in trace.moves]
    return max(
        max(x.denominator.bit_length() for x in ball.center + (ball.radius,))
        for ball in balls
    )


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# -- golden-certify ------------------------------------------------------------

GOLDEN_N = 100_000  # the flagship `certify --N 100000`
SEEDED_N = 3_000  # seeded jobs: a run holds dozens of them, not a handful
CHECK_N = 300  # reduced limit of the planted-shift and identity checks
SEEDED_JOBS = 16
GOLDEN_ETA = ["160567/524288"]
GOLDEN_RADIUS = "1/524288"
GOLDEN_CUTS = [0, 1, 5]
GOLDEN_T1 = "6450562909/176458170368"
GOLDEN_T1_ARGMIN = [28]
GOLDEN_MARGIN = Fraction(9781, 524288)


def _golden_family():
    theta = resonance.golden_theta()
    records = resonance.best_approximations_cf(theta, 1000)
    return theta, resonance.lacunary_normalize(records, LACUNARITY)


def _flagship(workdir: Path) -> Outcome:
    """`badapprox play` and `badapprox certify --N 100000`, run through the CLI."""
    out = Outcome()
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        rc_play = cli.main([
            "play", "--alpha", "1/4", "--beta", "1/2", "--blocks", "2",
            "--out", str(workdir),
        ])
    out.check(rc_play == 0, f"play exited {rc_play}")
    cert = json.loads((workdir / "certificate.json").read_text())
    eta = cert["certificate"]["eta_center"]
    with redirect_stdout(stdout):
        rc_cert = cli.main([
            "certify", "--eta", ",".join(eta), "--N", str(GOLDEN_N),
            "--out", str(workdir),
        ])
    out.check(rc_cert == 0, f"certify exited {rc_cert}")
    report = json.loads((workdir / "report.json").read_text())["report"]
    theta, seq = _golden_family()
    margin = certify.resonance_margin(
        seq, [Fraction(e) for e in eta], cert["certificate"]["covered_through"]
    )

    out.check(eta == GOLDEN_ETA, f"eta {eta}")
    out.check(cert["certificate"]["eta_radius"] == GOLDEN_RADIUS, "final radius")
    out.check(cert["cuts"] == GOLDEN_CUTS, f"cuts {cert['cuts']}")
    out.check(report["value"] == GOLDEN_T1, f"theorem1 {report['value']}")
    out.check(report["argmin"] == GOLDEN_T1_ARGMIN, f"argmin {report['argmin']}")
    out.check(margin.value == GOLDEN_MARGIN, f"margin {margin.value}")
    files = ("trace.json", "certificate.json", "report.json")
    texts = {name: (workdir / name).read_text() for name in files}
    out.outputs.update(texts)
    out.outputs["stdout"] = stdout.getvalue()
    out.outputs["margin"] = json.dumps(margin.to_jsonable(), sort_keys=True)
    # files only: the printed paths depend on where the checkout lives
    out.facts["cli.bytes_written"] = sum(len(t.encode()) for t in texts.values())
    trace = json.loads(texts["trace.json"])
    out.facts["engine.max_den_bits"] = max(
        Fraction(x).denominator.bit_length()
        for mv in trace["moves"] for x in mv["center"] + [mv["radius"]]
    )
    return out


def _golden_seeded(black_seed: int, white_seed: int, planted_x: int) -> Outcome:
    """A construction against random Black, its shift certified by brute force."""
    out = Outcome()
    theta, seq = _golden_family()
    trace, cert, white, sched = strategy.run_constructed_game(
        seq, ALPHA, BETA, LACUNARITY, Fraction(1, 2), 2,
        adversaries.RandomBlack(seed=black_seed), seed=white_seed,
    )
    eta = trace.final_ball.center
    report = certify.theorem1_constant(theta, eta, SEEDED_N)
    small = certify.theorem1_constant(theta, eta, CHECK_N)
    decay = certify.jarnik_constant(theta, eta, certify.PowerLaw(1, 1, 1), CHECK_N)
    planted = planted_x * theta.rows[0][0] % 1
    zero = certify.theorem1_constant(theta, [planted], CHECK_N)
    margin = certify.resonance_margin(seq, eta, cert.covered_through)

    out.check(cert.covered_through == 5, f"covered through {cert.covered_through}")
    out.check(report.value > 0, "constructed shift scored 0")
    out.check(small.value == decay.value, "theorem1 != jarnik(c=1, sigma=1/1)")
    out.check(small.argmin == decay.argmin, "theorem1 and jarnik argmin differ")
    out.check(zero.value == 0 and zero.argmin == (planted_x,), "planted shift not 0")
    out.check(margin.value > sched.params.margin, "margin below epsilon")
    out.outputs["trace"] = trace.dumps()
    out.outputs["certificate"] = cert.dumps()
    for name, rep in (("report", report), ("small", small), ("decay", decay),
                      ("zero", zero), ("margin", margin)):
        out.outputs[name] = json.dumps(rep.to_jsonable(), sort_keys=True)
    out.facts["strategy.gathered_planes"] = len(white.handled)
    out.facts["engine.max_den_bits"] = max_den_bits(trace)
    return out


def golden_certify(seed: int, index: int, workdir: Path) -> list[Job]:
    rng = _rng("golden-certify", seed, index)
    jobs = []
    for _ in range(SEEDED_JOBS):
        b, w, x = rng.randrange(2**32), rng.randrange(2**32), rng.randint(1, CHECK_N)
        jobs.append(Job("seeded", lambda b=b, w=w, x=x: _golden_seeded(b, w, x)))
    # mid-round, so probes on both sides calibrate the longest job
    jobs.insert(SEEDED_JOBS // 2, Job("flagship", lambda: _flagship(workdir)))
    return jobs


# -- construct-nd ----------------------------------------------------------------

RHO0 = Fraction(1, 64)
FAMILY_LENGTH = 6
DRIVE_PLANES = 12
#: plane budget k and block length tau pinned for alpha=1/4, beta=1/2, M=3
PINNED_PARAMS = {3: (898, 473), 4: (5662, 2990)}


def _synthetic_family(rng: random.Random, n: int):
    """Random integer vectors whose squared sizes grow by a factor in [9, 81].

    The first squared size is at most 200, so 2*rho0*t_1 <= 1 at rho0 = 1/64.
    """
    entries = []
    lo, hi = 1, 200
    while len(entries) < FAMILY_LENGTH:
        bound = int(hi**0.5)
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        nsq = sum(c * c for c in v)
        if lo <= nsq <= hi:
            entries.append(resonance.ResonanceEntry(v, nsq, None))
            lo, hi = 9 * nsq, 81 * nsq
    return resonance.ResonanceSequence(tuple(entries), LACUNARITY)


def _construction(n: int, greedy: bool, seq, center, seed: int) -> Outcome:
    """One block of the constructing game, then its artifacts re-checked."""
    out = Outcome()
    params = schedule.derive_params(ALPHA, BETA, LACUNARITY, n)
    sched = schedule.block_schedule(params, seq, RHO0, 1)
    white = strategy.WhiteStrategy(seq, sched, seed=seed)
    black = adversaries.GreedyBlack(seq) if greedy else adversaries.RandomBlack(seed=seed)
    trace = engine.run_game(
        GameParams(ALPHA, BETA, n), Ball(center, RHO0), white, black,
        params.avoidance_rounds,
    )
    cert = strategy.certificate(trace, seq, sched).dumps()
    text = trace.dumps()
    loaded = engine.GameTrace.loads(text)
    out.check(loaded.dumps() == text, "loads/dumps round trip changed bytes")
    out.check(engine.replay(loaded).dumps() == text, "replay changed bytes")
    out.check(strategy.certificate(loaded, seq, sched).dumps() == cert,
              "certificate from the loaded trace differs")
    if n in PINNED_PARAMS:
        got = (params.plane_budget, params.avoidance_rounds)
        out.check(got == PINNED_PARAMS[n], f"k, tau = {got}")
    out.outputs["trace"] = text
    out.outputs["certificate"] = cert
    out.facts["strategy.gathered_planes"] = len(white.handled)
    out.facts["engine.max_den_bits"] = max_den_bits(trace)
    return out


def _drive(n: int, center, planes, seed: int) -> Outcome:
    """AvoidanceDrive off planes through the ball center, against random Black."""
    out = Outcome()
    params = schedule.derive_params(ALPHA, BETA, LACUNARITY, n)
    white = escape.AvoidanceDrive(planes, params, seed=seed)
    trace = engine.run_game(
        GameParams(ALPHA, BETA, n), Ball(center, RHO0), white,
        adversaries.RandomBlack(seed=seed), params.avoidance_rounds,
    )
    final = trace.final_ball
    reach = (1 + params.gamma / 2) * final.radius
    for j, plane in enumerate(planes):
        res = plane.residual(final.center)
        out.check(res * res > plane.norm_sq * reach * reach, f"plane {j} not cleared")
    out.outputs["trace"] = trace.dumps()
    out.facts["engine.max_den_bits"] = max_den_bits(trace)
    return out


def _derive_n4() -> Outcome:
    out = Outcome()
    params = schedule.derive_params(ALPHA, BETA, LACUNARITY, 4)
    got = (params.plane_budget, params.avoidance_rounds)
    out.check(got == PINNED_PARAMS[4], f"k, tau = {got}")
    out.outputs["params"] = json.dumps(params.to_jsonable(), sort_keys=True)
    return out


#: (dimension, greedy Black) of the constructions in one round.  The mix is
#: fixed so that the median job is an n=3 construction against random Black
#: and the tail one against greedy Black, never the edge between two kinds.
CONSTRUCTIONS = [(2, True), (2, False)] + [(3, False)] * 6 + [(3, True)] * 3
DRIVE_DIMENSIONS = [2, 3, 3]


def construct_nd(seed: int, index: int, workdir: Path) -> list[Job]:
    rng = _rng("construct-nd", seed, index)
    jobs = []
    for n, greedy in CONSTRUCTIONS:
        seq = _synthetic_family(rng, n)
        center = tuple(Fraction(rng.randrange(-1000, 1001), 1000) for _ in range(n))
        s = rng.randrange(2**32)
        jobs.append(Job(
            f"n{n}-{'greedy' if greedy else 'random'}",
            lambda a=(n, greedy, seq, center, s): _construction(*a),
        ))
    for n in DRIVE_DIMENSIONS:
        center = tuple(Fraction(rng.randint(-20, 20)) for _ in range(n))
        planes = []
        while len(planes) < DRIVE_PLANES:
            u = tuple(rng.randint(-9, 9) for _ in range(n))
            if any(u):
                planes.append(Hyperplane(u, sum(a * b for a, b in zip(u, center))))
        s = rng.randrange(2**32)
        jobs.append(Job(f"drive-n{n}", lambda a=(n, center, planes, s): _drive(*a)))
    jobs.append(Job("derive-n4", _derive_n4))
    return jobs


# -- lattice-2d ----------------------------------------------------------------

COLUMN_THETAS = 3  # 2x1 thetas per round, two scans each: most jobs are m=2 scans
RECORD_T = 100  # 1x2 theta: records over |y|_inf <= 100
DECAY_T = 120  # and the decay check up to t = 120, so it is the slowest job
SCAN_N = 100  # 2x1 theta: m = 2 brute-force scans over |x|_inf <= 100
DENOMINATOR = 2**31 - 1  # prime, so no exact resonance falls inside the boxes


def _dirichlet(t: int) -> Fraction:
    """psi(t) <= 1/t^2 for every 1x2 theta, by the pigeonhole principle."""
    return Fraction(1, t * t)


def _records_job(theta, shared: dict) -> Outcome:
    out = Outcome()
    recs = resonance.best_approximations(theta, RECORD_T)
    for a, b in zip(recs, recs[1:]):
        out.check(a.norm_sq < b.norm_sq and a.quality > b.quality, "records not strict")
    for r in recs:
        out.check(theta.dual_quality(r.vector) == r.quality, f"quality of {r.vector}")
    shared["record_min"] = recs[-1].quality
    out.outputs["records"] = json.dumps(
        [[list(r.vector), r.norm_sq, str(r.quality)] for r in recs]
    )
    return out


def _decay_job(theta, shared: dict) -> Outcome:
    out = Outcome()
    report = resonance.verify_decay_bound(theta, _dirichlet, DECAY_T)
    out.check(report["ok"], "Dirichlet bound reported violated")
    # psi(RECORD_T) and the last record are both the minimum over one box
    psi = [Fraction(v) for t, v in report["steps"] if t <= RECORD_T][-1]
    out.check(psi == shared.get("record_min"),
              "decay walk and records disagree on the box minimum")
    out.outputs["report"] = json.dumps(report, sort_keys=True)
    return out


def _product_at(theta, eta, x) -> Fraction:
    """(max_j ||L_j(x) - eta_j||)^n (max|x_i|)^m, straight from the definition."""
    m, n = theta.shape
    r = max(
        nearest_int_dist(sum(theta.rows[i][j] * x[i] for i in range(m)) - eta[j])
        for j in range(n)
    )
    return r**n * Fraction(max(abs(c) for c in x)) ** m


def _scan_job(theta, eta, decay: bool, shared: dict) -> Outcome:
    """theorem1, or the decay functional with psi = t^(-n/m), which must
    give exactly the same value and argmin (checked in the second job)."""
    out = Outcome()
    if decay:
        rep = certify.jarnik_constant(theta, eta, certify.PowerLaw(1, theta.n, theta.m), SCAN_N)
        out.check((rep.value, rep.argmin) == shared.get("theorem1"),
                  "jarnik(c=1, sigma=n/m) differs from theorem1")
    else:
        rep = certify.theorem1_constant(theta, eta, SCAN_N)
        shared["theorem1"] = (rep.value, rep.argmin)
    out.check(_product_at(theta, eta, rep.argmin) == rep.value, "value at argmin")
    out.outputs["report"] = json.dumps(rep.to_jsonable(), sort_keys=True)
    return out


def lattice_2d(seed: int, index: int, workdir: Path) -> list[Job]:
    rng = _rng("lattice-2d", seed, index)

    def entry() -> Fraction:
        return Fraction(rng.randrange(1, DENOMINATOR), DENOMINATOR)

    row, found = resonance.ThetaMatrix(((entry(), entry()),)), {}
    jobs = [
        Job("records", lambda: _records_job(row, found)),
        Job("decay", lambda: _decay_job(row, found)),
    ]
    for _ in range(COLUMN_THETAS):
        a = (resonance.ThetaMatrix(((entry(),), (entry(),))), (entry(),), {})
        jobs.append(Job("theorem1-m2", lambda a=a: _scan_job(a[0], a[1], False, a[2])))
        jobs.append(Job("jarnik-m2", lambda a=a: _scan_job(a[0], a[1], True, a[2])))
    return jobs


WORKLOADS = {
    "golden-certify": golden_certify,
    "construct-nd": construct_nd,
    "lattice-2d": lattice_2d,
}
