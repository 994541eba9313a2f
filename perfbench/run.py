#!/usr/bin/env python3
"""Benchmark for badapprox: three seeded workloads, exact output gates.

    python3 perfbench/run.py --workload golden-certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from ./src.  One
client runs jobs back to back (a closed loop) in this single process.  A run
repeats rounds of jobs, each round with fresh inputs drawn from the seed,
until --seconds have passed (and at least MIN_ROUNDS rounds and MIN_JOBS
jobs are done).  Every job's outputs are checked exactly; a failed check or
an exception counts as a failed job and makes the exit code 1.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every round twice,
untraced and then traced, requires identical output hashes, and prints the
per-layer metrics.  The last line of standard output is one JSON object.
See perfbench/README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from tracing import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # the tail is the slowest job with at least this many beyond it
MIN_JOBS = TAIL_BEYOND + 1

#: Probe time, in seconds, that calibrated times are scaled to.  It is the
#: probe's time on an uncontended core of the machine named in README.md; any
#: fixed value would do, as long as it never changes between runs compared.
PROBE_REFERENCE_S = 0.013

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import badapprox; "
    "print(time.perf_counter() - t)"
)


def _probe() -> tuple[float, float]:
    """(midpoint, seconds) of a fixed piece of pure-Python exact arithmetic.

    On a shared 2-vCPU virtual machine the cores change speed by up to 2x
    several times a second (the same loop takes 0.08 s or 0.16 s, with CPU
    time equal to wall time and no steal), so each job's time is divided by
    the speed the probes read around it.  The probe uses no part of badapprox.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 2500):
        acc += Fraction(i % 97, 1000003 + i)
        acc = Fraction(acc.numerator % (1 << 80), acc.denominator % (1 << 80) + 1)
    x = 1
    for _ in range(20000):
        x = (x * 1103515245 + 12345) % (1 << 61)
    end = time.perf_counter()
    return (start + end) / 2, end - start


def _import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _digest(outputs: dict[str, str]) -> str:
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(key.encode() + b"\0" + outputs[key].encode() + b"\0")
    return h.hexdigest()


class Run:
    """One workload's timed phase: job times, outcomes and failures.

    Times are calibrated: measured seconds times PROBE_REFERENCE_S over the
    mean probe time in the job's window (see _speed_window).  Raw seconds
    are kept for the report.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        from workloads import WORKLOADS

        self.make_round = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.job_times: list[float] = []
        self.raw_job_times: list[float] = []

    def round(self, index: int, tracer=None):
        """Run one round; returns (calibrated wall, raw wall, per-job digests, facts)."""
        jobs = self.make_round(self.seed, index, self.workdir)
        digests = []
        facts: dict[str, int] = {}
        probes = [_probe()]  # (midpoint, seconds) of the probes around the jobs
        timed = []  # (start, seconds) of the jobs
        for job in jobs:
            self.attempted += 1
            if tracer is not None:
                frame = tracer.open("bench.job")
            start = time.perf_counter()
            try:
                outcome = job.run()
                error = "; ".join(outcome.errors)
            except Exception:  # a job that raises is a failed job, not a crash
                outcome = None
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.close(frame)
            timed.append((start, elapsed))
            probes.append(_probe())
            if error:
                self.failed += 1
                print(f"FAILED round {index} job {job.kind}: {error}", file=sys.stderr)
                digests.append(None)
                continue
            digests.append(_digest(outcome.outputs))
            for key, value in outcome.facts.items():
                if key == "engine.max_den_bits":
                    facts[key] = max(facts.get(key, 0), value)
                else:
                    facts[key] = facts.get(key, 0) + value
        calibrated = [
            elapsed * PROBE_REFERENCE_S / _speed_window(probes, i, start, elapsed)
            for i, (start, elapsed) in enumerate(timed)
        ]
        self.job_times.extend(calibrated)
        self.raw_job_times.extend(elapsed for _, elapsed in timed)
        return sum(calibrated), sum(elapsed for _, elapsed in timed), digests, facts


def _speed_window(probes, i: int, start: float, elapsed: float) -> float:
    """Mean probe time around job i: the probes on either side of it, and
    every probe of the round within one job length of it.  The core speed
    changes several times a second, so a long job is compared with the
    speed over a window as long as itself, a short job with its neighbours."""
    window = [probes[i][1], probes[i + 1][1]]
    window += [
        seconds for j, (mid, seconds) in enumerate(probes)
        if j not in (i, i + 1) and start - elapsed <= mid <= start + 2 * elapsed
    ]
    return statistics.fmean(window)


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest job with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _line(name: str, value, unit: str, note: str) -> str:
    return f"  {name:<44} {value:>14.6g} {unit:<8} {note}"


def _per_layer(tracer, rounds: int, speed: float, round0: dict,
               overhead: float) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics: name -> (value, unit, sample note).

    Span times are multiplied by `speed`, the calibrated over the raw time
    of the traced jobs, so they are in the same seconds as the job times.
    Counts are those of round 0 (`round0`), which are exact for a seed.
    """
    calls, cnt = tracer.calls, tracer.counters
    tot = defaultdict(float, {k: v * speed for k, v in tracer.total.items()})
    self_time = defaultdict(float, {k: v * speed for k, v in tracer.self_time.items()})
    job_time = tot["bench.job"]

    def count(name, unit="count"):
        return round0.get(name, 0), unit, "round 0"

    def per_round(span):
        return tot[span] / rounds, "s", f"n={calls[span]} calls/{rounds} rounds"

    def ratio(num, den):
        return num / den if den else 0.0

    selves: dict[str, float] = defaultdict(float)
    for name, value in self_time.items():
        selves[name.split(".", 1)[0]] += value
    moves = cnt["engine.half_moves"]
    white_moves = calls["strategy.white"]
    m: dict[str, tuple[float, str, str]] = {}
    m["resonance.records_s"] = per_round("resonance.records")
    m["resonance.candidates"] = count("resonance.candidates")
    m["resonance.candidates_per_s"] = (
        ratio(cnt["resonance.candidates"],
              tot["resonance.records"] + tot["resonance.decay_check"]), "1/s",
        f"n={cnt['resonance.candidates']} candidates")
    m["resonance.records"] = count("resonance.records")
    m["resonance.decay_check_s"] = per_round("resonance.decay_check")
    m["resonance.lacunary_s"] = per_round("resonance.lacunary")
    for n in (3, 4):
        m[f"schedule.derive_s.n{n}"] = per_round(f"schedule.derive.n{n}")
    m["schedule.plane_budget"] = count("schedule.plane_budget")
    m["schedule.block_schedule_s"] = per_round("schedule.block_schedule")
    m["engine.self_s_per_half_move"] = (
        ratio(self_time["engine.run_game"], moves), "s/move", f"n={moves} half-moves")
    m["engine.half_moves"] = count("engine.half_moves")
    replayed = cnt["engine.replayed_half_moves"]
    m["engine.replay_s_per_half_move"] = (
        ratio(tot["engine.replay"], replayed), "s/move", f"n={replayed} half-moves")
    m["engine.dumps_s"] = per_round("engine.dumps")
    m["engine.loads_s"] = per_round("engine.loads")
    m["engine.trace_bytes"] = count("engine.trace_bytes", "bytes")
    m["engine.max_den_bits"] = count("engine.max_den_bits", "bits")
    for kind in ("greedy", "random"):
        span = f"adversaries.{kind}"
        m[f"adversaries.black_s_per_move.{kind}"] = (
            ratio(tot[span], calls[span]), "s/move", f"n={calls[span]} moves")
    m["strategy.white_self_s_per_move"] = (
        ratio(self_time["strategy.white"], white_moves), "s/move",
        f"n={white_moves} moves")
    m["strategy.gathered_planes"] = count("strategy.gathered_planes")
    m["strategy.certificate_s"] = per_round("strategy.certificate")
    m["strategy.certificate_entries"] = count("strategy.certificate_entries")
    sel_calls, cands = calls["escape.select_cap"], cnt["escape.candidates"]
    m["escape.select_cap_calls"] = count("escape.select_cap_calls")
    m["escape.candidates"] = count("escape.candidates")
    m["escape.candidates_per_s"] = (
        ratio(cands, tot["escape.select_cap"]), "1/s", f"n={cands} candidates")
    m["escape.candidates_per_selection"] = (
        ratio(cands, sel_calls), "count", f"n={sel_calls} selections")
    m["escape.select_s"] = per_round("escape.select_cap")
    m["certify.points"] = count("certify.points")
    scans = [f"certify.{f}.m{dim}" for f in ("theorem1", "jarnik") for dim in (1, 2)]
    m["certify.scan_s"] = (sum(tot[s] for s in scans) / rounds, "s",
                           f"n={sum(calls[s] for s in scans)} scans/{rounds} rounds")
    for dim in (1, 2):
        pts = cnt[f"certify.points.m{dim}"]
        m[f"certify.points_per_s.m{dim}"] = (
            ratio(pts, tot[f"certify.theorem1.m{dim}"] + tot[f"certify.jarnik.m{dim}"]),
            "1/s", f"n={pts} points")
    m["certify.margin_s"] = per_round("certify.margin")
    m["cli.self_s"] = (self_time["cli.main"] / rounds, "s",
                       f"n={calls['cli.main']} calls/{rounds} rounds")
    m["cli.bytes_written"] = count("cli.bytes_written", "bytes")
    for layer in LAYERS + ("bench",):
        m[f"{layer}.share"] = (100.0 * ratio(selves.get(layer, 0.0), job_time), "%",
                               "self time / job time")
    m["tracing.overhead_s"] = (overhead, "s", "traced minus untraced round wall")
    return m


def _counts(tracer, facts: dict) -> dict:
    """Work counts so far: the tracer's, the jobs' own, and selections made."""
    snap = dict(tracer.counters)
    snap.update(facts)
    snap["escape.select_cap_calls"] = tracer.calls["escape.select_cap"]
    return snap


def _setup_times(workload: str, seed: int) -> list[float]:
    """Calibrated set-up times: a fresh import plus round 0's input generation."""
    from workloads import WORKLOADS

    times = []
    for _ in range(SETUP_REPEATS):
        _, before = _probe()
        elapsed = _import_seconds()
        start = time.perf_counter()
        WORKLOADS[workload](seed, 0, ROOT)
        elapsed += time.perf_counter() - start
        times.append(elapsed * 2 * PROBE_REFERENCE_S / (before + _probe()[1]))
    return times


def run_workload(args) -> int:
    setup = _setup_times(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        walls, raw_walls, traced_walls = [], [], []
        traced_raw, round0 = 0.0, None
        start = time.perf_counter()
        index = 0
        while True:
            wall, raw_wall, digests, facts = run.round(index)
            walls.append(wall)
            raw_walls.append(raw_wall)
            if tracer is not None:
                tracer.install()
                try:
                    wall_t, raw_t, digests_t, facts_t = run.round(index, tracer)
                finally:
                    tracer.uninstall()
                traced_walls.append(wall_t)
                traced_raw += raw_t
                bad = sum(a != b for a, b in zip(digests, digests_t))
                if bad or facts != facts_t:
                    run.failed += max(bad, 1)
                    print(f"FAILED round {index}: traced outputs differ", file=sys.stderr)
                if round0 is None:
                    round0 = _counts(tracer, facts_t)
            index += 1
            if (time.perf_counter() - start >= args.seconds and index >= MIN_ROUNDS
                    and len(run.job_times) >= MIN_JOBS):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {index}  jobs {run.attempted}  failed {run.failed}")
    print(_line("failed_ratio", run.failed / run.attempted, "ratio", f"n={run.attempted} jobs"))
    print(_line("raw_wall_s", statistics.fmean(raw_walls), "s",
                f"n={index} rounds, uncalibrated"))
    print(_line("raw_job_p50_s", statistics.median(run.raw_job_times), "s",
                f"n={len(run.raw_job_times)} jobs, uncalibrated"))
    if tracer is None:
        jobs = len(run.job_times)
        metrics = {
            "setup_s": (statistics.median(setup), "s", f"n={len(setup)} set-ups"),
            "wall_s": (statistics.fmean(walls), "s", f"n={index} rounds"),
            "job_p50_s": (statistics.median(run.job_times), "s", f"n={jobs} jobs"),
        }
        tail, percentile = _tail(run.job_times)
        metrics["job_tail_s"] = (tail, "s", f"p{percentile:.1f} of n={jobs} jobs")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (rss, "MB", "n=1 process")
    else:
        # spans are raw seconds; scale them like the traced jobs were scaled
        speed = sum(traced_walls) / traced_raw
        overhead = statistics.fmean(traced_walls) - statistics.fmean(walls)
        metrics = _per_layer(tracer, index, speed, round0, overhead)
    for name, (value, unit, note) in metrics.items():
        print(_line(name, value, unit, note))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


def self_test() -> int:
    """Same seed, same work: round 0 of every workload, run twice traced,
    must give identical work counts and outputs identical to an untraced run."""
    from workloads import WORKLOADS

    ok = True
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name in WORKLOADS:
            plain = Run(name, 7, workdir)
            _, _, digests, facts = plain.round(0)
            seen = []
            for _ in range(2):
                tracer = Tracer()
                run = Run(name, 7, workdir)
                tracer.install()
                try:
                    _, _, digests_t, facts_t = run.round(0, tracer)
                finally:
                    tracer.uninstall()
                seen.append((_counts(tracer, facts_t), digests_t))
            same_counts = seen[0][0] == seen[1][0]
            same_outputs = seen[0][1] == seen[1][1] == digests and None not in digests
            print(f"{name}: work counts repeat {same_counts}; "
                  f"traced outputs equal untraced {same_outputs}; "
                  f"counts {json.dumps(seen[0][0], sort_keys=True, default=str)}")
            same_facts = all(seen[0][0][k] == v for k, v in facts.items())
            ok = ok and same_counts and same_outputs and same_facts
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", "no-such-workload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    print(f"unknown workload exits {probe.returncode}")
    ok = ok and probe.returncode == 2
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["golden-certify", "construct-nd", "lattice-2d"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    if not (SRC / "badapprox" / "__init__.py").is_file():
        print(f"error: no badapprox package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import badapprox

    if Path(badapprox.__file__).resolve().parent != SRC / "badapprox":
        print(f"error: badapprox imported from {badapprox.__file__}", file=sys.stderr)
        return 2
    return self_test() if args.self_test else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
