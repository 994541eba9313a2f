"""Command-line interface.

Subcommands:

    play       derive constants, build the schedule, play the full game
               against a chosen adversary, write trace + certificate
    certify    independent brute-force badness reports for a given shift
    psi        approximation-record table of a rational matrix
    resonance  lacunary resonance family built from the records
    sweep      parameter grid -> one CSV row per cell, deterministic

Exit codes: 0 success, 1 runtime/certification failure or a broken internal
invariant (InvariantError, named on stderr), 2 configuration error.  All
reports embed the originating config (the parsed options minus --out and
--check) and its content hash, and every byte of output is reproducible from
the flags and the seed.
"""
from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

from .adversaries import GreedyBlack, RandomBlack, Scripted
from .certify import (
    DecayTable,
    TableRangeExceeded,
    jarnik_constant,
    parse_power_spec,
    resonance_margin,
    theorem1_constant,
)
from .engine import IllegalMove, concentric
from .escape import SelectionExhausted
from .exact import InvariantError, json_list, json_object, json_rat, json_text, rat, rat_str
from .resonance import (
    EmptySequence,
    ResonanceSequence,
    ThetaMatrix,
    best_approximations,
    golden_theta,
    lacunary_normalize,
    psi_steps,
    psi_theta,
    record_steps,
)
from .schedule import ScheduleInfeasible, check_ranges
from .strategy import CertificateFailed, run_constructed_game

_RUNTIME_ERRORS = (
    ScheduleInfeasible,
    CertificateFailed,
    SelectionExhausted,
    IllegalMove,
    TableRangeExceeded,
    EmptySequence,
)


def _git_blob_sha1(content: bytes) -> str:
    return hashlib.sha1(b"blob %d\0" % len(content) + content).hexdigest()


#: Parsed options that are not part of a run's config: where it writes, the
#: handler, and a value psi only prints.
_NOT_CONFIG = ("out", "func", "check")


def _write_report(args, name: str, **body) -> Path:
    """Write body to `name` in the output directory, beside the run's config
    and its content hash.  The config is the parsed options minus
    _NOT_CONFIG, with --script only for the scripted adversary."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    if config.get("adversary") != "scripted":
        config.pop("script", None)
    config_hash = _git_blob_sha1(json.dumps(config, sort_keys=True).encode())
    path = _out_dir(args) / name
    path.write_text(json_text({"config": config, "config_hash": config_hash, **body}) + "\n")
    return path


def _out_dir(args) -> Path:
    root = args.out or os.environ.get("BADAPPROX_OUT") or "."
    p = Path(root)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _read_json(path: str, what: str) -> dict:
    """The JSON object of an input file; any other top level is bad input."""
    with open(path) as fh:
        return json_object(json.load(fh), what)


def _load_theta(spec: str) -> ThetaMatrix:
    if spec == "golden":
        return golden_theta()
    return ThetaMatrix.from_jsonable(_read_json(spec, "theta"))


def _parse_eta(text: str) -> tuple[Fraction, ...]:
    return tuple(rat(part) for part in text.split(","))


def _load_sequence(path: str) -> ResonanceSequence:
    """A resonance family from a bare sequence JSON or a `resonance` report."""
    obj = _read_json(path, "family")
    return ResonanceSequence.from_jsonable(obj.get("sequence", obj))


def _build_sequence(args) -> ResonanceSequence:
    if getattr(args, "resonance", None):
        return _load_sequence(args.resonance)
    records = best_approximations(_load_theta(args.theta), args.tmax)
    return lacunary_normalize(records, rat(args.lacunarity))


#: Black policies by name: each builds one from the family and a seed.
_ADVERSARIES = {
    "concentric": lambda seq, seed: concentric,
    "random": lambda seq, seed: RandomBlack(seed=seed),
    "greedy": lambda seq, seed: GreedyBlack(seq),
}


def _adversary_factory(name: str):
    if name not in _ADVERSARIES:
        raise ValueError(f"unknown adversary {name!r}")
    return _ADVERSARIES[name]


def _load_script(script: str | None) -> Scripted:
    if not script:
        raise ValueError("--script is required with --adversary scripted")
    data = _read_json(script, "script")
    centers = [
        [json_rat(x, "script center coordinate") for x in json_list(ctr, "script center")]
        for ctr in json_list(data["centers"], "centers")
    ]
    return Scripted(centers, data.get("notes"))


# -- play --------------------------------------------------------------------


def cmd_play(args) -> int:
    if args.script and args.adversary != "scripted":
        raise ValueError("--script needs --adversary scripted")
    seq = _build_sequence(args)
    center = _parse_eta(args.center) if args.center else None
    black = (_load_script(args.script) if args.adversary == "scripted"
             else _adversary_factory(args.adversary)(seq, args.seed))
    trace, cert, white, sched = run_constructed_game(
        seq,
        rat(args.alpha),
        rat(args.beta),
        rat(args.lacunarity),
        rat(args.rho0),
        args.blocks,
        black,
        center=center,
        seed=args.seed,
    )
    trace_path = _out_dir(args) / "trace.json"
    trace_path.write_text(trace.dumps() + "\n")
    path = _write_report(args, "certificate.json", certificate=cert.to_jsonable(),
                         derived=sched.params.to_jsonable(), cuts=list(sched.cuts))
    print(f"played {len(trace.moves)} half-moves over {args.blocks} blocks")
    print(f"final center: ({', '.join(rat_str(c) for c in trace.final_ball.center)})")
    print(f"final radius: {rat_str(trace.final_ball.radius)}")
    if cert.entries:
        worst = min(e.residual_lb for e in cert.entries)
        print(f"families certified: 1..{cert.covered_through}; "
              f"worst residual lower bound {rat_str(worst)}")
    else:
        print("families certified: none (empty schedule)")
    print(f"wrote {trace_path} and {path}")
    return 0


# -- certify -----------------------------------------------------------------


def _parse_psi_arg(text: str):
    if text.startswith("power:"):
        return parse_power_spec(text)
    if text.startswith("table:"):
        obj = _read_json(text.split(":", 1)[1], "psi table")
        tbl = json_object(obj.get("table", obj), "psi table")
        values = tuple(json_rat(v, "psi table value") for v in json_list(tbl["values"], "values"))
        return DecayTable(tuple(json_list(tbl["sizes"], "sizes")), values)
    raise ValueError(f"psi spec must start with 'power:' or 'table:', got {text!r}")


def cmd_certify(args) -> int:
    eta = _parse_eta(args.eta)
    if args.functional in ("product", "decay") and args.N is None:
        raise ValueError(f"--N is required for the {args.functional} functional")
    if args.functional == "product":
        theta = _load_theta(args.theta)
        rep = theorem1_constant(theta, eta, args.N)
    elif args.functional == "decay":
        if not args.psi:
            raise ValueError("--psi is required for the decay functional")
        theta = _load_theta(args.theta)
        rep = jarnik_constant(theta, eta, _parse_psi_arg(args.psi), args.N)
    else:  # margin
        if not args.resonance:
            raise ValueError("--resonance is required for the margin functional")
        if args.rmax is not None and args.rmax < 1:
            raise ValueError(f"--rmax must be at least 1, got {args.rmax}")
        rep = resonance_margin(_load_sequence(args.resonance), eta, args.rmax)
    path = _write_report(args, "report.json", report=rep.to_jsonable())
    print(f"{rep.functional} value: {rat_str(rep.value)}")
    print(f"argmin: {list(rep.argmin)} (limit {rep.limit})")
    for w in rep.warnings:
        print(f"warning: {w}")
    print(f"wrote {path}")
    return 0


# -- psi ---------------------------------------------------------------------


def cmd_psi(args) -> int:
    theta = _load_theta(args.theta)
    records = best_approximations(theta, args.tmax)
    # an m x 1 theta's steps are its records: the lattice is scanned once
    steps = record_steps(records) if theta.n == 1 else psi_steps(theta, args.tmax)
    checked = None if args.check is None else psi_theta(theta, args.check)  # before any write
    usable = [(t, v) for t, v in steps if v > 0]
    path = _write_report(
        args, "psi.json",
        records=[{"y": list(r.vector), "t_sq": r.norm_sq, "quality": rat_str(r.quality)}
                 for r in records],
        table={"sizes": [t for t, _ in usable], "values": [rat_str(q) for _, q in usable]},
    )
    print(f"{len(records)} records up to size {args.tmax}")
    for r in records:
        print(f"  y={list(r.vector)}  |y|^2={r.norm_sq}  quality={rat_str(r.quality)}")
    if checked is not None:
        print(f"psi({args.check}) = {rat_str(checked)}")
    print(f"wrote {path}")
    return 0


# -- resonance ---------------------------------------------------------------


def cmd_resonance(args) -> int:
    seq = _build_sequence(args)
    path = _write_report(args, "resonance.json", sequence=seq.to_jsonable())
    print(f"lacunary family of {len(seq)} vectors (M = {args.lacunarity}):")
    for i, e in enumerate(seq.entries, start=1):
        tag = "" if e.quality is not None else "  [padding]"
        print(f"  r={i}  u={list(e.vector)}  t^2={e.norm_sq}{tag}")
    print(f"wrote {path}")
    return 0


# -- sweep -------------------------------------------------------------------


def cmd_sweep(args) -> int:
    seq = _build_sequence(args)
    alphas = [a.strip() for a in args.alphas.split(",")]
    betas = [b.strip() for b in args.betas.split(",")]
    adversaries = [a.strip() for a in args.adversaries.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    # the whole grid is checked before the first game is played
    values = {text: rat(text) for text in alphas + betas}
    lacunarity, rho0 = rat(args.lacunarity), rat(args.rho0)
    for a in alphas:
        for b in betas:
            check_ranges(values[a], values[b], lacunarity)
    if rho0 <= 0:
        raise ValueError("rho0 must be positive")
    factories = {adv: _adversary_factory(adv) for adv in adversaries}
    out = _out_dir(args)
    rows = []
    failures = 0
    for a in alphas:
        for b in betas:
            for adv in adversaries:
                for seed in seeds:
                    row = {
                        "alpha": a,
                        "beta": b,
                        "adversary": adv,
                        "seed": seed,
                        "blocks": args.blocks,
                        "status": "",
                        "final_radius": "",
                        "min_residual_lb": "",
                        "families": "",
                    }
                    try:
                        black = factories[adv](seq, seed)
                        trace, cert, _, _ = run_constructed_game(
                            seq, values[a], values[b], lacunarity, rho0,
                            args.blocks, black, seed=seed,
                        )
                        row["status"] = "certified"
                        row["final_radius"] = rat_str(trace.final_ball.radius)
                        if cert.entries:
                            row["min_residual_lb"] = rat_str(
                                min(e.residual_lb for e in cert.entries)
                            )
                        row["families"] = cert.covered_through
                    except _RUNTIME_ERRORS as exc:
                        row["status"] = f"failed: {type(exc).__name__}"
                        failures += 1
                    rows.append(row)
    path = out / "sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"{len(rows)} runs, {failures} failures -> {path}")
    return 1 if failures else 0


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared by
    every later one.  Parsing writes only to the namespace it returns, and
    every default is an immutable string, int or None, so no call leaves
    anything for the next."""
    parser = argparse.ArgumentParser(
        prog="badapprox",
        description="exact nested-ball games constructing badly approximable shifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        # no abbreviations: a prefix of one option (--seed) could land on another (--seeds)
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    def common(p):
        p.add_argument("--out", default=None, help="output directory (or $BADAPPROX_OUT)")

    def theta_source(p, with_resonance=True):
        p.add_argument("--theta", default="golden",
                       help="'golden' or a path to a theta JSON file")
        p.add_argument("--tmax", type=int, default=1000,
                       help="record-enumeration size bound")
        if with_resonance:
            p.add_argument("--resonance", default=None,
                           help="pre-built resonance-family JSON (overrides --theta)")

    p = command("play", "run the constructing game end to end")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    theta_source(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--lacunarity", "-M", default="3")
    p.add_argument("--rho0", default="1/2")
    p.add_argument("--center", default=None, help="initial center, e.g. '0,1/2'")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--adversary", default="greedy", choices=[*_ADVERSARIES, "scripted"])
    p.add_argument("--script", default=None, help="centers JSON for the scripted adversary")
    p.set_defaults(func=cmd_play)

    p = command("certify", "independent badness report for a shift")
    common(p)
    p.add_argument("--theta", default="golden")
    p.add_argument("--eta", required=True, help="shift, e.g. '3/5,1/7'")
    p.add_argument("--N", type=int, default=None,
                   help="enumeration size bound (product and decay functionals)")
    p.add_argument("--functional", default="product",
                   choices=["product", "decay", "margin"])
    p.add_argument("--psi", default=None,
                   help="'power:c=1,sigma=1' or 'table:psi.json' (decay functional)")
    p.add_argument("--resonance", default=None, help="family JSON (margin functional)")
    p.add_argument("--rmax", type=int, default=None, help="family cutoff (margin functional)")
    p.set_defaults(func=cmd_certify)

    p = command("psi", "approximation-record table of theta")
    common(p)
    theta_source(p, with_resonance=False)
    p.add_argument("--check", type=int, default=None,
                   help="also print the exact minimum at this size")
    p.set_defaults(func=cmd_psi)

    p = command("resonance", "lacunary resonance family from records")
    common(p)
    theta_source(p, with_resonance=False)
    p.add_argument("--lacunarity", "-M", default="3")
    p.set_defaults(func=cmd_resonance)

    p = command("sweep", "grid of runs -> CSV")
    common(p)
    theta_source(p)
    p.add_argument("--alphas", required=True, help="comma list, e.g. '1/4,1/3'")
    p.add_argument("--betas", required=True)
    p.add_argument("--adversaries", default="greedy")
    p.add_argument("--seeds", default="0")
    p.add_argument("--lacunarity", "-M", default="3")
    p.add_argument("--rho0", default="1/2")
    p.add_argument("--blocks", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


#: A separate value that starts like a negative number: "-1/3", "-2,1/5", "-.5"
_NEGATIVE = re.compile(r"-[0-9.]")


def _attach_negative_values(argv: Sequence[str]) -> list[str]:
    """argv with "--eta -1/3,1/5" spelled "--eta=-1/3,1/5", and so for
    --center.  argparse reads a separate value that starts with "-" as an
    option unless it is a plain number, so a vector whose first entry is a
    negative rational would have no value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--eta", "--center") and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"error: InvariantError: {exc}", file=sys.stderr)
        return 1
    except _RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError, ZeroDivisionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
