"""End-to-end tests of the command-line interface.

Every subcommand is invoked in-process via main(argv) with outputs routed
to tmp_path, and report bytes are compared across repeat runs: the CLI
promises that flags + seed determine every output byte.
"""
import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import badapprox
from badapprox import cli
from badapprox.cli import main
from badapprox.engine import GameTrace, replay
from badapprox.exact import InvariantError, rat
from badapprox import resonance
from badapprox.resonance import ThetaMatrix, psi_steps, psi_theta


def run(tmp, *argv):
    return main([*argv, "--out", str(tmp)])


def run_fresh(script, tmp_path):
    """script run in a fresh interpreter that imports this checkout's package,
    with tmp_path as its argument."""
    src = str(Path(badapprox.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)


GOLDEN_PLAY = ("play", "--alpha", "1/4", "--beta", "1/2", "--blocks", "2")


# ---------------------------------------------------------------------------
# play
# ---------------------------------------------------------------------------


def test_play_writes_trace_and_certificate(tmp_path):
    assert run(tmp_path, *GOLDEN_PLAY) == 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert len(trace["moves"]) == 12
    final = trace["moves"][-1]
    assert final["center"] == ["160567/524288"]
    assert final["radius"] == "1/524288"
    assert cert["certificate"]["covered_through"] == 5
    assert len(cert["certificate"]["handled"]) == 5
    assert cert["certificate"]["eta_center"] == ["160567/524288"]
    assert sorted(cert.keys()) == [
        "certificate", "config", "config_hash", "cuts", "derived",
    ]
    assert cert["cuts"] == [0, 1, 5]


def test_play_outputs_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, *GOLDEN_PLAY) == 0
    assert run(b, *GOLDEN_PLAY) == 0
    for name in ("trace.json", "certificate.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# sha256 of the flagship outputs as written before the engine's integer
# containment test, direct trace writer and step fold: all must keep every byte
FLAGSHIP_SHA256 = {
    "trace.json": "35a27a35a79d54762228b2e0082be0231c879d6ac087902db4da6fd059f49395",
    "certificate.json": "dd7a8890c93071f8841b7f133f22ac1075397e46c3db8ad4375663cc71214414",
}


def sha256_of(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def test_play_flagship_bytes_are_pinned(tmp_path):
    assert run(tmp_path, *GOLDEN_PLAY) == 0
    assert sha256_of(tmp_path, FLAGSHIP_SHA256) == FLAGSHIP_SHA256


def test_play_honors_output_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("BADAPPROX_OUT", str(tmp_path / "envdir"))
    assert main(list(GOLDEN_PLAY)) == 0
    assert (tmp_path / "envdir" / "trace.json").exists()


def test_play_scripted_adversary_replays_byte_for_byte(tmp_path):
    d1, d2 = tmp_path / "rec", tmp_path / "replay"
    assert run(d1, *GOLDEN_PLAY, "--adversary", "random", "--seed", "3") == 0
    moves = json.loads((d1 / "trace.json").read_text())["moves"]
    blacks = [m for m in moves if m["player"] == "B"]
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "centers": [m["center"] for m in blacks],
        "notes": [m["note"] for m in blacks],
    }))
    assert run(d2, *GOLDEN_PLAY, "--adversary", "scripted", "--script", str(script)) == 0
    assert (d1 / "trace.json").read_bytes() == (d2 / "trace.json").read_bytes()


def test_play_scripted_config_names_its_script(tmp_path):
    # two scripts play two games, so their configs differ; a script beside
    # another adversary could play no part, so it is refused before any write
    assert run(tmp_path / "rec", *GOLDEN_PLAY) == 0
    moves = json.loads((tmp_path / "rec" / "trace.json").read_text())["moves"]
    hashes = []
    for name, ctr in (("hold", moves[0]["center"]), ("move", moves[1]["center"])):
        script = tmp_path / f"{name}.json"
        script.write_text(json.dumps({"centers": [ctr]}))
        out = tmp_path / name
        assert run(out, *GOLDEN_PLAY, "--adversary", "scripted", "--script", str(script)) == 0
        blob = json.loads((out / "certificate.json").read_text())
        assert blob["config"]["script"] == str(script)
        hashes.append(blob["config_hash"])
    assert hashes[0] != hashes[1]
    assert run(tmp_path / "beside", *GOLDEN_PLAY, "--script", str(script)) == 2
    assert not (tmp_path / "beside").exists()


def test_play_scripted_non_string_note_exits_2(tmp_path):
    assert run(tmp_path / "rec", *GOLDEN_PLAY) == 0
    moves = json.loads((tmp_path / "rec" / "trace.json").read_text())["moves"]
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"centers": [moves[1]["center"]], "notes": [5]}))
    rc = run(tmp_path / "replay", *GOLDEN_PLAY, "--adversary", "scripted", "--script", str(script))
    assert rc == 2


def test_play_infeasible_block_count_exits_1(tmp_path, capsys):
    rc = run(tmp_path, "play", "--alpha", "1/4", "--beta", "1/2", "--blocks", "3")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_play_config_errors_exit_2(tmp_path):
    # alpha outside (0, 1/2) is a configuration problem, not a runtime one
    assert run(tmp_path, "play", "--alpha", "2/3", "--beta", "1/2", "--blocks", "2") == 2
    assert run(tmp_path, *GOLDEN_PLAY, "--adversary", "scripted") == 2  # no --script


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_product_golden_pin(tmp_path, capsys):
    rc = run(tmp_path, "certify", "--theta", "golden", "--eta", "160567/524288",
             "--N", "100", "--functional", "product")
    assert rc == 0
    rep = json.loads((tmp_path / "report.json").read_text())["report"]
    assert rep["value"] == "6450562909/176458170368"
    assert rep["argmin"] == [28]
    assert "6450562909/176458170368" in capsys.readouterr().out


def test_certify_functional_aliases(tmp_path):
    # the functionals are named product and decay only: the old aliases
    # theorem1 and jarnik are unknown choices
    for alias in ("theorem1", "jarnik"):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "certify", "--theta", "golden", "--eta", "160567/524288",
                "--N", "50", "--functional", alias)
        assert exc.value.code == 2


def test_certify_theta_file_two_forms(tmp_path):
    th = ThetaMatrix(((Fraction(1, 3), Fraction(1, 5)),))
    tf = tmp_path / "theta.json"
    tf.write_text(json.dumps(th.to_jsonable()))
    base = ("certify", "--theta", str(tf), "--eta", "3/5,1/7", "--N", "40")
    assert run(tmp_path, *base, "--functional", "product") == 0
    prod = json.loads((tmp_path / "report.json").read_text())["report"]
    assert prod["value"] == "4/225"
    assert prod["argmin"] == [-4]
    assert prod["warnings"]  # limit 40 is far past sqrt(denominator)
    assert run(tmp_path, *base, "--functional", "decay",
               "--psi", "power:c=1,sigma=2/1") == 0
    decay = json.loads((tmp_path / "report.json").read_text())["report"]
    assert decay["value"] == prod["value"]
    assert decay["argmin"] == prod["argmin"]


def test_certify_margin_against_family_file(tmp_path):
    assert run(tmp_path, "resonance", "--theta", "golden") == 0
    fam = tmp_path / "family.json"
    blob = json.loads((tmp_path / "resonance.json").read_text())["sequence"]
    fam.write_text(json.dumps(blob))
    rc = run(tmp_path, "certify", "--functional", "margin", "--eta", "160567/524288",
             "--N", "1", "--resonance", str(fam))
    assert rc == 0
    rep = json.loads((tmp_path / "report.json").read_text())["report"]
    assert rep["value"] == "9781/524288"
    assert rep["argmin"] == [3]


def test_certify_margin_runs_without_N(tmp_path):
    assert run(tmp_path, "resonance", "--theta", "golden") == 0
    family = str(tmp_path / "resonance.json")
    assert run(tmp_path, "certify", "--functional", "margin", "--eta", "160567/524288",
               "--resonance", family, "--rmax", "5") == 0
    blob = json.loads((tmp_path / "report.json").read_text())
    assert (blob["report"]["value"], blob["report"]["argmin"]) == ("9781/524288", [3])
    assert blob["config"]["N"] is None


@pytest.mark.parametrize("rmax", ["0", "-3"])
def test_certify_margin_rmax_below_1_exits_2(tmp_path, capsys, rmax):
    assert run(tmp_path / "fam", "resonance", "--theta", "golden") == 0
    out = tmp_path / "out"
    rc = run(out, "certify", "--functional", "margin", "--eta", "160567/524288",
             "--resonance", str(tmp_path / "fam" / "resonance.json"), "--rmax", rmax)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--rmax" in err
    assert not out.exists()


@pytest.mark.parametrize("functional", ["product", "decay"])
def test_certify_scans_without_N_exit_2(tmp_path, capsys, functional):
    rc = run(tmp_path, "certify", "--theta", "golden", "--eta", "1/2",
             "--functional", functional, "--psi", "power:c=1,sigma=1")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "--N is required" in err
    assert not (tmp_path / "report.json").exists()


def test_certify_decay_requires_psi(tmp_path):
    rc = run(tmp_path, "certify", "--theta", "golden", "--eta", "1/2",
             "--N", "5", "--functional", "decay")
    assert rc == 2


def test_certify_bad_psi_spec_exits_2(tmp_path):
    rc = run(tmp_path, "certify", "--theta", "golden", "--eta", "1/2",
             "--N", "5", "--functional", "decay", "--psi", "gauss:c=1")
    assert rc == 2


def test_certify_missing_theta_file_exits_2(tmp_path):
    rc = run(tmp_path, "certify", "--theta", str(tmp_path / "absent.json"),
             "--eta", "1/2", "--N", "5")
    assert rc == 2


def test_certify_table_with_non_integer_size_exits_2(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"sizes": [1.5, 3], "values": ["1/2", "1/4"]}))
    rc = run(tmp_path, "certify", "--theta", "golden", "--eta", "1/2", "--N", "3",
             "--functional", "decay", "--psi", f"table:{table}")
    assert rc == 2
    assert "table sizes must be integers" in capsys.readouterr().err


def test_certify_unknown_functional_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "certify", "--theta", "golden", "--eta", "1/2",
            "--N", "5", "--functional", "cassels")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("certify", "--eta", "1/2", "--N", "5"),
    ("psi", "--tmax", "10"),
    ("resonance", "--tmax", "10"),
    ("sweep", "--alphas", "1/4", "--betas", "1/2", "--blocks", "1"),
])
def test_only_play_takes_a_seed(tmp_path, argv):
    # no other subcommand reads one
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv, "--seed", "3")
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    (*GOLDEN_PLAY, "--adv", "random"),  # would run as --adversary random
    ("certify", "--eta", "1/2", "--N", "5", "--func", "margin"),
    ("psi", "--tm", "10"),
    ("resonance", "--tm", "10"),
    ("sweep", "--alphas", "1/4", "--betas", "1/2", "--blocks", "1", "--adv", "random"),
])
def test_no_subcommand_takes_an_abbreviated_option(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# psi / resonance
# ---------------------------------------------------------------------------


def test_psi_golden_table(tmp_path, capsys):
    rc = run(tmp_path, "psi", "--theta", "golden", "--tmax", "10", "--check", "3")
    assert rc == 0
    blob = json.loads((tmp_path / "psi.json").read_text())
    assert blob["table"]["sizes"] == [1, 2, 3, 5, 8]
    assert blob["table"]["values"][0] == "514229/1346269"
    assert len(blob["records"]) == 5
    assert "psi(3) = 196418/1346269" in capsys.readouterr().out


def test_psi_bad_check_exits_2_before_writing(tmp_path, capsys):
    assert run(tmp_path, "psi", "--theta", "golden", "--tmax", "10", "--check", "0") == 2
    assert not (tmp_path / "psi.json").exists()
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err


@pytest.mark.parametrize("entry,cf", [
    ("1/3", [0, 2]),  # expands to 1/2
    ("1/3", [0, 3.0]),  # non-integer term
    ("2/5", [1, -2, 3]),  # expands to 2/5, but a term after the first is negative
])
def test_psi_ignores_a_stale_cf_key(tmp_path, capsys, entry, cf):
    # the expansion is computed from the entry; a "cf" key is not read
    with_cf, without = tmp_path / "with", tmp_path / "without"
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"m": 1, "n": 1, "entries": [[entry]], "cf": cf}))
    assert run(with_cf, "psi", "--theta", str(theta), "--tmax", "10") == 0
    theta.write_text(json.dumps({"m": 1, "n": 1, "entries": [[entry]]}))
    assert run(without, "psi", "--theta", str(theta), "--tmax", "10") == 0
    assert (with_cf / "psi.json").read_bytes() == (without / "psi.json").read_bytes()
    assert json.loads((without / "psi.json").read_text())["config"] == {
        "command": "psi", "theta": str(theta), "tmax": 10,
    }


ONE_BY_TWO = {"m": 1, "n": 2, "entries": [["1234567891/2147483647", "987654321/2147483647"]]}


def test_psi_table_of_a_1x2_theta_feeds_certify(tmp_path):
    # the table holds psi's steps (sup-norm sizes), not the Euclidean record
    # sizes 1, 1, 4, 5, so certify accepts it
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(ONE_BY_TWO))
    assert run(tmp_path, "psi", "--theta", str(theta), "--tmax", "30") == 0
    table = json.loads((tmp_path / "psi.json").read_text())["table"]
    assert table["sizes"] == [1, 4, 5]
    th = ThetaMatrix.from_jsonable(ONE_BY_TWO)
    assert [Fraction(v) for v in table["values"]] == [psi_theta(th, t) for t in table["sizes"]]
    assert run(tmp_path, "certify", "--theta", str(theta), "--eta", "1/3,1/5", "--N", "100",
               "--functional", "decay", "--psi", f"table:{tmp_path / 'psi.json'}") == 0


def test_psi_of_a_2x1_theta_scans_its_lattice_once(tmp_path, monkeypatch):
    # an m x 1 theta's psi steps are its records: the table is read off the
    # records' scan, and equals the steps psi_steps scans for on its own
    two_by_one = {"m": 2, "n": 1, "entries": [["1234567891/2147483647"], ["987654321/2147483647"]]}
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(two_by_one))
    scans, shell_records = [], resonance._shell_records

    def counted(*args, **kwargs):
        scans.append(args[1:])
        return shell_records(*args, **kwargs)

    monkeypatch.setattr(resonance, "_shell_records", counted)
    assert run(tmp_path, "psi", "--theta", str(theta), "--tmax", "100000") == 0
    assert scans == [(100000,)]
    blob = json.loads((tmp_path / "psi.json").read_text())
    steps = [(t, q) for t, q in psi_steps(ThetaMatrix.from_jsonable(two_by_one), 100000) if q > 0]
    assert len(steps) > 5
    assert blob["table"] == {"sizes": [t for t, _ in steps],
                             "values": [f"{q.numerator}/{q.denominator}" for _, q in steps]}


def spellings_agree(tmp_path, argv, option, value, files):
    """argv run with "option value" and with "option=value" writes the same
    files, byte for byte."""
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert run(spaced, *argv, option, value) == 0
    assert run(joined, *argv, f"{option}={value}") == 0
    for name in files:
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()
    return spaced


def test_certify_takes_a_negative_eta_after_a_space(tmp_path):
    out = spellings_agree(tmp_path, ("certify", "--N", "1000"), "--eta", "-1/3", ["report.json"])
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["eta"] == "-1/3"
    assert report["report"]["value"] != "0/1"


def test_certify_margin_takes_a_negative_eta_after_a_space(tmp_path):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(ONE_BY_TWO))
    assert run(tmp_path, "resonance", "--theta", str(theta), "--tmax", "50") == 0
    argv = ("certify", "--functional", "margin", "--resonance", str(tmp_path / "resonance.json"))
    out = spellings_agree(tmp_path, argv, "--eta", "-1/3,1/5", ["report.json"])
    assert json.loads((out / "report.json").read_text())["config"]["eta"] == "-1/3,1/5"


@pytest.mark.parametrize("eta", ["1/3", "1/3,1/5,1/7"])
def test_certify_margin_eta_of_another_dimension_exits_2(tmp_path, capsys, eta):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps(ONE_BY_TWO))
    family = tmp_path / "family"
    assert run(family, "resonance", "--theta", str(theta), "--tmax", "50") == 0
    rc = run(tmp_path / "margin", "certify", "--functional", "margin", "--eta", eta,
             "--resonance", str(family / "resonance.json"))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: eta has dimension {eta.count(',') + 1}, expected 2")
    assert not (tmp_path / "margin").exists()


def test_play_takes_a_negative_center_after_a_space(tmp_path):
    out = spellings_agree(tmp_path, GOLDEN_PLAY, "--center", "-1/3",
                          ["trace.json", "certificate.json"])
    trace = json.loads((out / "trace.json").read_text())
    assert trace["initial"]["center"] == ["-1/3"]


def test_resonance_on_a_1x1_theta_file(tmp_path):
    # a 1x1 file carries no expansion; its records are the convergents
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"m": 1, "n": 1, "entries": [["832040/1346269"]]}))
    a, b = tmp_path / "file", tmp_path / "golden"
    assert run(a, "resonance", "--theta", str(theta)) == 0
    assert run(b, "resonance", "--theta", "golden") == 0
    blobs = [json.loads((d / "resonance.json").read_text()) for d in (a, b)]
    assert blobs[0]["sequence"] == blobs[1]["sequence"]
    assert blobs[0]["config"] == {
        "command": "resonance", "theta": str(theta), "lacunarity": "3", "tmax": 1000,
    }


@pytest.mark.parametrize("entry", [
    {"u": [2.0], "t_sq": 4, "quality": None},  # float vector entry
    {"u": [2], "t_sq": 4.5, "quality": None},  # float size, once truncated to 4
])
def test_play_family_with_non_integer_numbers_exits_2(tmp_path, capsys, entry):
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"M": "3/1", "entries": [entry]}))
    rc = run(tmp_path, "play", "--alpha", "1/4", "--beta", "1/2", "--blocks", "1",
             "--rho0", "1/8", "--resonance", str(fam))
    assert rc == 2
    assert "must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("argv,obj", [
    (("psi", "--tmax", "10", "--theta", "{}"), {"m": 1, "n": 1, "entries": [[0.5]]}),
    (("psi", "--tmax", "10", "--theta", "{}"), {"m": 1, "n": 1, "entries": ["1/2"]}),  # bare row
    (("psi", "--tmax", "10", "--theta", "{}"), {"m": True, "n": 1.0, "entries": [["1/2"]]}),
    (("play", "--alpha", "1/4", "--beta", "1/2", "--blocks", "1", "--rho0", "1/8",
      "--resonance", "{}"), {"M": "3/1", "entries": [{"u": 2, "t_sq": 4, "quality": None}]}),
    # each input whose top level, family entry or psi table is not a JSON object
    (("psi", "--tmax", "10", "--theta", "{}"), [1, 2]),  # theta
    (("certify", "--functional", "margin", "--eta", "1/3", "--resonance", "{}"), [1, 2]),  # family
    ((*GOLDEN_PLAY, "--resonance", "{}"), {"M": "3/1", "entries": [1]}),  # family entry
    (("certify", "--eta", "1/2", "--N", "3", "--functional", "decay", "--psi", "table:{}"),
     {"table": [1, 2]}),  # psi table
    ((*GOLDEN_PLAY, "--adversary", "scripted", "--script", "{}"), [1, 2]),  # script
])
def test_wrong_typed_json_exits_2(tmp_path, capsys, argv, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert run(out, *(arg.format(path) for arg in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "must be" in err
    assert not out.exists()


@pytest.mark.parametrize("flag,obj", [
    ("--psi", {"sizes": [1, 3], "values": [0.5, "1/4"]}),  # float table value
    ("--script", {"centers": [[0.5]]}),  # float center coordinate
])
def test_wrong_typed_table_or_script_exits_2(tmp_path, capsys, flag, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    if flag == "--psi":
        argv = ("certify", "--eta", "1/2", "--N", "3", "--functional", "decay",
                "--psi", f"table:{path}")
    else:
        argv = (*GOLDEN_PLAY, "--adversary", "scripted", "--script", str(path))
    assert run(tmp_path, *argv) == 2
    assert 'must be a "p/q" string or an integer' in capsys.readouterr().err


def test_invariant_error_exits_1_with_its_name(tmp_path, capsys, monkeypatch):
    import badapprox.cli

    def broken(*args, **kwargs):
        raise InvariantError("schedule should have prevented this")

    monkeypatch.setattr(badapprox.cli, "run_constructed_game", broken)
    assert run(tmp_path, *GOLDEN_PLAY) == 1
    err = capsys.readouterr().err
    assert "InvariantError: schedule should have prevented this" in err
    assert "config error" not in err


@pytest.mark.parametrize("argv", [
    GOLDEN_PLAY,
    ("sweep", "--alphas", "1/4", "--betas", "1/2", "--blocks", "2"),
])
def test_broken_strategy_invariant_exits_1_with_its_name(tmp_path, capsys, monkeypatch, argv):
    # a handled family losing its clearance mid-game is a bug in the strategy,
    # not a failed cell of a sweep
    import badapprox.strategy

    monkeypatch.setattr(badapprox.strategy, "_family_clear", lambda *args: False)
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert "error: InvariantError: family 1 (handled in block 0) lost its clearance" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_play_writes_a_margin_past_the_default_int_str_limit(tmp_path):
    # alpha*beta = 1/22 in n=3 gives a margin with a 47813-bit (14393-digit)
    # denominator, past the interpreter's default limit of 4300 digits
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"M": "3", "entries": [{"u": [1, 0, 0], "t_sq": 1, "quality": None}]}))
    argv = ("play", "--alpha", "5/11", "--beta", "1/10", "--blocks", "0", "--resonance", str(fam))
    assert run(tmp_path, *argv) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert rat(cert["derived"]["margin"]).denominator.bit_length() == 47813
    text = (tmp_path / "trace.json").read_text()
    assert replay(GameTrace.loads(text)).dumps() + "\n" == text


def test_resonance_golden_family(tmp_path):
    rc = run(tmp_path, "resonance", "--theta", "golden")
    assert rc == 0
    entries = json.loads((tmp_path / "resonance.json").read_text())["sequence"]["entries"]
    assert [e["u"] for e in entries] == [[1], [3], [13], [55], [233], [987]]


def test_play_accepts_prebuilt_family(tmp_path):
    assert run(tmp_path, "resonance", "--theta", "golden") == 0
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(
        json.loads((tmp_path / "resonance.json").read_text())["sequence"]
    ))
    d = tmp_path / "fromfile"
    assert run(d, *GOLDEN_PLAY, "--resonance", str(fam)) == 0
    final = json.loads((d / "trace.json").read_text())["moves"][-1]
    assert final["center"] == ["160567/524288"]


def test_resonance_report_feeds_play_and_margin_directly(tmp_path):
    # the report `resonance` writes is itself a valid --resonance input,
    # equivalent to the bare family it wraps
    assert run(tmp_path, "resonance", "--theta", "golden") == 0
    report = tmp_path / "resonance.json"
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(json.loads(report.read_text())["sequence"]))
    a, b = tmp_path / "report", tmp_path / "bare"
    assert run(a, *GOLDEN_PLAY, "--resonance", str(report)) == 0
    assert run(b, *GOLDEN_PLAY, "--resonance", str(fam)) == 0
    assert (a / "trace.json").read_bytes() == (b / "trace.json").read_bytes()
    assert run(a, "certify", "--functional", "margin", "--eta", "160567/524288",
               "--N", "1", "--resonance", str(report)) == 0
    rep = json.loads((a / "report.json").read_text())["report"]
    assert (rep["value"], rep["argmin"]) == ("9781/524288", [3])


def test_golden_thread_chain_from_files(tmp_path):
    # the flagship chain, each stage reading the previous stage's files:
    # resonance -> play -> brute-force product certify -> resonance margin
    fam_dir, play_dir = tmp_path / "family", tmp_path / "play"
    t1_dir, margin_dir = tmp_path / "theorem1", tmp_path / "margin"
    assert run(fam_dir, "resonance", "--theta", "golden") == 0
    family = str(fam_dir / "resonance.json")
    assert run(play_dir, *GOLDEN_PLAY, "--resonance", family) == 0
    cert = json.loads((play_dir / "certificate.json").read_text())["certificate"]
    eta = ",".join(cert["eta_center"])
    assert eta == "160567/524288"
    assert run(t1_dir, "certify", "--eta", eta, "--N", "1000") == 0
    t1 = json.loads((t1_dir / "report.json").read_text())["report"]
    assert (t1["value"], t1["argmin"]) == ("6450562909/176458170368", [28])
    assert run(margin_dir, "certify", "--functional", "margin", "--eta", eta,
               "--N", "1", "--resonance", family,
               "--rmax", str(cert["covered_through"])) == 0
    margin = json.loads((margin_dir / "report.json").read_text())["report"]
    assert (margin["value"], margin["argmin"]) == ("9781/524288", [3])
    assert Fraction(margin["value"]) > Fraction(cert["epsilon"])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_8 = ("sweep", "--alphas", "1/4,1/3", "--betas", "1/2",
           "--adversaries", "greedy,random", "--seeds", "0,1", "--blocks", "2")


def test_sweep_eight_rows_all_certified(tmp_path):
    assert run(tmp_path, *SWEEP_8) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 9  # header + 8 rows
    assert lines[0].startswith("alpha,beta,adversary,seed")
    assert all(",certified," in line for line in lines[1:])


def test_sweep_csv_is_pinned(tmp_path):
    # sha256 of SWEEP_8's sweep.csv, taken while White's gather, clearance and
    # certificate still decided in Fraction arithmetic
    assert run(tmp_path, *SWEEP_8) == 0
    digest = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
    assert digest == "063732597df0bbe9e163e4b9699a72d2d6297fd9c8db3e623ca31b3b681180bf"


def test_sweep_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, *SWEEP_8) == 0
    assert run(b, *SWEEP_8) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_sweep_refuses_the_scripted_adversary(tmp_path, capsys):
    # sweep has no --script, so "scripted" is not one of its adversaries
    rc = run(tmp_path, "sweep", "--alphas", "1/4", "--betas", "1/2", "--blocks", "1",
             "--adversaries", "scripted")
    assert rc == 2
    assert "unknown adversary 'scripted'" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("flag,grid,message", [
    ("--adversaries", "greedy,bogus", "unknown adversary 'bogus'"),
    ("--betas", "1/2,half", "half"),
])
def test_sweep_checks_its_whole_grid_before_the_first_game(tmp_path, capsys, monkeypatch,
                                                           flag, grid, message):
    played = []
    monkeypatch.setattr(cli, "run_constructed_game",
                        lambda *args, **kwargs: played.append(args))
    argv = {"--alphas": "1/4", "--betas": "1/2", "--adversaries": "greedy", flag: grid}
    rc = run(tmp_path, "sweep", *itertools.chain(*argv.items()), "--blocks", "1")
    assert rc == 2
    assert message in capsys.readouterr().err
    assert played == []  # the good cell before the bad one was not played either
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("flag,grid,message", [
    ("--alphas", "1/4,2", "alpha must lie in (0, 1/2), got 2"),
    ("--betas", "1/2,1", "beta must lie in (0, 1), got 1"),
    ("--lacunarity", "1", "lacunarity must exceed 1"),
    ("--rho0", "0", "rho0 must be positive"),
])
def test_sweep_checks_every_range_before_the_first_game(tmp_path, capsys, monkeypatch,
                                                        flag, grid, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a game was played before the grid was checked")

    monkeypatch.setattr(cli, "run_constructed_game", refuse)
    argv = {"--alphas": "1/4", "--betas": "1/2", flag: grid}
    rc = run(tmp_path, "sweep", *itertools.chain(*argv.items()), "--blocks", "1")
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_reports_infeasible_cells_and_exits_1(tmp_path):
    rc = run(tmp_path, "sweep", "--alphas", "1/4", "--betas", "1/3",
             "--seeds", "0", "--blocks", "2")
    assert rc == 1
    body = (tmp_path / "sweep.csv").read_text()
    assert "failed: ScheduleInfeasible" in body


# ---------------------------------------------------------------------------
# the shared parser
# ---------------------------------------------------------------------------


def test_the_shared_parser_carries_nothing_between_calls(tmp_path):
    # main builds one parser per process: a call with other flags, or one that
    # argparse refuses, must leave nothing behind for the flagship runs
    assert run(tmp_path / "other", "play", "--alpha", "1/4", "--beta", "1/2", "--blocks", "1",
               "--seed", "7", "--adversary", "random", "--center", "1/3", "--rho0", "1/4") == 0
    with pytest.raises(SystemExit) as exc:
        run(tmp_path / "refused", *GOLDEN_PLAY, "--adversary", "nobody")
    assert exc.value.code == 2
    flagship = tmp_path / "flagship"
    assert run(flagship, *GOLDEN_PLAY) == 0
    assert sha256_of(flagship, FLAGSHIP_SHA256) == FLAGSHIP_SHA256
    assert run(flagship, "resonance") == 0
    assert run(tmp_path / "margin", "certify", "--functional", "margin", "--eta",
               "160567/524288", "--resonance", str(flagship / "resonance.json"),
               "--rmax", "5") == 0
    assert run(flagship, "certify", "--eta", "160567/524288", "--N", "100000") == 0
    blob = json.loads((flagship / "report.json").read_text())
    assert (blob["report"]["value"], blob["report"]["argmin"]) == (
        "6450562909/176458170368", [28])
    assert blob["config"] == {
        "command": "certify", "functional": "product", "eta": "160567/524288", "N": 100000,
        "theta": "golden", "psi": None, "resonance": None, "rmax": None,
    }


PARSER_BUILDS = """
import argparse, sys
built = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
from badapprox.cli import main
assert built == 0, f"{built} parsers built at import"
assert main(["psi", "--tmax", "10", "--out", sys.argv[1]]) == 0
first = built
assert main(["resonance", "--tmax", "10", "--out", sys.argv[1]]) == 0
assert first > 0 and built == first, (first, built)
"""


def test_the_parser_is_built_on_the_first_call_only(tmp_path):
    # not at import (perfbench times a fresh import), and not again later
    proc = run_fresh(PARSER_BUILDS, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_a_flagship_pair_leaves_no_argparse_garbage(tmp_path):
    # a parser holds its formatters, actions and groups in reference cycles,
    # so one built per call would leave them all to the cyclic GC; so would
    # json's indenting encoder, whose closures refer to each other
    assert run(tmp_path, "psi", "--tmax", "10") == 0  # warm-up: builds the parser
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(tmp_path, *GOLDEN_PLAY) == 0
        assert run(tmp_path, "certify", "--eta", "160567/524288", "--N", "100000") == 0
        gc.collect()
        left = [f"{type(obj).__module__}.{type(obj).__qualname__}" for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


# ---------------------------------------------------------------------------
# dependencies
# ---------------------------------------------------------------------------

NO_NUMPY = """
import sys
sys.modules["numpy"] = None  # every `import numpy` now raises ImportError
from fractions import Fraction
from badapprox.cli import main
from badapprox.schedule import derive_params
out = sys.argv[1]
for n in (2, 3):
    derive_params(Fraction(1, 4), Fraction(1, 2), 3, n)
assert main(["play", "--alpha", "1/4", "--beta", "1/2", "--blocks", "2", "--out", out]) == 0
assert main(["certify", "--eta", "160567/524288", "--N", "1000", "--out", out]) == 0
"""


def test_pipeline_runs_without_numpy(tmp_path):
    # numpy is a test-only dependency: derive_params, play and certify never import it
    proc = run_fresh(NO_NUMPY, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "certificate.json").exists() and (tmp_path / "report.json").exists()


NO_MPMATH = """
import sys
from fractions import Fraction
from badapprox.cli import main
from badapprox.schedule import derive_params
out = sys.argv[1]
for n in range(2, 7):
    derive_params(Fraction(1, 8), Fraction(1, 4), 3, n)  # feasible up to n = 6
assert main(["play", "--alpha", "1/4", "--beta", "1/2", "--blocks", "2", "--out", out]) == 0
assert "mpmath" not in sys.modules, "mpmath was imported"
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_derive_params_imports_no_mpmath(tmp_path):
    # the cap measure is bracketed in integers: mpmath is a test-only dependency
    proc = run_fresh(NO_MPMATH, tmp_path)
    assert proc.returncode == 0, proc.stderr


NO_DATACLASSES = """
import sys
import badapprox
import badapprox.cli
loaded = [name for name in ("dataclasses", "inspect") if name in sys.modules]
assert not loaded, f"importing badapprox loaded {loaded}"
"""


def test_import_loads_no_dataclasses_or_inspect(tmp_path):
    # the records share one slots base; dataclasses (and the inspect it pulls
    # in) was most of the package's import time
    proc = run_fresh(NO_DATACLASSES, tmp_path)
    assert proc.returncode == 0, proc.stderr
