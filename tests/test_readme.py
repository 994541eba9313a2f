"""README's commands, run as README shows them.

Every ``badapprox ...`` line of README's ``sh`` blocks goes through
``cli.main`` in one temporary directory, in README's order, with the
``json`` block written to the ``theta.json`` that README names; the
``python`` block runs too.  The values README states are checked against
what the commands wrote, so a README edit that breaks a command or a value
fails here.
"""
import contextlib
import io
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from badapprox.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(kind: str) -> list[str]:
    return re.findall(rf"^```{kind}\n(.*?)^```", README.read_text(), re.S | re.M)


def _commands() -> list[list[str]]:
    """The argument lists of every badapprox line of the sh blocks, with
    continuation lines joined and comments dropped."""
    out = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "badapprox":
                out.append(words[1:])
    return out


def _report(path: Path) -> dict:
    return json.loads(path.read_text())["report"]


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory):
    """The directory where every README command ran, and each one's exit code."""
    root = tmp_path_factory.mktemp("readme")
    (json_block,) = _blocks("json")
    (root / "theta.json").write_text(json_block)
    codes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        mp.delenv("BADAPPROX_OUT", raising=False)
        for argv in _commands():
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append((argv[0], main(argv)))
    return root, codes


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in _commands()} == {"play", "certify", "psi", "resonance", "sweep"}


def test_every_readme_command_succeeds(readme_run):
    _, codes = readme_run
    assert codes and all(code == 0 for _, code in codes), codes


def test_the_quick_start_and_the_chain_give_the_values_readme_states(readme_run):
    root, _ = readme_run
    text = README.read_text()
    assert "`6450562909/176458170368 > 0` at `x = 28`" in text
    assert "`9781/524288` at r = 3" in text
    for out in ("run", "t1"):
        report = _report(root / out / "report.json")
        assert (report["value"], report["argmin"]) == ("6450562909/176458170368", [28])
    margin = _report(root / "margin" / "report.json")
    assert (margin["value"], margin["argmin"]) == ("9781/524288", [3])
    eta = json.loads((root / "play" / "certificate.json").read_text())["certificate"]["eta_center"]
    assert eta == ["160567/524288"]


def test_decay_equals_product_on_the_readme_theta(readme_run):
    # README's certify line on theta.json reads "1x2 theta: equals product"
    root, _ = readme_run
    (decay_argv,) = [a for a in _commands() if "theta.json" in a]
    product_argv = decay_argv[:decay_argv.index("--functional")] + ["--out", str(root / "product")]
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(product_argv) == 0
    decay, product = _report(root / "report.json"), _report(root / "product" / "report.json")
    assert (decay["functional"], product["functional"]) == ("decay-weighted", "product")
    assert (decay["value"], decay["argmin"]) == (product["value"], product["argmin"])
    assert Fraction(decay["value"]) > 0


def test_the_readme_library_snippet_runs(tmp_path, monkeypatch):
    (block,) = _blocks("python")
    monkeypatch.chdir(tmp_path)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    residual_lb, value = printed.getvalue().split()
    assert Fraction(residual_lb) > 0 and Fraction(value) > 0
