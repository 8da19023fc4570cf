"""Every demo script reproduces its recorded report, byte for byte.

``tests/data/demos`` holds the human and ``--porcelain`` report of each
``demos/*.qh`` script and its exit code (``exit-codes.txt``).  They pin the
rendering of every script command, including ``covariance``,
``inverse-check`` and ``product-check``.  After a deliberate change to a
report, re-record it from the repository root with
``qhcontract [--porcelain] run demos/NAME.qh > tests/data/demos/NAME[.porcelain].txt``.
"""

from pathlib import Path

import pytest

from qhcontract.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
RECORDED = ROOT / "tests" / "data" / "demos"
EXIT_CODES = dict(
    line.split() for line in (RECORDED / "exit-codes.txt").read_text().splitlines()
)


def test_every_demo_is_recorded():
    assert sorted(EXIT_CODES) == sorted(p.stem for p in DEMOS.glob("*.qh"))


@pytest.mark.parametrize("mode", ["", "porcelain"])
@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_demo_output_is_unchanged(name, mode, capsys):
    argv = ["--porcelain"] if mode else []
    code = main(argv + ["run", str(DEMOS / f"{name}.qh")])
    captured = capsys.readouterr()
    suffix = ".porcelain.txt" if mode else ".txt"
    assert captured.out == (RECORDED / f"{name}{suffix}").read_text(encoding="utf-8")
    assert captured.err == ""
    assert code == int(EXIT_CODES[name])
