"""The --emit json and --emit text reports of the README command lines on
specs/, of the odd universal command and of the even universal command at
window 4, against committed copies.

The exact commands must reproduce both reports byte for byte.  The jlo
JSON report is compared without its detail strings, whose float digits
depend on the BLAS build; each residual must still sit within its
tolerance.  Its text report prints no detail for a passing check, so it is
compared byte for byte.
"""

import json
import os
import re

import pytest

from xchern.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

EXACT = {
    "verify-dga": ["verify-dga", "specs/dual.json", "--max-degree", "6"],
    "universal": ["universal", "specs/dual.json", "--n", "0", "--parity",
                  "even", "--window", "2", "--solve"],
    "universal-odd": ["universal", "specs/dual.json", "--n", "0", "--parity",
                      "odd", "--window", "3"],
    # builds the window-4 commutator quotient that the cocycles benchmark
    # workload spends its time in
    "universal-w4": ["universal", "specs/dual.json", "--n", "1", "--parity",
                     "even", "--window", "4", "--src-len", "3"],
    "chern": ["chern", "specs/idqh.json", "--n", "0"],
    # the lift at n = 1 and the graded lift of a full invertible extension
    "chern-n1": ["chern", "specs/idqh.json", "--n", "1"],
    "chern-extension": ["chern", "specs/extension.json", "--n", "0"],
    # the one command that runs gamma_odd at n = 1; at --src-len 2 its odd
    # character is zero on every column
    "chern-extension-n1": ["chern", "specs/extension.json", "--n", "1",
                           "--src-len", "3"],
    "pair": ["pair", "specs/fredholm.json"],
}
JLO = ["jlo", "specs/triple2x2.json", "--n", "2", "--T", "8",
       "--quad-order", "10"]
# the tolerance of each jlo check at the default --tolerance 1e-8
JLO_TOLERANCE = {"cocycle identity": 1e-8, "transgression": 1e-6,
                 "retraction limit": 1e-6}


def _report(argv, monkeypatch, capsys, mode="json"):
    monkeypatch.chdir(ROOT)
    code = main(argv + ["--emit", mode])
    assert code == 0
    return capsys.readouterr().out


def _golden(name, ext="json"):
    with open(os.path.join(GOLDEN, "%s.%s" % (name, ext))) as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(EXACT))
def test_exact_report_is_byte_identical(name, monkeypatch, capsys):
    for mode, ext in (("json", "json"), ("text", "txt")):
        got = _report(EXACT[name], monkeypatch, capsys, mode)
        assert got == _golden(name, ext), mode


def test_jlo_report_matches_up_to_residual_digits(monkeypatch, capsys):
    got = json.loads(_report(JLO, monkeypatch, capsys))
    want = json.loads(_golden("jlo"))
    for check in got["checks"]:
        detail = check.pop("detail")
        assert re.fullmatch(r"residual \d\.\d{3}e[+-]\d\d", detail), detail
        assert float(detail.split()[1]) <= JLO_TOLERANCE[check["name"]]
    for check in want["checks"]:
        del check["detail"]
    assert got == want
    assert _report(JLO, monkeypatch, capsys, "text") == _golden("jlo", "txt")
