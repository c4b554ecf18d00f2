import json
import os
import subprocess
import sys

import pytest

from xchern.cli import main, load_algebra, load_spec, SpecError, BUILTINS

DUAL_SPEC = {
    "kind": "algebra",
    "name": "dual",
    "basis": ["1", "eps"],
    "unit": {"1": "1"},
    "products": {
        "1*1": {"1": "1"},
        "1*eps": {"eps": "1"},
        "eps*1": {"eps": "1"},
        "eps*eps": {},
    },
}

TRIPLE_SPEC = {
    "kind": "spectral_triple",
    "base": "qq",
    "rho": [
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
    ],
    "D": [[[0, 0], [2, 0]], [[2, 0], [0, 0]]],
}

QH_SPEC = {
    "kind": "quasihom",
    "name": "id*0",
    "base": "dual",
    "target": "dual",
    "nsize": 1,
    "rho_plus": [[[{"0": "1"}]], [[{"1": "1"}]]],
    "rho_minus": [[[{}]], [[{}]]],
}

EXT_SPEC = {
    "kind": "extension",
    "base": "qq",
    "target": "qq",
    "nsize": 1,
    "alpha": [
        [[{"0": "1"}, {"0": "1"}], [{"1": "1"}, {"1": "1"}]],
        [[{"1": "1"}, {"0": "-1"}], [{"1": "-1"}, {"0": "1"}]],
    ],
}

FRED_SPEC = {
    "kind": "fredholm",
    "base": "qq",
    "target": "q",
    "parity": 0,
    "nsize": 1,
    "rho": [
        [[{"0": "1"}, {}], [{}, {}]],
        [[{}, {}], [{}, {"0": "1"}]],
    ],
    "F": [[{}, {"unit": "1"}], [{"unit": "1"}, {}]],
    "idempotents": [
        {"size": 1, "scalar": [["0"]], "body": [[{"0": "1"}]]},
        {"size": 1, "scalar": [["0"]], "body": [[{"1": "1"}]]},
        {"size": 1, "scalar": [["0"]], "body": [[{}]]},
    ],
}

# odd bimodule over the scalars: alpha = the first projection, f = 1
ODD_FRED_SPEC = {
    "kind": "fredholm",
    "base": "qq",
    "target": "q",
    "parity": 1,
    "nsize": 1,
    "rho": [[[{"0": "1"}]], [[{}]]],
    "F": [[{"0": "1"}]],
    "idempotents": [
        {"size": 1, "scalar": [["0"]], "body": [[{"0": "1"}]]},
    ],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_algebra_builtin():
    dims = {"dual": 2, "m2": 4, "z2": 2, "qq": 2, "q": 1}
    assert set(dims) == set(BUILTINS)
    for name, dim in dims.items():
        assert load_algebra(name).dim == dim, name
    with pytest.raises(SpecError):
        load_algebra("nope")


def test_load_algebra_rejects_bad_unit(tmp_path):
    bad = dict(DUAL_SPEC)
    bad = json.loads(json.dumps(DUAL_SPEC))
    bad["products"]["1*1"] = {"1": "2"}
    path = _write(tmp_path, "bad.json", bad)
    with pytest.raises(SpecError):
        load_algebra(load_spec(path))


def test_verify_dga_command(tmp_path, capsys):
    path = _write(tmp_path, "dual.json", DUAL_SPEC)
    code = main(["verify-dga", path, "--max-degree", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out


def test_verify_dga_rejects_corrupt(tmp_path, capsys):
    bad = json.loads(json.dumps(DUAL_SPEC))
    bad["products"]["eps*eps"] = {"1": "1"}   # eps^2 = 1 breaks the unit? no:
    # it breaks nothing structural, so corrupt associativity instead
    bad["products"]["1*eps"] = {"eps": "2"}
    path = _write(tmp_path, "bad.json", bad)
    code = main(["verify-dga", path])
    assert code == 3


def test_universal_command(tmp_path, capsys):
    path = _write(tmp_path, "dual.json", DUAL_SPEC)
    code = main(["universal", path, "--n", "0", "--parity", "even",
                 "--window", "2", "--src-len", "2"])
    out = capsys.readouterr().out
    assert code == 0 and "overall: PASS" in out


def test_universal_window_too_small(tmp_path, capsys):
    path = _write(tmp_path, "dual.json", DUAL_SPEC)
    code = main(["universal", path, "--n", "1", "--parity", "even",
                 "--window", "1"])
    assert code == 3


def test_chern_command(tmp_path, capsys):
    path = _write(tmp_path, "qh.json", QH_SPEC)
    code = main(["chern", path, "--n", "0"])
    out = capsys.readouterr().out
    assert code == 0 and "overall: PASS" in out


def test_chern_degenerate_pair(tmp_path, capsys):
    spec = dict(QH_SPEC, rho_minus=QH_SPEC["rho_plus"])
    path = _write(tmp_path, "degenerate.json", spec)
    assert main(["chern", path, "--n", "0", "--emit", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("chain map: bivariant character", "pass"),
        ("degenerate vanishing", "pass"),
        ("swap antisymmetry", "pass")]


def test_chern_extension(tmp_path, capsys):
    path = _write(tmp_path, "ext.json", EXT_SPEC)
    code = main(["chern", path, "--n", "0"])
    out = capsys.readouterr().out
    assert code == 0 and "overall: PASS" in out


def test_chern_degenerate_extension(tmp_path, capsys):
    # an even alpha equals X alpha X, so the pair (alpha, X alpha X) is
    # degenerate; an extension has no swap check
    diag = [[[{str(i): "1"}, {}], [{}, {str(i): "1"}]] for i in (0, 1)]
    path = _write(tmp_path, "even.json", dict(EXT_SPEC, alpha=diag))
    assert main(["chern", path, "--n", "0", "--emit", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("chain map: bivariant character", "pass"),
        ("degenerate vanishing", "pass")]


def test_jlo_command_and_determinism(tmp_path, capsys):
    path = _write(tmp_path, "triple.json", TRIPLE_SPEC)
    args = ["jlo", path, "--n", "2", "--quad-order", "8", "--emit", "json"]
    code = main(args)
    out1 = capsys.readouterr().out
    assert code == 0
    code = main(args)
    out2 = capsys.readouterr().out
    assert out1 == out2
    body = json.loads(out1)
    assert body["status"] == "pass"
    assert all("anchor" in c for c in body["checks"])


def test_timings_in_text_reports(tmp_path, capsys):
    path = _write(tmp_path, "fred.json", FRED_SPEC)
    assert main(["pair", path]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert main(["pair", path, "--timings"]) == 0
    timed = capsys.readouterr().out.splitlines()
    assert main(["pair", path, "--timings", "--emit", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(timed) == len(plain) == len(checks) + 2
    assert timed[0] == plain[0] and timed[-1] == plain[-1]
    for line, bare in zip(timed[1:-1], plain[1:-1]):
        head, ms = line.rsplit("  ", 1)
        assert head == bare and ms.endswith(" ms")
        assert float(ms[:-3]) >= 0
    assert all("wall_time_ms" in c for c in checks)


def test_jlo_checks_fail_on_nan_residual(tmp_path, capsys, monkeypatch):
    from xchern import jlo as J
    monkeypatch.setattr(J, "jlo_component", lambda *a, **kw: float("nan"))
    path = _write(tmp_path, "triple.json", TRIPLE_SPEC)
    code = main(["jlo", path, "--emit", "json"])
    body = json.loads(capsys.readouterr().out)
    assert code == 2
    assert [(c["status"], c["detail"]) for c in body["checks"]] == \
        [("fail", "residual nan")] * 3


@pytest.mark.parametrize("flags", [["--n", "-1"], ["--T", "0"],
                                   ["--T", "nan"], ["--T", "inf"],
                                   ["--tolerance", "nan"],
                                   ["--tolerance", "-1"],
                                   ["--tolerance", "inf"],
                                   ["--n", "16"]])
def test_jlo_rejects_bad_window(flags, tmp_path, capsys):
    path = _write(tmp_path, "triple.json", TRIPLE_SPEC)
    assert main(["jlo", path] + flags) == 3
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("command, spec, flags", [
    ("universal", DUAL_SPEC, ["--n", "-1"]),
    ("universal", DUAL_SPEC, ["--src-len", "-1"]),
    ("universal", DUAL_SPEC, ["--src-len", "0"]),
    ("verify-dga", DUAL_SPEC, ["--max-degree", "-1"]),
    ("chern", QH_SPEC, ["--n", "-1"]),
    ("chern", QH_SPEC, ["--src-len", "0"]),
])
def test_exact_commands_reject_bad_degrees(command, spec, flags, tmp_path,
                                           capsys):
    path = _write(tmp_path, "spec.json", spec)
    assert main([command, path] + flags) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ")
    assert captured.out == ""


def test_jlo_require_invertible(tmp_path, capsys):
    bad = json.loads(json.dumps(TRIPLE_SPEC))
    bad["D"] = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    path = _write(tmp_path, "sing.json", bad)
    code = main(["jlo", path, "--require-invertible"])
    assert code == 3


def test_pair_command(tmp_path, capsys):
    path = _write(tmp_path, "fred.json", FRED_SPEC)
    code = main(["pair", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 3



def test_pair_rejects_odd_bimodule(tmp_path, capsys):
    path = _write(tmp_path, "odd.json", ODD_FRED_SPEC)
    assert main(["pair", path, "--emit", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.err == \
        "input error: pair needs an even bimodule (parity 0)\n"
    assert captured.out == ""


# malformed/<command>__<case>.json: each spec must be turned away by that
# command with exit code 3 and an input-error message, never a traceback
MALFORMED_DIR = os.path.join(os.path.dirname(__file__), "malformed")
MALFORMED = sorted(f for f in os.listdir(MALFORMED_DIR) if f.endswith(".json"))


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_spec_exits_3(name, capsys):
    command = name.split("__")[0]
    code = main([command, os.path.join(MALFORMED_DIR, name)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("input error: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["verify-dga", "universal", "chern",
                                     "jlo", "pair"])
@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
def test_unreadable_spec_exits_3(command, case, tmp_path, capsys):
    path = tmp_path / "spec.json"
    if case == "directory":
        path.mkdir()
    elif case == "not_utf8":
        path.write_bytes(b'{"kind": "\xff"}')
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("input error: ")
    assert captured.out == ""


# each command imports only the layers it runs: the exact commands never
# load numpy or jlo, and verify-dga none of the complex layers either
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("numpy", "xchern.jlo", "xchern.xcomplex", "xchern.chern",
          "xchern.quasihom")
REPORT_MODULES = """
import sys
from xchern.cli import main
code = main(sys.argv[1:])
print(" ".join(m for m in %r if m in sys.modules))
sys.exit(code)
""" % (LAYERS,)


@pytest.mark.parametrize("argv, loaded", [
    (["verify-dga", "specs/dual.json", "--max-degree", "2"], []),
    (["universal", "specs/dual.json", "--window", "2"],
     ["xchern.xcomplex", "xchern.chern"]),
    (["chern", "specs/idqh.json"],
     ["xchern.xcomplex", "xchern.chern", "xchern.quasihom"]),
    (["pair", "specs/fredholm.json"],
     ["xchern.xcomplex", "xchern.chern", "xchern.quasihom"]),
    (["jlo", "specs/triple2x2.json"], ["numpy", "xchern.jlo"]),
], ids=["verify-dga", "universal", "chern", "pair", "jlo"])
def test_command_imports_only_its_layers(argv, loaded):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", REPORT_MODULES] + argv,
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == loaded
