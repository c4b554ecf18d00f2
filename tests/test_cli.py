import json
import os

import pytest

from xchern.cli import main, load_algebra, load_spec, SpecError

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


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_algebra_builtin():
    assert load_algebra("dual").dim == 2
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


def test_chern_extension(tmp_path, capsys):
    path = _write(tmp_path, "ext.json", EXT_SPEC)
    code = main(["chern", path, "--n", "0"])
    out = capsys.readouterr().out
    assert code == 0 and "overall: PASS" in out


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
