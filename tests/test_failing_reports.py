"""Full --emit json reports of commands with one planted defect each.

The goldens pin passing reports only; these pin what a failing check
reports: its status, the overall status, exit code 2 and the detail string
(failing labels, the first failing word or triple, or the columns where two
maps differ).  Each defect is planted in-process with monkeypatch.
"""

import json
import os

import pytest

from xchern import chern as C, forms as F, quasihom as QH, xcomplex as X
from xchern.algebra import dual_numbers
from xchern.cli import main
from xchern.scalars import ONE, render

from test_generated import rational_rebasing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DGA = ["verify-dga", "specs/dual.json", "--max-degree", "4"]
# each command line as the report echoes it, defaults included
EVEN = ["universal", "specs/dual.json", "--n", "0", "--parity", "even",
        "--window", "2", "--src-len", "2"]
ODD = ["universal", "specs/dual.json", "--n", "0", "--parity", "odd",
       "--window", "3", "--src-len", "2"]
CHERN = ["chern", "specs/idqh.json", "--n", "0", "--src-len", "2"]


def negate_degree_two_b(mp):
    """b on degree-2 words with its sign flipped."""
    real = F._b_word

    def b(space, w):
        vec, lossy = real(space, w)
        if len(w) == 3:
            vec = {k: -c for k, c in vec.items()}
        return vec, lossy
    mp.setattr(F, "_b_word", b)


def double_retraction_constant(mp):
    real = C.retraction_constant
    mp.setattr(C, "retraction_constant", lambda n: 2 * real(n))


def swap_is_identity(mp):
    mp.setattr(QH.Quasihomomorphism, "swap", lambda self: self)


def call_everything_degenerate(mp):
    mp.setattr(QH.Quasihomomorphism, "is_degenerate", lambda self: True)


def bump_universal_cocycle(mp):
    """The even universal cocycle plus one target label with a loss-free
    nonzero boundary in the column of the tensor word (0,)."""
    real = C.universal_ch_even

    def ch(algebra, n, src, tgt):
        good = real(algebra, n, src, tgt)
        t = next(t for t in tgt.even_basis()
                 if tgt.bdry_even({t: ONE})[0]
                 and not tgt.bdry_even({t: ONE})[1])
        bump = X.ChainMap.from_columns(src, tgt, 0, {(0,): {t: ONE}}, {})
        return good.add(bump)
    mp.setattr(C, "universal_ch_even", ch)


def double_primitive(mp):
    real = X.homotopy_solve

    def solve(f, *args, **kwargs):
        h, witness = real(f, *args, **kwargs)
        return h.scale(ONE + ONE), witness
    mp.setattr(X, "homotopy_solve", solve)


def _check(name, anchor, status="pass", detail=None):
    rec = {"name": name, "anchor": anchor, "status": status}
    if detail is not None:
        rec["detail"] = detail
    return rec


def _dga(bB, kappa):
    return [
        _check("b.b = 0", "hochschild boundary squares to zero"),
        _check("B.B = 0", "cyclic boundary squares to zero"),
        _check("b.B + B.b = 0", "boundaries anticommute", *bB),
        _check("1 - kappa = d.b + b.d", "karoubi operator identity", *kappa),
        _check("B.kappa = kappa.B = B", "cyclic invariance of B"),
        _check("fedosov associativity", "deformed product is associative"),
    ]


def _universal(universal=(), retracted=(), cyclicity=(), equality=(),
               solve=None):
    checks = [
        _check("chain map: universal cocycle",
               "boundaries intertwine with the cocycle", *universal),
        _check("chain map: retracted cocycle",
               "cocycle identity against b + B", *retracted),
        _check("cyclicity", "invariance under the karoubi power", *cyclicity),
        _check("universal equality",
               "retraction of the universal bimodule matches the cocycle",
               *equality),
    ]
    if solve is not None:
        checks.append(_check("coboundary solve", "consecutive cocycles "
                             "differ by a coboundary on the window", *solve))
    return checks


def _chern(degenerate=None, antisym=()):
    checks = [_check("chain map: bivariant character",
                     "boundaries intertwine through the lift and trace")]
    if degenerate is not None:
        checks.append(_check("degenerate vanishing", "character of a "
                             "degenerate element is zero", *degenerate))
    checks.append(_check("swap antisymmetry", "exchanging the pair negates "
                         "the character", *antisym))
    return checks


FAIL = "fail"

CASES = {
    "b negated in degree 2": (
        DGA, negate_degree_two_b,
        _dga(bB=(FAIL, "(1, 0, 1)"), kappa=(FAIL, "(1, 0)"))),
    "retraction constant doubled, even": (
        EVEN, double_retraction_constant,
        _universal(equality=(FAIL, "differs at [('even', (0,)), "
                             "('even', (1,)), ('even', (0, 0))]"))),
    "retraction constant doubled, odd": (
        ODD, double_retraction_constant,
        _universal(equality=(FAIL, "differs at [('odd', ((0,), (1,))), "
                             "('odd', ((1,), (0,))), "
                             "('odd', ((0, 0), (1,)))]"))),
    "swap is the identity": (
        CHERN, swap_is_identity, _chern(antisym=(FAIL, "(0,)"))),
    "every quasihomomorphism degenerate": (
        CHERN, call_everything_degenerate,
        _chern(degenerate=(FAIL, "(0,)"))),
    "universal cocycle bumped": (
        EVEN, bump_universal_cocycle,
        _universal(universal=(FAIL, "failures at [(0,)]"),
                   cyclicity=(FAIL, "differs at [('even', (0, 0))]"),
                   equality=(FAIL, "differs at [('even', (0,))]"))),
    "primitive doubled": (
        EVEN + ["--solve"], double_primitive,
        _universal(solve=(FAIL, "primitive fails at [(0,), (1,), (0, 0)]"))),
}


def _assert_failing_report(argv, checks, capsys):
    code = main(argv + ["--emit", "json"])
    want = {"command": argv, "version": "0.1.0", "status": "fail",
            "checks": checks}
    assert capsys.readouterr().out == json.dumps(
        want, sort_keys=True, indent=1) + "\n"
    assert code == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_planted_defect_report(name, monkeypatch, capsys):
    argv, plant, checks = CASES[name]
    monkeypatch.chdir(ROOT)
    plant(monkeypatch)
    _assert_failing_report(argv, checks, capsys)


def test_planted_defect_report_on_a_rational_table(tmp_path, monkeypatch,
                                                    capsys):
    """verify-dga on a rational rebasing of dual, which the suite checks on
    its integral rescaling, reports the defect at the same labels as the
    Fraction arithmetic on the table itself did."""
    alg = rational_rebasing(dual_numbers, 3)
    names = alg.basis_names
    spec = {"kind": "algebra", "name": "dual-rebased", "basis": names,
            "unit": {names[k]: render(c) for k, c in alg.unit.items()},
            "products": {"%s*%s" % (names[i], names[j]):
                         {names[k]: render(c) for k, c in vec.items()}
                         for (i, j), vec in alg.mul.items()}}
    (tmp_path / "dual-rebased.json").write_text(json.dumps(spec))
    monkeypatch.chdir(tmp_path)
    negate_degree_two_b(monkeypatch)
    _assert_failing_report(
        ["verify-dga", "dual-rebased.json", "--max-degree", "4"],
        _dga(bB=(FAIL, "(1, 0, 0)"), kappa=(FAIL, "(1, 0)")), capsys)
