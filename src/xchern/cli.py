"""Batch front door: spec-file ingestion, verification suites, reports.

Spec files are JSON with exact scalars serialized as strings ("3/4",
"1+2i", "sqrt(pi)").  Reports are deterministic: fixed check order, sorted
keys, no timestamps unless asked for.  Exit codes: 0 all checks pass, 2 a
mathematical identity failed, 3 bad input or an unrepresentable window.
"""

import argparse
import json
import sys
import time

from . import __version__
from .scalars import Scalar, ONE, parse as parse_scalar, bott_constant
from .linalg import vec_axpy
from .algebra import (Algebra, dual_numbers, matrix_units,
                      group_algebra_z2, split_pair, rationals)
from . import forms as F
from . import xcomplex as X
from . import chern as C
from . import quasihom as QH
from . import jlo as J


BUILTINS = {
    "dual": dual_numbers,
    "m2": lambda: matrix_units(2),
    "z2": group_algebra_z2,
    "qq": split_pair,
    "q": rationals,
}


class SpecError(Exception):
    pass


def _field(spec, key):
    if not isinstance(spec, dict) or key not in spec:
        raise SpecError("spec lacks the field %r" % key)
    return spec[key]


def _scalar(text):
    try:
        return parse_scalar(text)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SpecError("bad scalar %r: %s" % (text, exc))


def _int(value, what):
    try:
        return int(value)
    except (ValueError, TypeError):
        raise SpecError("%s must be an integer, got %r" % (what, value))


def _positive(value, what):
    n = _int(value, what)
    if n < 1:
        raise SpecError("%s must be positive, got %d" % (what, n))
    return n


def _check_square(rows, n, what):
    if not isinstance(rows, list) or len(rows) != n or any(
            not isinstance(row, list) or len(row) != n for row in rows):
        raise SpecError("expected a %d x %d %s" % (n, n, what))


def load_algebra(spec):
    if isinstance(spec, str):
        spec = {"builtin": spec}
    if not isinstance(spec, dict):
        raise SpecError("an algebra is a builtin name or a table")
    if "builtin" in spec:
        name = spec["builtin"]
        if name not in BUILTINS:
            raise SpecError("unknown builtin algebra %r" % name)
        return BUILTINS[name]()
    try:
        names = list(spec["basis"])
        mul = {}
        for key, vec in spec["products"].items():
            a, b = key.split("*")
            i, j = names.index(a), names.index(b)
            mul[(i, j)] = {names.index(k): _scalar(v)
                           for k, v in vec.items()}
        unit = None
        if "unit" in spec:
            unit = {names.index(k): _scalar(v)
                    for k, v in spec["unit"].items()}
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise SpecError("malformed algebra spec: %s" % exc)
    try:
        return Algebra(names, mul, unit=unit, name=spec.get("name", "algebra"))
    except ValueError as exc:
        raise SpecError("algebra rejected: %s" % exc)


def _parse_entry(entry, dim):
    """Entry over the unitalization: "unit" or a basis index below dim."""
    if not isinstance(entry, dict):
        raise SpecError("matrix entry must be an object, got %r" % (entry,))
    out = {}
    for k, v in entry.items():
        key = None if k == "unit" else _int(k, "entry key")
        if key is not None and not 0 <= key < dim:
            raise SpecError("entry key %d outside the basis of size %d"
                            % (key, dim))
        out[key] = _scalar(v)
    return out


def load_matrix(rows, n, dim):
    """n x n matrix with entries over an algebra of dimension dim."""
    _check_square(rows, n, "matrix")
    return [[_parse_entry(e, dim) for e in row] for row in rows]


def _matrices(spec, key, count, n, dim):
    """The list of count n x n matrices under key."""
    mats = _field(spec, key)
    if not isinstance(mats, list) or len(mats) != count:
        raise SpecError("%s must list %d matrices" % (key, count))
    return [load_matrix(m, n, dim) for m in mats]


def load_spec(path):
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError("not valid JSON: %s" % exc)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError("spec file lacks a kind")
    return spec


def load_quasihom(spec):
    base = load_algebra(_field(spec, "base"))
    target = load_algebra(_field(spec, "target"))
    n = _positive(_field(spec, "nsize"), "nsize")
    rp = _matrices(spec, "rho_plus", base.dim, n, target.dim)
    rm = _matrices(spec, "rho_minus", base.dim, n, target.dim)
    try:
        return QH.Quasihomomorphism(base, target, n, rp, rm, None,
                                    name=spec.get("name", "phi"))
    except ValueError as exc:
        raise SpecError("quasihomomorphism rejected: %s" % exc)


def load_extension(spec):
    base = load_algebra(_field(spec, "base"))
    target = load_algebra(_field(spec, "target"))
    n = _positive(_field(spec, "nsize"), "nsize")
    alpha = _matrices(spec, "alpha", base.dim, 2 * n, target.dim)
    try:
        return QH.InvertibleExtension(base, target, n, alpha, None,
                                      name=spec.get("name", "ext"))
    except ValueError as exc:
        raise SpecError("extension rejected: %s" % exc)


def load_fredholm(spec):
    base = load_algebra(_field(spec, "base"))
    parity = _int(spec.get("parity", 0), "parity")
    if parity not in (0, 1):
        raise SpecError("parity must be 0 or 1, got %d" % parity)
    n = _positive(_field(spec, "nsize"), "nsize")
    target_alg = load_algebra(spec.get("target", "q"))
    size = 2 * n if parity == 0 else n
    rho = _matrices(spec, "rho", base.dim, size, target_alg.dim)
    fmat = load_matrix(_field(spec, "F"), size, target_alg.dim)
    target = X.TableAlg(target_alg)
    try:
        if parity == 1:
            zero = [[{} for _ in range(n)] for _ in range(n)]
            rho = [C.PairMat(m, [list(map(dict, r)) for r in zero])
                   for m in rho]
        return C.FredholmBimodule(base, target, parity, rho, fmat, n,
                                  name=spec.get("name", "module"))
    except ValueError as exc:
        raise SpecError("bimodule rejected: %s" % exc)


def load_idempotent(idem, base):
    """(size k, k x k matrix of (scalar, body over base indices))."""
    k = _positive(_field(idem, "size"), "idempotent size")
    scalars, bodies = _field(idem, "scalar"), _field(idem, "body")
    for rows in (scalars, bodies):
        _check_square(rows, k, "idempotent")
    mat = [[(_scalar(scalars[i][j]), _parse_entry(bodies[i][j], base.dim))
            for j in range(k)] for i in range(k)]
    if any(None in body for row in mat for _, body in row):
        raise SpecError("idempotent bodies are keyed by basis indices")
    return k, mat


def load_complex_matrix(rows):
    import numpy as np
    try:
        return np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise SpecError("bad complex matrix: %s" % exc)


def load_spectral_triple(spec):
    base = load_algebra(_field(spec, "base"))
    rho = [load_complex_matrix(m) for m in _field(spec, "rho")]
    D = load_complex_matrix(_field(spec, "D"))
    try:
        return base, J.SpectralTriple(base.dim, rho, D)
    except ValueError as exc:
        raise SpecError("spectral triple rejected: %s" % exc)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


class Report:
    def __init__(self, command, timings=False):
        self.command = command
        self.checks = []
        self.timings = timings

    def run(self, name, anchor, fn):
        t0 = time.monotonic()
        ok, detail = fn()
        rec = {"name": name, "anchor": anchor,
               "status": "pass" if ok else "fail"}
        if detail is not None:
            rec["detail"] = detail
        if self.timings:
            rec["wall_time_ms"] = round(1000 * (time.monotonic() - t0), 1)
        self.checks.append(rec)
        return ok

    @property
    def ok(self):
        return all(c["status"] == "pass" for c in self.checks)

    def emit(self, mode):
        body = {
            "command": self.command,
            "version": __version__,
            "status": "pass" if self.ok else "fail",
            "checks": self.checks,
        }
        if mode == "json":
            return json.dumps(body, sort_keys=True, indent=1)
        lines = ["%s (version %s)" % (" ".join(self.command), __version__)]
        for c in self.checks:
            line = "  [%s] %s  {%s}" % (c["status"].upper(), c["name"],
                                        c["anchor"])
            if "detail" in c and c["status"] == "fail":
                line += "  " + str(c["detail"])
            lines.append(line)
        lines.append("overall: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the DGA identity suite
# ---------------------------------------------------------------------------


def dga_suite(algebra, max_degree, report, samples=200, seed=11):
    import random
    rng = random.Random(seed)
    sp = F.FormSpace(algebra, max_degree)

    def words_upto(n):
        return [w for k in range(n + 1) for w in sp.basis_words(k)]

    def check_b_b():
        for w in words_upto(max_degree):
            if not F.b(F.b(sp.word(w))).is_zero():
                return False, repr(w)
        return True, None

    def check_B_B():
        for w in words_upto(max_degree - 2):
            one = F.connes_B(sp.word(w))
            if one.lossy:
                continue
            two = F.connes_B(one)
            if two.lossy:
                continue
            if not two.is_zero():
                return False, repr(w)
        return True, None

    def check_bB():
        for w in words_upto(max_degree - 1):
            f = sp.word(w)
            Bf = F.connes_B(f)
            bf = F.b(f)
            Bbf = F.connes_B(bf)
            if Bf.lossy or Bbf.lossy:
                continue
            if not (F.b(Bf) + Bbf).is_zero():
                return False, repr(w)
        return True, None

    def check_kappa():
        for w in words_upto(max_degree - 1):
            f = sp.word(w)
            df = F.d(f)
            if df.lossy:
                continue
            lhs = f - F.kappa(f)
            rhs = F.d(F.b(f)) + F.b(df)
            if not (lhs - rhs).is_zero():
                return False, repr(w)
        return True, None

    def check_Bkappa():
        for w in words_upto(max_degree - 1):
            f = sp.word(w)
            Bf = F.connes_B(f)
            if Bf.lossy:
                continue
            if F.connes_B(F.kappa(f)) != Bf or F.kappa(Bf) != Bf:
                return False, repr(w)
        return True, None

    def check_fedosov_assoc():
        low = words_upto(2)
        for _ in range(samples):
            w1, w2, w3 = (rng.choice(low) for _ in range(3))
            f1, f2, f3 = sp.word(w1), sp.word(w2), sp.word(w3)
            left = F.fedosov_full(F.fedosov_full(f1, f2), f3)
            right = F.fedosov_full(f1, F.fedosov_full(f2, f3))
            if left.lossy or right.lossy:
                continue
            if left != right:
                return False, repr((w1, w2, w3))
        return True, None

    report.run("b.b = 0", "hochschild boundary squares to zero", check_b_b)
    report.run("B.B = 0", "cyclic boundary squares to zero", check_B_B)
    report.run("b.B + B.b = 0", "boundaries anticommute", check_bB)
    report.run("1 - kappa = d.b + b.d", "karoubi operator identity",
               check_kappa)
    report.run("B.kappa = kappa.B = B", "cyclic invariance of B",
               check_Bkappa)
    report.run("fedosov associativity", "deformed product is associative",
               check_fedosov_assoc)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify_dga(args):
    report = Report(["verify-dga", args.spec, "--max-degree",
                     str(args.max_degree)], timings=args.timings)
    try:
        algebra = load_algebra(load_spec(args.spec))
    except SpecError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 3
    dga_suite(algebra, args.max_degree, report)
    print(report.emit(args.emit))
    return 0 if report.ok else 2


def universal_suite(algebra, n, parity, q_window, src_len, report,
                    solve=False):
    xt = X.x_of_tensor_algebra(algebra, src_len)
    osp = F.FormSpace(algebra, 2 * src_len)
    omega = X.OmegaComplex(osp)
    cmap = X.rescale_map(xt, omega)
    if parity == 0:
        qsp = F.FormSpace(algebra, q_window)
        xq = X.XGenerated(X.FedosovAlg(qsp), exact_quotient=True)
        ch = C.universal_ch_even(algebra, n, xt, xq)
        u = C.universal_bimodule_even(algebra, qsp)
        chi = C.retracted_cocycle(u, 2 * n, omega, xq)
        deg = 2 * n
        ksum = C.kappa_power_sum(xt, osp, deg)
        scal = Scalar.rational(1, deg + 1)
        lhs = X.ChainMap.compose(chi, cmap)
        rhs = X.ChainMap.compose(ch, ksum).scale(scal)
    else:
        qsp = F.FormSpace(algebra, q_window)
        xq = X.XGenerated(X.FedosovAlg(qsp, graded=True), graded=True,
                          exact_quotient=True)
        esp = F.FormSpace(algebra, q_window)
        xe = X.XGenerated(X.ZekriAlg(esp), exact_quotient=True)
        ch = C.universal_ch_odd(algebra, n, xt, xq)
        u = C.universal_bimodule_odd(algebra, esp)
        chi = C.retracted_cocycle(u, 2 * n + 1, omega, xe)
        deg = 2 * n + 1
        ksum = C.kappa_power_sum(xt, osp, deg)
        em = C.eta_chain_map(xe, xq)
        lhs = X.ChainMap.compose(em, X.ChainMap.compose(chi, cmap))
        rhs = X.ChainMap.compose(ch, ksum) \
            .scale(bott_constant() * Scalar.rational(1, deg + 1))

    report.run("chain map: universal cocycle",
               "boundaries intertwine with the cocycle",
               lambda: _chainmap_check(ch, xt))
    report.run("chain map: retracted cocycle",
               "cocycle identity against b + B",
               lambda: _chainmap_check(chi, omega))
    km = X.kappa_map(xt, osp)
    power = km
    for _ in range(deg):
        power = X.ChainMap.compose(km, power)
    cyc = X.ChainMap.compose(ch, power)
    report.run("cyclicity", "invariance under the karoubi power",
               lambda: _maps_equal_check(cyc, ch, xt))
    report.run("universal equality",
               "retraction of the universal bimodule matches the cocycle",
               lambda: _maps_equal_check(lhs, rhs, xt))
    if solve:
        if parity == 0:
            ch_lo = C.universal_ch_even(algebra, 0, xt, xq)
            ch_hi = C.universal_ch_even(algebra, 1, xt, xq)
        else:
            ch_lo = C.universal_ch_odd(algebra, 0, xt, xq)
            ch_hi = C.universal_ch_odd(algebra, 1, xt, xq)
        diff = ch_hi.sub(ch_lo)
        def run_solve():
            h, _ = X.homotopy_solve(diff)
            if h is None:
                return False, "no primitive"
            rep = X.verify_homotopy(diff, h)
            detail = None
            if not rep["ok"]:
                detail = "primitive fails at %s" % (
                    [lab for _, lab, _ in rep["failures"][:3]],)
            return rep["ok"], detail
        report.run("coboundary solve", "consecutive cocycles differ by a "
                   "coboundary on the window", run_solve)


def _chainmap_check(f, src):
    rep = X.verify_chain_map(f, even_labels=src.even_basis(),
                             odd_labels=src.odd_basis())
    detail = None
    if not rep["ok"]:
        detail = "failures at %s" % ([lab for _, lab, _ in
                                      rep["failures"][:3]],)
    return rep["ok"], detail


def _maps_equal_check(f, g, src):
    rep = X.maps_equal(f, g, src.even_basis(), src.odd_basis())
    detail = None
    if not rep["ok"]:
        detail = "differs at %s" % (rep["failures"][:3],)
    return rep["ok"], detail


def cmd_universal(args):
    report = Report(["universal", args.spec, "--n", str(args.n),
                     "--parity", args.parity, "--window", str(args.window)],
                    timings=args.timings)
    try:
        algebra = load_algebra(load_spec(args.spec))
        parity = {"even": 0, "odd": 1}[args.parity]
        needed = 2 * args.n + parity + 2
        if args.window < needed:
            print("window error: need a form window of at least %d"
                  % needed, file=sys.stderr)
            return 3
    except (SpecError, KeyError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 3
    universal_suite(algebra, args.n, parity, args.window,
                    args.src_len, report, solve=args.solve)
    print(report.emit(args.emit))
    return 0 if report.ok else 2


def cmd_chern(args):
    report = Report(["chern", args.spec, "--n", str(args.n)],
                    timings=args.timings)
    try:
        spec = load_spec(args.spec)
        kind = spec["kind"]
        if kind == "quasihom":
            phi = load_quasihom(spec)
        elif kind == "extension":
            phi = load_extension(spec)
        else:
            raise SpecError("chern expects a quasihom or extension spec")
    except SpecError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 3
    W = C.GammaWindows(args.src_len, args.src_len, 2 * args.n + 2, 1,
                       2 * args.src_len + 2 * args.n + 2)
    if kind == "quasihom":
        ch, parts = QH.ch_even(phi, args.n, W, return_parts=True)
    else:
        ch, parts = QH.ch_odd(phi, args.n, W, return_parts=True)
    xt = parts["xt"]
    report.run("chain map: bivariant character",
               "boundaries intertwine through the lift and trace",
               lambda: _chainmap_check(ch, xt))
    degenerate = phi.is_degenerate()
    if degenerate:
        def zero_check():
            for lab in xt.even_basis():
                if ch.even_col(lab)[0]:
                    return False, repr(lab)
            for lab in xt.odd_basis():
                if ch.odd_col(lab)[0]:
                    return False, repr(lab)
            return True, None
        report.run("degenerate vanishing", "character of a degenerate "
                   "element is zero", zero_check)
    if kind == "quasihom":
        swap = phi.swap()
        ch_swap = QH.ch_even(swap, args.n, W)
        def antisym():
            for lab in xt.even_basis():
                v1, l1 = ch.even_col(lab)
                v2, l2 = ch_swap.even_col(lab)
                if l1 or l2:
                    continue
                s = dict(v1)
                vec_axpy(s, ONE, v2)
                if s:
                    return False, repr(lab)
            return True, None
        report.run("swap antisymmetry", "exchanging the pair negates the "
                   "character", antisym)
    print(report.emit(args.emit))
    return 0 if report.ok else 2


def cmd_jlo(args):
    report = Report(["jlo", args.spec, "--n", str(args.n), "--T",
                     str(args.T), "--quad-order", str(args.quad_order)],
                    timings=args.timings)
    try:
        algebra, triple = load_spectral_triple(load_spec(args.spec))
    except SpecError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 3
    if args.require_invertible and not triple.invertible_square:
        print("window error: D^2 is not invertible", file=sys.stderr)
        return 3
    tol = args.tolerance
    order = args.quad_order

    def cocycle_check():
        worst = 0.0
        for n in range(0, args.n + 1):
            tup = ((0.0, 0),) + tuple(i % algebra.dim for i in range(n))
            lhs = 0.0
            for c, tt in J.tuple_b(algebra, tup):
                lhs += c * J.jlo_component(triple, n - 1, 0.9, tt,
                                           order=order)
            for c, tt in J.tuple_B(tup):
                lhs += c * J.jlo_component(triple, n + 1, 0.9, tt,
                                           order=order)
            worst = max(worst, abs(lhs))
        return worst <= tol, "residual %.3e" % worst

    def transgression_check():
        h = 1e-5
        worst = 0.0
        for n in range(0, min(args.n, 2) + 1):
            tup = ((0.0, 0),) + tuple(i % algebra.dim for i in range(n))
            dchi = (J.jlo_component(triple, n, 0.8 + h, tup, order=order)
                    - J.jlo_component(triple, n, 0.8 - h, tup,
                                      order=order)) / (2 * h)
            rhs = 0.0
            for c, tt in J.tuple_b(algebra, tup):
                rhs += c * J.cs_component(triple, n - 1, 0.8, tt,
                                          order=order)
            for c, tt in J.tuple_B(tup):
                rhs += c * J.cs_component(triple, n + 1, 0.8, tt,
                                          order=order)
            worst = max(worst, abs(dchi - rhs))
        return worst <= max(tol, 1e-6), "residual %.3e" % worst

    def retraction_check():
        if not triple.invertible_square:
            return True, "skipped: D^2 not invertible"
        Fop = J.interpolate_Du(triple, 1.0)
        n = args.n if args.n % 2 == 0 else args.n - 1
        worst = 0.0
        tup = ((0.0, 0),) + tuple(i % algebra.dim for i in range(n))
        vT = J.chi_hat_T(triple, algebra, n, args.T, tup, order=min(order, 8),
                         t_order=20)
        vI = J.chi_hat_infty_exact(Fop, n, tup)
        worst = max(worst, abs(vT - vI))
        return worst <= max(tol, 1e-6), "residual %.3e" % worst

    report.run("cocycle identity", "heat cochain is closed against b + B",
               cocycle_check)
    report.run("transgression", "t-derivative matches the transgression "
               "cochain", transgression_check)
    report.run("retraction limit", "finite-time retraction reaches the "
               "bounded symbol values", retraction_check)
    print(report.emit(args.emit))
    return 0 if report.ok else 2


def cmd_pair(args):
    report = Report(["pair", args.spec], timings=args.timings)
    try:
        spec = load_spec(args.spec)
        if spec["kind"] != "fredholm":
            raise SpecError("pair expects a fredholm spec")
        M = load_fredholm(spec)
        idems = spec.get("idempotents", [])
        if not isinstance(idems, list):
            raise SpecError("idempotents must be a list")
        idems = [load_idempotent(idem, M.base) for idem in idems]
    except SpecError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 3
    for idx, (k, mat) in enumerate(idems):

        def one_pair(mat=mat, k=k):
            try:
                val = QH.index_pairing(M, mat, k)
            except ValueError as exc:
                return False, str(exc)
            oracle = QH.fredholm_index_oracle(M, mat, k)
            ok = (val == Scalar.from_int(oracle))
            return ok, "pairing %s, kernel/cokernel oracle %d" % (val, oracle)
        report.run("index pairing %d" % idx,
                   "cocycle pairing equals the fredholm index", one_pair)
    print(report.emit(args.emit))
    return 0 if report.ok else 2


def build_parser():
    p = argparse.ArgumentParser(prog="xchern",
                                description="exact verification suites for "
                                "noncommutative-form cocycles")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", choices=("json", "text"), default="text")
    common.add_argument("--timings", action="store_true",
                        help="include wall times (breaks byte determinism)")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: argparse.ArgumentParser(
                               parents=[common], **kw))

    d = sub.add_parser("verify-dga", help="run the form-calculus identity "
                       "suite on an algebra spec")
    d.add_argument("spec")
    d.add_argument("--max-degree", type=int, default=6)
    d.set_defaults(fn=cmd_verify_dga)

    u = sub.add_parser("universal", help="universal cocycle checks")
    u.add_argument("spec")
    u.add_argument("--n", type=int, default=0)
    u.add_argument("--parity", choices=("even", "odd"), default="even")
    u.add_argument("--window", type=int, default=3)
    u.add_argument("--src-len", type=int, default=2)
    u.add_argument("--solve", action="store_true")
    u.set_defaults(fn=cmd_universal)

    c = sub.add_parser("chern", help="bivariant character checks")
    c.add_argument("spec")
    c.add_argument("--n", type=int, default=0)
    c.add_argument("--src-len", type=int, default=2)
    c.set_defaults(fn=cmd_chern)

    jl = sub.add_parser("jlo", help="heat-kernel cochain checks")
    jl.add_argument("spec")
    jl.add_argument("--n", type=int, default=2)
    jl.add_argument("--T", type=float, default=8.0)
    jl.add_argument("--quad-order", type=int, default=10)
    jl.add_argument("--tolerance", type=float, default=1e-8)
    jl.add_argument("--require-invertible", action="store_true")
    jl.set_defaults(fn=cmd_jlo)

    pr = sub.add_parser("pair", help="index pairings against the oracle")
    pr.add_argument("spec")
    pr.set_defaults(fn=cmd_pair)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
