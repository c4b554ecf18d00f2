"""Batch front door: spec-file ingestion, verification suites, reports.

The module header imports only what load_algebra and verify-dga run
(scalars, linalg, algebra, forms).  Each loader or command that needs
another layer imports it in its own body, before any check runs, so a
command loads only the layers it runs: numpy comes in only with jlo
(spectral-triple specs and the jlo command), and verify-dga never imports
xcomplex, chern or quasihom.

Spec files are JSON with exact scalars serialized as strings ("3/4",
"1+2i", "sqrt(pi)").  Reports are deterministic: fixed check order, sorted
keys, no timestamps unless asked for.  Exit codes: 0 all checks pass, 2 a
mathematical identity failed, 3 bad input or an unrepresentable window.
"""

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from functools import partial

from . import __version__
from .scalars import ONE, parse as parse_scalar, bott_constant
from .linalg import vec_axpy, check_columns
from .algebra import (Algebra, integral_rescaling, dual_numbers,
                      matrix_units, group_algebra_z2, split_pair, rationals)
from . import forms as F


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
    if not isinstance(text, str):
        raise SpecError("a scalar must be a string, got %r" % (text,))
    try:
        return parse_scalar(text)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise SpecError("bad scalar %r: %s" % (text, exc))


def _name(spec, default):
    """The spec's name, which must be a string when it is given."""
    name = spec.get("name", default)
    if not isinstance(name, str):
        raise SpecError("name must be a string, got %r" % (name,))
    return name


def _int(value, what):
    """A JSON integer; booleans, floats and strings are turned away."""
    if type(value) is not int:
        raise SpecError("%s must be an integer, got %r" % (what, value))
    return value


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
        if not isinstance(name, str):
            raise SpecError("builtin must be a string, got %r" % (name,))
        if name not in BUILTINS:
            raise SpecError("unknown builtin algebra %r" % name)
        return BUILTINS[name]()
    names = _field(spec, "basis")
    if not (isinstance(names, list) and names
            and all(isinstance(name, str) for name in names)):
        raise SpecError("basis must be a nonempty list of names, got %r"
                        % (names,))
    try:
        if len(set(names)) != len(names):
            raise SpecError("duplicate basis name in %r" % (names,))
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
        return Algebra(names, mul, unit=unit, name=_name(spec, "algebra"))
    except ValueError as exc:
        raise SpecError("algebra rejected: %s" % exc)


def _parse_entry(entry, dim):
    """Entry over the unitalization: "unit" or a basis index below dim,
    written in canonical decimal, so that two keys cannot name one index."""
    if not isinstance(entry, dict):
        raise SpecError("matrix entry must be an object, got %r" % (entry,))
    out = {}
    for k, v in entry.items():
        if k == "unit":
            key = None
        elif k.isascii() and k.isdigit() and k == str(int(k)):
            key = int(k)
            if key >= dim:
                raise SpecError("entry key %d outside the basis of size %d"
                                % (key, dim))
        else:
            raise SpecError('entry key must be "unit" or a decimal index, '
                            "got %r" % (k,))
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


def _unique_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise SpecError("duplicate key %r in a JSON object" % key)
        out[key] = value
    return out


def load_spec(path):
    try:
        with open(path) as fh:
            spec = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SpecError("not valid JSON: %s" % exc)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError("cannot read the spec: %s" % exc)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError("spec file lacks a kind")
    return spec


def _spec_of_kind(args, *kinds):
    """The spec file of a command's args, whose kind must be one of the
    kinds that command takes."""
    spec = load_spec(args.spec)
    if spec["kind"] not in kinds:
        raise SpecError("%s expects a spec of kind %s, got %r"
                        % (args.command, " or ".join(kinds), spec["kind"]))
    return spec


def load_quasihom(spec):
    from . import quasihom as QH
    base = load_algebra(_field(spec, "base"))
    target = load_algebra(_field(spec, "target"))
    n = _positive(_field(spec, "nsize"), "nsize")
    rp = _matrices(spec, "rho_plus", base.dim, n, target.dim)
    rm = _matrices(spec, "rho_minus", base.dim, n, target.dim)
    _name(spec, "phi")
    try:
        return QH.Quasihomomorphism(base, target, n, rp, rm)
    except ValueError as exc:
        raise SpecError("quasihomomorphism rejected: %s" % exc)


def load_extension(spec):
    from . import quasihom as QH
    base = load_algebra(_field(spec, "base"))
    target = load_algebra(_field(spec, "target"))
    n = _positive(_field(spec, "nsize"), "nsize")
    alpha = _matrices(spec, "alpha", base.dim, 2 * n, target.dim)
    _name(spec, "ext")
    try:
        return QH.invertible_extension(base, target, n, alpha)
    except ValueError as exc:
        raise SpecError("extension rejected: %s" % exc)


def load_fredholm(spec):
    from . import chern as C
    base = load_algebra(_field(spec, "base"))
    parity = _int(spec.get("parity", 0), "parity")
    if parity not in (0, 1):
        raise SpecError("parity must be 0 or 1, got %d" % parity)
    n = _positive(_field(spec, "nsize"), "nsize")
    target_alg = load_algebra(spec.get("target", "q"))
    size = 2 * n if parity == 0 else n
    rho = _matrices(spec, "rho", base.dim, size, target_alg.dim)
    fmat = load_matrix(_field(spec, "F"), size, target_alg.dim)
    _name(spec, "module")
    try:
        return C.FredholmBimodule(base, target_alg, parity, rho, fmat, n)
    except ValueError as exc:
        raise SpecError("bimodule rejected: %s" % exc)


def load_idempotent(idem, base):
    """(size k, k x k matrix of (scalar, body over base indices)), checked
    to square to itself."""
    from . import quasihom as QH
    k = _positive(_field(idem, "size"), "idempotent size")
    scalars, bodies = _field(idem, "scalar"), _field(idem, "body")
    for rows in (scalars, bodies):
        _check_square(rows, k, "idempotent")
    mat = [[(_scalar(scalars[i][j]), _parse_entry(bodies[i][j], base.dim))
            for j in range(k)] for i in range(k)]
    if any(None in body for row in mat for _, body in row):
        raise SpecError("idempotent bodies are keyed by basis indices")
    if not QH.is_idempotent(base, mat):
        raise SpecError("the idempotent matrix does not square to itself")
    return k, mat


def load_complex_matrix(rows, n, what):
    """n x n matrix of [re, im] pairs of JSON numbers with finite
    entries."""
    import numpy as np
    _check_square(rows, n, what)
    # type(), not isinstance: JSON true and false are ints in Python
    if not all(isinstance(e, list) and len(e) == 2
               and all(type(x) in (int, float) for x in e)
               for row in rows for e in row):
        raise SpecError("%s entries must be [re, im] pairs of numbers"
                        % what)
    try:
        mat = np.array([[complex(e[0], e[1]) for e in row] for row in rows])
    except OverflowError as exc:
        raise SpecError("bad complex matrix: %s" % exc)
    if not np.isfinite(mat).all():
        raise SpecError("%s has a non-finite entry" % what)
    return mat


def load_spectral_triple(spec):
    """D of positive even size and one rho matrix of that size per basis
    element of the base algebra."""
    from . import jlo as J
    base = load_algebra(_field(spec, "base"))
    rows = _field(spec, "D")
    size = len(rows) if isinstance(rows, list) else 0
    if size == 0 or size % 2:
        raise SpecError("D must be a square matrix of positive even size")
    D = load_complex_matrix(rows, size, "D")
    rho = _field(spec, "rho")
    if not isinstance(rho, list) or len(rho) != base.dim:
        raise SpecError("rho must list %d matrices" % base.dim)
    rho = [load_complex_matrix(m, size, "rho matrix") for m in rho]
    try:
        return base, J.SpectralTriple(rho, D)
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
            if self.timings:
                line += "  %.1f ms" % c["wall_time_ms"]
            lines.append(line)
        lines.append("overall: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the DGA identity suite
# ---------------------------------------------------------------------------


def dga_suite(algebra, max_degree, report):
    """Check the identities of d, b, B, kappa and the Fedosov product on
    the forms of algebra up to max_degree, one report entry each.

    The forms are built over integral_rescaling(algebra), an isomorphic
    copy whose rational structure constants are ints, so a rational table
    costs no Fraction arithmetic; that docstring says why each status,
    checked and skipped count and first failing label is the algebra's
    own.

    The checks read b, B and kappa through the space's memos, and each
    memo is released after the last check that reads it: b's after the
    karoubi identity, B's and kappa's after B.kappa.  d is never memoized,
    and kappa(f) is computed where it is read, once in the karoubi
    identity and once in B.kappa, so kappa's memo holds only kappa on the
    words of B's images, filled by B.kappa.  At most two memos are alive
    at once."""
    import random
    rng = random.Random(11)
    sp = F.FormSpace(integral_rescaling(algebra), max_degree)

    def words_upto(n):
        return [w for k in range(n + 1) for w in sp.basis_words(k)]

    # the checks compose the memoized word images, flat (word, coefficient)
    # tuples, and turn one into a dict only to compare or change it
    d, b, kappa, B = F._d_word, F._b_word, F._kappa_word, F._B_word
    image, extend = partial(F._image, sp), partial(F._extend, sp)
    pairs = F._pairs

    def b_b(_, w):
        # no later column reads b on a top-degree word with a nonzero slot
        # zero, so that image is not memoized
        if len(w) > max_degree and w[0]:
            return extend(b, b(sp, w)[0].items())
        return extend(b, pairs(image(b, w)[0]))

    def B_B(_, w):
        one, lossy = image(B, w)
        return (None, True) if lossy else extend(B, pairs(one))

    def bB(_, w):
        Bf, l1 = image(B, w)
        Bbf, l2 = extend(B, pairs(image(b, w)[0]))
        if l1 or l2:
            return None, True
        return vec_axpy(extend(b, pairs(Bf))[0], ONE, Bbf), False

    def kappa_identity(_, w):
        # each image of d is one word, and kappa(f) is read once here, so
        # neither is memoized
        df, lossy = d(sp, w)
        if lossy:
            return None, True
        # f - kappa(f) - d(b(f)) - b(df)
        out = {w: ONE}
        vec_axpy(out, -ONE, kappa(sp, w)[0])
        for v, c in pairs(image(b, w)[0]):
            vec_axpy(out, -c, d(sp, v)[0])
        vec_axpy(out, -ONE, extend(b, df.items())[0])
        return out, False

    def B_kappa(_, w):
        # the first nonzero of B(kappa f) - B f and kappa(B f) - B f; the
        # sides are compared first, so a passing word subtracts nothing.
        # kappa(f) is read once, and kappa on the words of B f repeatedly
        flat, lossy = image(B, w)
        if lossy:
            return None, True
        Bf = dict(pairs(flat))
        other = extend(B, kappa(sp, w)[0].items())[0]
        if other == Bf:
            other = extend(kappa, pairs(flat))[0]
        return ({} if other == Bf else vec_axpy(other, -ONE, Bf)), False

    def fedosov_assoc(_, triple):
        f1, f2, f3 = ({w: ONE} for w in triple)
        f12, l1 = F.fedosov_full(sp, f1, f2)
        left, l2 = F.fedosov_full(sp, f12, f3)
        f23, l3 = F.fedosov_full(sp, f2, f3)
        right, l4 = F.fedosov_full(sp, f1, f23)
        if l1 or l2 or l3 or l4:
            return None, True
        return ({} if left == right else vec_axpy(left, -ONE, right)), False

    def triples():
        low = words_upto(2)
        return [tuple(rng.choice(low) for _ in range(3))
                for _ in range(200)]

    for name, anchor, column, labels, last_read in (
            ("b.b = 0", "hochschild boundary squares to zero", b_b,
             partial(words_upto, max_degree), ()),
            ("B.B = 0", "cyclic boundary squares to zero", B_B,
             partial(words_upto, max_degree - 2), ()),
            ("b.B + B.b = 0", "boundaries anticommute", bB,
             partial(words_upto, max_degree - 1), ()),
            ("1 - kappa = d.b + b.d", "karoubi operator identity",
             kappa_identity, partial(words_upto, max_degree - 1), (b,)),
            ("B.kappa = kappa.B = B", "cyclic invariance of B", B_kappa,
             partial(words_upto, max_degree - 1), (B, kappa)),
            ("fedosov associativity", "deformed product is associative",
             fedosov_assoc, triples, ())):
        report.run(name, anchor, lambda: _verdict(
            check_columns([(name, labels())], column)))
        for fn in last_read:
            sp.release(fn)


def _verdict(rep, prefix=None, tagged=False):
    """(pass, detail) of a check_columns report.  The detail of a failure
    is the repr of its first failing label, or prefix and the first three
    failing labels, with their tags if tagged."""
    fails = rep["failures"]
    if not fails:
        return True, None
    if prefix is None:
        return False, repr(fails[0][1])
    return False, "%s %s" % (prefix, [(tag, lab) if tagged else lab
                                       for tag, lab, _ in fails[:3]])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify_dga(args):
    report = Report(["verify-dga", args.spec, "--max-degree",
                     str(args.max_degree)], timings=args.timings)
    if args.max_degree < 0:
        raise SpecError("--max-degree must be at least 0")
    algebra = load_algebra(_spec_of_kind(args, "algebra"))
    dga_suite(algebra, args.max_degree, report)
    print(report.emit(args.emit))
    return 0 if report.ok else 2


def universal_suite(algebra, n, parity, q_window, src_len, report,
                    solve=False):
    from . import xcomplex as X, chern as C
    xt = X.x_of_tensor_algebra(algebra, src_len)
    osp = F.FormSpace(algebra, 2 * src_len)
    omega = X.OmegaComplex(osp)
    cmap = X.rescale_map(xt, omega)
    deg = 2 * n + parity
    qsp = F.FormSpace(algebra, q_window)
    xq = X.XGenerated(X.FedosovAlg(qsp, graded=bool(parity)),
                      exact_quotient=True)
    universal_ch = (C.universal_ch_even, C.universal_ch_odd)[parity]
    ch = universal_ch(algebra, n, xt, xq)
    scal = Fraction(1, deg + 1)
    if parity == 0:
        xr, u = xq, C.universal_bimodule_even(algebra, qsp)
    else:
        xr = X.XGenerated(X.ZekriAlg(qsp), exact_quotient=True)
        u = C.universal_bimodule_odd(algebra, qsp)
        scal = bott_constant() * scal
    chi = C.retracted_cocycle(u, deg, omega, xr)
    lhs = X.ChainMap.compose(chi, cmap)
    if parity:
        lhs = X.ChainMap.compose(C.eta_chain_map(xr, xq), lhs)
    rhs = X.ChainMap.compose(ch, C.kappa_power_sum(xt, osp, deg)).scale(scal)

    def chain_map(f, src):
        return lambda: _verdict(X.verify_chain_map(
            f, src.even_basis(), src.odd_basis()), "failures at")

    def equal(f, g):
        return lambda: _verdict(X.maps_equal(
            f, g, xt.even_basis(), xt.odd_basis()), "differs at",
            tagged=True)

    report.run("chain map: universal cocycle",
               "boundaries intertwine with the cocycle", chain_map(ch, xt))
    report.run("chain map: retracted cocycle",
               "cocycle identity against b + B", chain_map(chi, omega))
    km = X.kappa_map(xt, osp)
    power = km
    for _ in range(deg):
        power = X.ChainMap.compose(km, power)
    cyc = X.ChainMap.compose(ch, power)
    report.run("cyclicity", "invariance under the karoubi power",
               equal(cyc, ch))
    report.run("universal equality",
               "retraction of the universal bimodule matches the cocycle",
               equal(lhs, rhs))
    if solve:
        def cocycle(k):
            return ch if k == n else universal_ch(algebra, k, xt, xq)
        diff = cocycle(1).sub(cocycle(0))
        def run_solve():
            h, _ = X.homotopy_solve(diff)
            if h is None:
                return False, "no primitive"
            return _verdict(X.verify_homotopy(diff, h), "primitive fails at")
        report.run("coboundary solve", "consecutive cocycles differ by a "
                   "coboundary on the window", run_solve)


def _check_degrees(args):
    if args.n < 0 or args.src_len < 1:
        raise SpecError("--n must be at least 0 and --src-len at least 1")


def cmd_universal(args):
    command = ["universal", args.spec, "--n", str(args.n), "--parity",
               args.parity, "--window", str(args.window), "--src-len",
               str(args.src_len)]
    if args.solve:
        command.append("--solve")
    report = Report(command, timings=args.timings)
    _check_degrees(args)
    algebra = load_algebra(_spec_of_kind(args, "algebra"))
    parity = {"even": 0, "odd": 1}[args.parity]
    needed = 2 * args.n + parity + 2
    if args.window < needed:
        print("window error: need a form window of at least %d" % needed,
              file=sys.stderr)
        return 3
    universal_suite(algebra, args.n, parity, args.window,
                    args.src_len, report, solve=args.solve)
    print(report.emit(args.emit))
    return 0 if report.ok else 2


def cmd_chern(args):
    from . import xcomplex as X, chern as C, quasihom as QH
    report = Report(["chern", args.spec, "--n", str(args.n), "--src-len",
                     str(args.src_len)], timings=args.timings)
    _check_degrees(args)
    spec = _spec_of_kind(args, "quasihom", "extension")
    kind = spec["kind"]
    phi = (load_quasihom if kind == "quasihom" else load_extension)(spec)
    W = C.GammaWindows(args.src_len, args.src_len, 2 * args.n + 2, 1,
                       2 * args.src_len + 2 * args.n + 2)
    ch = QH.character(phi, args.n, W, kind == "extension")
    even, odd = ch.source.even_basis(), ch.source.odd_basis()
    sides = (("even", even), ("odd", odd))
    report.run("chain map: bivariant character",
               "boundaries intertwine through the lift and trace",
               lambda: _verdict(X.verify_chain_map(ch, even, odd),
                                "failures at"))
    if phi.is_degenerate():
        def vanishing(tag, lab):
            # lossy columns count too: a degenerate character is zero
            col = ch.odd_col if tag == "odd" else ch.even_col
            return col(lab)[0], False
        report.run("degenerate vanishing", "character of a degenerate "
                   "element is zero",
                   lambda: _verdict(check_columns(sides, vanishing)))
    if kind == "quasihom":
        ch_swap = QH.character(phi.swap(), args.n, W, False)

        def antisymmetry(_, lab):
            v1, l1 = ch.even_col(lab)
            v2, l2 = ch_swap.even_col(lab)
            if l1 or l2:
                return None, True
            return vec_axpy(v1, ONE, v2), False
        report.run("swap antisymmetry", "exchanging the pair negates the "
                   "character",
                   lambda: _verdict(check_columns(sides[:1], antisymmetry)))
    print(report.emit(args.emit))
    return 0 if report.ok else 2


def _within(residuals, tol):
    """(pass, detail) for the worst residual; NaN or inf never passes."""
    import numpy as np
    worst = float(np.max(residuals))
    return bool(worst <= tol), "residual %.3e" % worst


def cmd_jlo(args):
    from . import jlo as J
    report = Report(["jlo", args.spec, "--n", str(args.n), "--T",
                     str(args.T), "--quad-order", str(args.quad_order),
                     "--tolerance", str(args.tolerance)],
                    timings=args.timings)
    if args.n < 0 or not 0 < args.T < math.inf:
        raise SpecError("--n must be at least 0 and --T finite and positive")
    if not 0 <= args.tolerance < math.inf:
        raise SpecError("--tolerance must be finite and at least 0")
    algebra, triple = load_spectral_triple(
        _spec_of_kind(args, "spectral_triple"))
    # the retraction folds cs on the n + 1 letters of its B terms (n is --n
    # rounded down to even): n + 2 insertions, the largest word any check
    # folds
    if not J.fold_fits(triple.dim, args.n - args.n % 2 + 3):
        raise SpecError("--n %d would fold arrays over %d MiB on a triple of "
                        "dimension %d" % (args.n, J.FOLD_CAP_BYTES >> 20,
                                          triple.dim))
    if args.require_invertible and not triple.invertible_square:
        print("window error: D^2 is not invertible", file=sys.stderr)
        return 3
    tol = args.tolerance

    def tuple_of(n):
        return ((0.0, 0),) + tuple(i % algebra.dim for i in range(n))

    def b_plus_B(cochain, tup, t):
        """(b + B) of a cochain family at t on a tuple of n letters: the
        degree n - 1 member reads the b terms, n + 1 the B terms."""
        n = len(tup) - 1
        out = 0.0
        for c, tt in J.tuple_b(algebra, tup):
            out += c * cochain(triple, n - 1, t, tt)
        for c, tt in J.tuple_B(tup):
            out += c * cochain(triple, n + 1, t, tt)
        return out

    def cocycle_check():
        return _within([abs(b_plus_B(J.jlo_component, tuple_of(n), 0.9))
                        for n in range(0, args.n + 1)], tol)

    def transgression_check():
        h = 1e-5
        residuals = []
        for n in range(0, min(args.n, 2) + 1):
            tup = tuple_of(n)
            dchi = (J.jlo_component(triple, n, 0.8 + h, tup)
                    - J.jlo_component(triple, n, 0.8 - h, tup)) / (2 * h)
            residuals.append(abs(dchi - b_plus_B(J.cs_component, tup, 0.8)))
        return _within(residuals, max(tol, 1e-6))

    def retraction_check():
        if not triple.invertible_square:
            return True, "skipped: D^2 not invertible"
        Fop = J.interpolate_Du(triple, 1.0)
        n = args.n if args.n % 2 == 0 else args.n - 1
        tup = tuple_of(n)
        vT = J.chi_hat_T(triple, n, args.T, tup, t_order=20)
        vI = J.chi_hat_infty_exact(Fop, n, tup)
        return _within([abs(vT - vI)], max(tol, 1e-6))

    report.run("cocycle identity", "heat cochain is closed against b + B",
               cocycle_check)
    report.run("transgression", "t-derivative matches the transgression "
               "cochain", transgression_check)
    report.run("retraction limit", "finite-time retraction reaches the "
               "bounded symbol values", retraction_check)
    print(report.emit(args.emit))
    return 0 if report.ok else 2


def cmd_pair(args):
    from . import quasihom as QH
    report = Report(["pair", args.spec], timings=args.timings)
    spec = _spec_of_kind(args, "fredholm")
    if spec.get("target", "q") != "q":
        # fredholm_index_oracle reads basis 0 of the target as its unit
        raise SpecError("pair needs the target q, got %r" % (spec["target"],))
    M = load_fredholm(spec)
    if M.parity:
        raise SpecError("pair needs an even bimodule (parity 0)")
    idems = spec.get("idempotents", [])
    if not isinstance(idems, list):
        raise SpecError("idempotents must be a list")
    if not idems:
        raise SpecError("pair needs at least one idempotent")
    idems = [load_idempotent(idem, M.base) for idem in idems]
    for idx, (k, mat) in enumerate(idems):

        def one_pair(mat=mat, k=k):
            try:
                val = QH.index_pairing(M, mat, k)
            except ValueError as exc:
                return False, str(exc)
            oracle = QH.fredholm_index_oracle(M, mat, k)
            ok = (val == oracle)
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
    jl.add_argument("--quad-order", type=int, default=10,
                    help="accepted and echoed in the report; no effect, "
                    "the simplex integrals are evaluated in closed form")
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
