"""The three workloads: which checks run, in which order, and the verdict
each one must reach.

A case is one command of a closed loop: it starts when the previous verdict
is in.  Cases the CLI can express run through ``xchern.cli.main`` with
``--emit json``; the verdict oracle compares check names and statuses from
the report (never report bytes).  The rest call the library.  Every
workload carries negative controls, so a program that always answers
"pass" scores errors.

Why these inputs:

* cocycles -- the exact cocycle side on the sparse +-1 corpus.  The
  universal runs (even n = 0, 1 on dual and qq, odd window 3 on dual with
  the Bott normalization, the even window-3 coboundary solve), the gamma^2
  order certificate, the bivariant character and the index pairing spend
  their time in XGenerated.relations -> FastSpan -> integer Scalar
  arithmetic.  The forms layer is light and jlo is idle.
* dga -- the form-calculus identity suite at degree 6 on the four corpus
  algebras and on seeded rational changes of basis of them.  The rebased
  tables are dense with non-integer rationals, so the same scalar and forms
  layers see dense rationals here and sparse integers on cocycles.
  xcomplex, linalg and jlo are idle.  The rebased m2 runs at degree 3: its
  dense table makes degree 4 about eight times as costly as degree 3.
* heat -- the heat-kernel cochains in floating point on the 2x2 corpus
  triple, the 4x4 toy triple of the jlo tests and a seeded 4x4 triple:
  cocycle identity for n <= 4, transgression, T = 8 retraction.  numpy
  quadrature in jlo does all the work; the exact layers make no calls.
"""

UNIVERSAL = ["chain map: universal cocycle", "chain map: retracted cocycle",
             "cyclicity", "universal equality"]
DGA = ["b.b = 0", "B.B = 0", "b.B + B.b = 0", "1 - kappa = d.b + b.d",
       "B.kappa = kappa.B = B", "fedosov associativity"]
JLO = ["cocycle identity", "transgression", "retraction limit"]

REBASED_M2_DEGREE = 3
HEAT_TOLERANCE = 1e-8       # the CLI's default --tolerance
TRANSGRESSION_TOLERANCE = 1e-6
QUAD_ORDER = 10             # the CLI's default --quad-order


class Cli:
    """One xchern command; expect lists (check name, status) in order."""

    def __init__(self, argv, expect, exit_code=None):
        self.argv = argv
        self.expect = expect
        if exit_code is None:
            exit_code = 0 if all(s == "pass" for _, s in expect) else 2
        self.exit_code = exit_code
        self.label = " ".join(argv[:1] + [a.rsplit("/", 1)[-1]
                                          for a in argv[1:]])

    @property
    def operations(self):
        return max(1, len(self.expect))


class Lib:
    """A check the CLI cannot express; fn(ctx) returns its status."""

    def __init__(self, label, fn, expect="pass"):
        self.label = label
        self.fn = fn
        self.expect = expect

    operations = 1


def passing(names):
    return [(n, "pass") for n in names]


def spec_names(workload):
    """Specs the workload loads and certifies during set-up."""
    return {
        "cocycles": ["dual", "qq", "idqh", "fredholm"],
        "dga": ["dual", "m2", "z2", "qq", "dual-rebased", "z2-rebased",
                "qq-rebased", "m2-rebased"],
        "heat": ["triple2x2", "toy4", "seeded4"],
    }[workload]


def cases(man):
    return {"cocycles": _cocycles, "dga": _dga, "heat": _heat}[
        man["workload"]](man)


# ---------------------------------------------------------------------------
# cocycles
# ---------------------------------------------------------------------------


def _cocycles(man):
    s = man["specs"]
    out = []
    for n, window, src_len in ((0, 2, 2), (1, 4, 3)):
        for alg in ("dual", "qq"):
            out.append(Cli(["universal", s[alg], "--n", str(n), "--parity",
                            "even", "--window", str(window), "--src-len",
                            str(src_len)], passing(UNIVERSAL)))
    out.append(Cli(["universal", s["dual"], "--n", "0", "--parity", "odd",
                    "--window", "3"], passing(UNIVERSAL)))
    out.append(Cli(["universal", s["dual"], "--n", "0", "--parity", "even",
                    "--window", "3", "--solve"],
                   passing(UNIVERSAL + ["coboundary solve"])))
    out.append(Lib("gamma^2 order certificate", _gamma2_order))
    out.append(Cli(["chern", s["idqh"]],
                   passing(["chain map: bivariant character",
                            "swap antisymmetry"])))
    out.append(Cli(["pair", s["fredholm"]],
                   passing(["index pairing %d" % i for i in range(3)])))
    sw = man["controls"]["short_window"]
    out.append(Cli(["universal", s[sw["algebra"]], "--n", str(sw["n"]),
                    "--parity", sw["parity"], "--window", str(sw["window"])],
                   [], exit_code=3))
    out.append(Lib("perturbed map: maps_equal",
                   lambda ctx: _perturbed(ctx, "maps_equal"), expect="fail"))
    out.append(Lib("perturbed map: verify_chain_map",
                   lambda ctx: _perturbed(ctx, "verify_chain_map"),
                   expect="fail"))
    return out


def _gamma2_order(ctx):
    from xchern import forms as F, xcomplex as X, chern as C
    alg = ctx.algebras["dual"]
    W = C.GammaWindows(src_len=6, mid_len=6, q_inner_deg=3, q_letter_deg=1,
                       out_len=10)
    g2, parts = C.gamma_even(alg, 1, W)
    filt = X.TensorIdealFiltration(parts["xtq"],
                                   lambda lett: (len(lett) - 1) >= 1)
    osp = F.FormSpace(alg, 5)

    def src_basis(m):
        ev, od = X.hodge_filtration(osp, m, xtensor=parts["xt"])
        return ev.basis(), od.basis()

    ok, _ = X.order_certificate(g2, src_basis, filt, 2, [0, 1, 2, 3])
    return "pass" if ok else "fail"


def perturbed_map(ctx):
    """The even universal cocycle on dual (n = 0, window 2) and a copy with
    c * t added to one even column.  The column is one the checks do not
    skip for loss, and t is a target label with a nonzero lossless
    boundary, so the copy is neither equal to the cocycle nor a chain map."""
    if ctx.perturbed is not None:
        return ctx.perturbed
    from xchern import forms as F, xcomplex as X, chern as C
    from xchern.scalars import ONE, parse
    alg = ctx.algebras["dual"]
    xt = X.x_of_tensor_algebra(alg, 2)
    xq = X.XGenerated(X.FedosovAlg(F.FormSpace(alg, 2)), exact_quotient=True)
    ch = C.universal_ch_even(alg, 0, xt, xq)
    targets = []
    for t in xq.even_basis():
        v, lossy = xq.bdry_even({t: ONE})
        if v and not lossy:
            targets.append(t)
    columns = []
    for lab in xt.even_basis():
        fcol, lf = ch.even_col(lab)
        dsrc, ls = xt.bdry_even({lab: ONE})
        if lf or ls or xq.bdry_even(fcol)[1] or ch.apply_odd(dsrc)[1]:
            continue
        columns.append(lab)
    p = ctx.manifest["controls"]["perturbed_map"]
    lab = columns[p["column"] % len(columns)]
    t = targets[p["target"] % len(targets)]
    bump = X.ChainMap.from_columns(xt, xq, 0, {lab: {t: parse(p["coeff"])}},
                                   {})
    ctx.perturbed = (ch.add(bump), ch, xt)
    return ctx.perturbed


def _perturbed(ctx, which):
    from xchern import xcomplex as X
    bad, good, xt = perturbed_map(ctx)
    if which == "maps_equal":
        rep = X.maps_equal(bad, good, xt.even_basis(), xt.odd_basis())
    else:
        rep = X.verify_chain_map(bad, even_labels=xt.even_basis(),
                                 odd_labels=xt.odd_basis())
    return "pass" if rep["ok"] else "fail"


# ---------------------------------------------------------------------------
# dga
# ---------------------------------------------------------------------------


def _dga(man):
    s = man["specs"]
    out = []
    for name in ("dual", "m2", "z2", "qq", "dual-rebased", "z2-rebased",
                 "qq-rebased"):
        out.append(Cli(["verify-dga", s[name], "--max-degree", "6"],
                       passing(DGA)))
    out.append(Cli(["verify-dga", s["m2-rebased"], "--max-degree",
                    str(REBASED_M2_DEGREE)], passing(DGA)))
    out.append(Cli(["verify-dga", s["nonassociative"]], [], exit_code=3))
    return out


# ---------------------------------------------------------------------------
# heat
# ---------------------------------------------------------------------------


def _heat(man):
    s = man["specs"]
    out = []
    for name in ("triple2x2", "toy4", "seeded4"):
        out.append(Cli(["jlo", s[name], "--n", "2"], passing(JLO)))
        out.append(Lib("cocycle identity n = 3, 4 on %s" % name,
                       lambda ctx, name=name: _heat_cocycle(ctx, name)))
    out.append(Lib("sign-flipped transgression", _flipped_transgression,
                   expect="fail"))
    return out


def _heat_cocycle(ctx, name):
    """b chi^{n-1} + B chi^{n+1} = 0 at n = 3, 4 on seeded letters, the
    degrees the CLI's --n 2 run leaves out."""
    from xchern import jlo as J
    alg, triple = ctx.triples[name]
    letters = ctx.manifest["letters"]
    worst = 0.0
    for n in (3, 4):
        tup = ((0.0, letters[0]),) + tuple(letters[1:n + 1])
        lhs = 0.0
        for c, tt in J.tuple_b(alg, tup):
            lhs += c * J.jlo_component(triple, n - 1, 0.9, tt,
                                       order=QUAD_ORDER)
        for c, tt in J.tuple_B(tup):
            lhs += c * J.jlo_component(triple, n + 1, 0.9, tt,
                                       order=QUAD_ORDER)
        worst = max(worst, abs(lhs))
    return "pass" if worst <= HEAT_TOLERANCE else "fail"


def transgression_residual(triple, slot, sign):
    """|d/dt chi^0 - sign * B cs^1| at t = 0.8 on the tuple ((0, slot),).
    sign = 1 is the identity; sign = -1 flips it."""
    from xchern import jlo as J
    h, t = 1e-5, 0.8
    tup = ((0.0, slot),)
    dchi = (J.jlo_component(triple, 0, t + h, tup, order=QUAD_ORDER)
            - J.jlo_component(triple, 0, t - h, tup, order=QUAD_ORDER)) \
        / (2 * h)
    rhs = 0.0
    for c, tt in J.tuple_B(tup):
        rhs += c * J.cs_component(triple, 1, t, tt, order=QUAD_ORDER)
    return abs(dchi - sign * rhs)


def _flipped_transgression(ctx):
    p = ctx.manifest["controls"]["flipped_transgression"]
    _, triple = ctx.triples[p["triple"]]
    res = transgression_residual(triple, p["slot"], -1)
    return "pass" if res <= TRANSGRESSION_TOLERANCE else "fail"


def total_operations(case_list):
    return sum(c.operations for c in case_list)
