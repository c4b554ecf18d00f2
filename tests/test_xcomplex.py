import random

import pytest

from xchern.scalars import Scalar, ZERO, ONE
from xchern.linalg import vec_axpy, Span
from xchern.algebra import (rationals, multiply, dual_numbers, matrix_units,
                            group_algebra_z2, split_pair, matrix_algebra)
from xchern.forms import FormSpace, Form, kappa, b as formb, connes_B
from xchern import forms as F
from xchern import tensoralg as T
from xchern.xcomplex import (build_X, XGenerated, FedosovAlg, ZekriAlg,
                             TensorAlg, TableAlg, MatrixAlg,
                             OmegaComplex, verify_dd, ChainMap,
                             verify_chain_map, verify_homotopy, maps_equal,
                             homotopy_solve,
                             hodge_filtration, adic_filtration,
                             TensorIdealFiltration, order_certificate,
                             x_of_tensor_algebra, xt_even_to_form,
                             xt_odd_to_form, form_to_xt_even, form_to_xt_odd,
                             kappa_map, rescale_map, rescale_c, x_of_hom)
from xchern.chern import d_chain_map, identity_map, ideal_power_like


def test_x_of_scalars():
    xq = build_X(rationals())
    assert xq.odd_basis() == []


def test_x_small_commutator(dual):
    xa = build_X(dual)
    v, _ = xa.bdry_odd(xa.canonical_odd({(1, 1): ONE}))
    assert v == {}


def test_dd_zero_small(corpus_algebras, dual):
    graded_m2 = matrix_algebra(dual, 2, graded=True)
    for alg in list(corpus_algebras) + [graded_m2]:
        for graded in (False, True):
            checked, fails = verify_dd(build_X(alg, graded=graded))
            assert not fails and checked > 0, (alg.name, graded)


def test_dd_zero_generated(dual):
    sp = FormSpace(dual, 3)
    for cx in (XGenerated(FedosovAlg(sp), exact_quotient=True),
               XGenerated(FedosovAlg(sp, graded=True), graded=True,
                          exact_quotient=True),
               XGenerated(ZekriAlg(FormSpace(dual, 2)), exact_quotient=True),
               x_of_tensor_algebra(dual, 3)):
        checked, fails = verify_dd(cx)
        assert not fails and checked > 0, cx.name


def test_super_anticommutator(dual):
    sp = FormSpace(dual, 3)
    xqs = XGenerated(FedosovAlg(sp, graded=True), graded=True,
                     exact_quotient=True)
    deps = (0, 1)
    v, _ = xqs.bdry_odd(xqs.canonical_odd({(deps, deps): ONE}))
    assert v == {(0, 1, 1): Scalar.from_int(2)}


def test_tensor_boundaries(dual):
    xt = x_of_tensor_algebra(dual, 3)
    v, _ = xt.bdry_even({(0, 1): ONE})
    assert v == {((1,), (0,)): ONE, ((0,), (1,)): ONE}
    v2, _ = xt.bdry_odd({((0,), (1,)): ONE})
    assert v2 == {(0, 1): ONE, (1, 0): -ONE}
    v3, _ = xt.bdry_even({(0,): ONE})
    assert v3 == {(None, (0,)): ONE}


def test_free_tensor_has_no_interior_relations(dual):
    xt = XGenerated(TensorAlg(TableAlg(dual), 3), exact_quotient=True)
    for piv, row in xt.relations().rows.items():
        sizes = {(0 if z is None else len(z)) + 1 for (z, g) in row}
        assert max(sizes) > 3  # only truncation-edge classes


def test_forms_correspondence_roundtrip(dual):
    xt = x_of_tensor_algebra(dual, 3)
    sp = FormSpace(dual, 6)
    for w in [((0,),), ((0,), (1,))]:
        pass
    for w in [(0,), (0, 1), (1, 1, 0)]:
        f = xt_even_to_form({w: ONE}, sp)
        assert form_to_xt_even(sp, f.coeffs, xt) == {w: ONE}
    for lab in [(None, (0,)), ((0,), (1,)), ((0, 1), (0,))]:
        f = xt_odd_to_form({lab: ONE}, sp)
        assert form_to_xt_odd(sp, f.coeffs, xt) == {lab: ONE}


# algebra and form window; window 2 already shows the quotient
HODGE_ALGEBRAS = {
    "dual": (dual_numbers, 4),
    "m2": (lambda: matrix_units(2), 2),
    "z2": (group_algebra_z2, 2),
    "qq": (split_pair, 2),
    "M2(dual)": (lambda: matrix_algebra(dual_numbers(), 2), 2),
}


@pytest.mark.parametrize("name", list(HODGE_ALGEBRAS))
def test_hodge_quotient_is_x_of_algebra(name):
    # the level-1 quotient of the tensor complex is the X-complex itself
    make, window = HODGE_ALGEBRAS[name]
    alg = make()
    sp = FormSpace(alg, window)
    ev, od = hodge_filtration(sp, 1)
    dim_even_quot = sum(sp.dim_degree(n)
                        for n in range(0, window + 1, 2)) - ev.dim
    dim_odd_quot = sum(sp.dim_degree(n)
                       for n in range(1, window + 1, 2)) - od.dim
    assert dim_even_quot == alg.dim
    assert dim_odd_quot == len(build_X(alg).odd_basis())


def test_hodge_nesting(dual):
    sp = FormSpace(dual, 4)
    prev = None
    for m in range(0, 4):
        ev, od = hodge_filtration(sp, m)
        if prev is not None:
            for row in ev.basis():
                assert prev[0].contains(row)
            for row in od.basis():
                assert prev[1].contains(row)
        prev = (ev, od)


def test_adic_filtration_q(dual):
    sp = FormSpace(dual, 3)
    alg = FedosovAlg(sp)
    xq = XGenerated(alg, exact_quotient=True)
    gens = [{(0, i): ONE} for i in range(dual.dim)]
    powers = {k: ideal_power_like(alg, gens, k) for k in (1, 2, 3)}
    levels = {m: adic_filtration(xq, powers, m) for m in range(0, 4)}
    # decreasing subcomplexes
    for m in range(1, 4):
        ev, od = levels[m]
        pev, pod = levels[m - 1]
        for row in ev.basis():
            assert pev.contains(row)
        for row in od.basis():
            assert pod.contains(row)
    # boundaries preserve each level where representable
    for m in range(0, 3):
        ev, od = levels[m]
        for row in ev.basis():
            img, loss = xq.bdry_even(row)
            if not loss:
                assert od.contains(img), m
        for row in od.basis():
            img, loss = xq.bdry_odd(row)
            if not loss:
                assert ev.contains(img), m


def test_ideal_power_degree_observation(dual):
    # whether (qA)^n equals all window forms of degree >= n is recorded,
    # not assumed; on this window the spans coincide
    sp = FormSpace(dual, 3)
    alg = FedosovAlg(sp)
    gens = [{(0, i): ONE} for i in range(dual.dim)]
    p2 = ideal_power_like(alg, gens, 2)
    degree_span = Span()
    for n in range(2, 4):
        for w in sp.basis_words(n):
            degree_span.add({w: ONE})
    contained = all(degree_span.contains(row) for row in p2.basis())
    assert contained
    assert p2.dim == degree_span.dim  # observed equality on this window


def test_rescale(dual):
    sp = FormSpace(dual, 5)
    f = Form(sp, {(1,): ONE, (1, 0): ONE, (1, 0, 1): ONE,
                  (1, 0, 1, 0): ONE, (1, 0, 1, 0, 1): ONE})
    out = rescale_c(f)
    assert out.coeffs[(1,)] == ONE
    assert out.coeffs[(1, 0)] == ONE
    assert out.coeffs[(1, 0, 1)] == -ONE
    assert out.coeffs[(1, 0, 1, 0)] == -ONE
    assert out.coeffs[(1, 0, 1, 0, 1)] == Scalar.from_int(2)


def test_x_of_hom_is_chain_map(dual):
    # the letterwise doubling homomorphism induces a chain map
    xt = x_of_tensor_algebra(dual, 2)
    from xchern.chern import x_of_t_branch
    from xchern.xcomplex import FedosovAlg
    xtq = XGenerated(TensorAlg(FedosovAlg(FormSpace(dual, 1)), 3))
    ti = x_of_t_branch(xt, xtq, ONE, "X(Ti)")
    rep = verify_chain_map(ti)
    assert rep["ok"] and rep["checked"] > 0


def test_d_is_chain_map_on_super(dual):
    xqs = XGenerated(FedosovAlg(FormSpace(dual, 3), graded=True),
                     graded=True, exact_quotient=True)
    dm = d_chain_map(xqs)
    rep = verify_chain_map(dm)
    assert rep["ok"], rep["failures"][:3]


def test_zero_map_has_every_order(dual):
    xt = x_of_tensor_algebra(dual, 2)
    zero = ChainMap.zero(xt, xt)
    filt = TensorIdealFiltration(xt, lambda lett: False)
    sp = FormSpace(dual, 4)
    def src_basis(m):
        ev, od = hodge_filtration(sp, m, xtensor=xt)
        return ev.basis(), od.basis()
    for shift in (0, 1, 5):
        ok, _ = order_certificate(zero, src_basis, filt, shift, [0, 1])
        assert ok


def _random_coboundary(dual):
    """bdry g - g bdry for a random even cochain g; returns (f, xt, xq)."""
    rng = random.Random(3)
    xt = x_of_tensor_algebra(dual, 2)
    xq = XGenerated(FedosovAlg(FormSpace(dual, 2)), exact_quotient=True)
    tgt_even = xq.even_basis()
    tgt_odd = xq.odd_basis()
    ge = {lab: {rng.choice(tgt_even): ONE}
          for lab in xt.even_basis() if rng.random() < 0.6}
    go = {lab: {tuple(rng.choice(tgt_odd)): ONE}
          for lab in xt.odd_basis() if rng.random() < 0.6}
    g = ChainMap.from_columns(xt, xq, 0, ge, go)

    def efn(lab):
        gcol, _ = g.even_col(lab)
        v1, l2 = xq.bdry_even(gcol)
        dsrc, l3 = xt.bdry_even({lab: ONE})
        v2, l4 = g.apply_odd(dsrc)
        out = dict(v1)
        vec_axpy(out, -ONE, v2)
        return out, l2 or l3 or l4

    def ofn(lab):
        gcol, _ = g.odd_col(lab)
        v1, l2 = xq.bdry_odd(gcol)
        dsrc, l3 = xt.bdry_odd({lab: ONE})
        v2, l4 = g.apply_even(dsrc)
        out = dict(v1)
        vec_axpy(out, -ONE, v2)
        return out, l2 or l3 or l4

    return ChainMap(xt, xq, 1, efn, ofn), xt, xq


def test_homotopy_solve_recovers_coboundary(dual):
    f, _, _ = _random_coboundary(dual)
    h, witness = homotopy_solve(f)
    assert h is not None
    rep = verify_homotopy(f, h)
    assert rep["ok"] and rep["checked"] > 0


def test_verify_homotopy_rejects_a_changed_coefficient(dual):
    f, xt, xq = _random_coboundary(dual)
    h, _ = homotopy_solve(f)
    even_cols = {lab: h.even_col(lab)[0] for lab in xt.even_basis()}
    odd_cols = {lab: h.odd_col(lab)[0] for lab in xt.odd_basis()}
    # bump one coefficient of h at a target label with a nonzero boundary
    lab = xt.even_basis()[0]
    t = next(t for t in xq.even_basis() if xq.bdry_even({t: ONE})[0])
    col = even_cols.setdefault(lab, {})
    col[t] = col.get(t, ZERO) + ONE
    bad = ChainMap.from_columns(xt, xq, h.parity, even_cols, odd_cols)
    rep = verify_homotopy(f, bad)
    assert not rep["ok"]
    assert ("even", lab) in [(side, l) for side, l, _ in rep["failures"]]


def test_homotopy_solve_obstruction():
    # the identity on X(Q): Q <-> 0 has homology Q, no primitive exists
    xq = build_X(rationals())
    f = identity_map(xq)
    h, witness = homotopy_solve(f, track_witness=True)
    assert h is None
    assert witness


def test_c_intertwines_on_cyclic_image(dual):
    # c . (boundary of X(T)) = (b + B) . c on the image of the projection
    sp = FormSpace(dual, 4)
    xt = x_of_tensor_algebra(dual, 3)
    omega = OmegaComplex(sp)
    cm = rescale_map(xt, omega)
    from xchern.forms import cyclic_projection, apply_columns
    for n in range(0, 4):
        P = cyclic_projection(sp, n)
        for w in sp.basis_words(n):
            pw = Form(sp, P[w])
            vec = (form_to_xt_even(sp, pw.coeffs, xt) if n % 2 == 0
                   else form_to_xt_odd(sp, pw.coeffs, xt))
            if n % 2 == 0:
                dvec, l1 = xt.bdry_even(vec)
                lhs, l2 = cm.apply_odd(dvec)
            else:
                dvec, l1 = xt.bdry_odd(vec)
                lhs, l2 = cm.apply_even(dvec)
            bB = formb(rescale_c(pw)) + connes_B(rescale_c(pw))
            if l1 or l2 or bB.lossy:
                continue
            assert lhs == bB.coeffs, (n, w)


def test_order_subadditivity(dual):
    # order(f . g) <= order(f) + order(g) on a tested pair
    from xchern.chern import GammaWindows, gamma_even
    W = GammaWindows(src_len=3, mid_len=3, q_inner_deg=3, q_letter_deg=1,
                     out_len=8)
    g2, parts = gamma_even(dual, 1, W)
    xt = parts["xt"]
    sp = FormSpace(dual, 5)
    km = kappa_map(xt, sp)
    comp = ChainMap.compose(g2, km)
    filt = TensorIdealFiltration(parts["xtq"],
                                 lambda lett: (len(lett) - 1) >= 1)
    def src_basis(m):
        ev, od = hodge_filtration(sp, m, xtensor=xt)
        return ev.basis(), od.basis()
    ok, info = order_certificate(comp, src_basis, filt, 2, [0, 1])
    assert ok, info


def test_order_of_map_smallest(dual):
    from xchern.chern import GammaWindows, gamma_even
    from xchern.xcomplex import order_of_map
    W = GammaWindows(src_len=4, mid_len=4, q_inner_deg=3, q_letter_deg=1,
                     out_len=9)
    g2, parts = gamma_even(dual, 1, W)
    filt = TensorIdealFiltration(parts["xtq"],
                                 lambda lett: (len(lett) - 1) >= 1)
    sp = FormSpace(dual, 3)

    def src_basis(m):
        ev, od = hodge_filtration(sp, m, xtensor=parts["xt"])
        return ev.basis(), od.basis()

    n = order_of_map(g2, src_basis, filt, [0, 1])
    assert n is not None and n <= 2
