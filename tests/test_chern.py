import pytest

from xchern.scalars import (Scalar, ZERO, ONE, bott_constant,
                            parse as parse_scalar)
from xchern.linalg import vec_axpy
from xchern.forms import FormSpace
from xchern import forms as F
from xchern.xcomplex import (XGenerated, FedosovAlg, ZekriAlg, OmegaComplex,
                             x_of_tensor_algebra, rescale_map, kappa_map,
                             verify_chain_map, maps_equal, ChainMap,
                             hodge_filtration, TensorIdealFiltration,
                             order_certificate, adic_filtration)
from xchern.chern import (universal_ch_even, universal_ch_odd,
                          universal_bimodule_even, universal_bimodule_odd,
                          retracted_cocycle, kappa_power_sum, d_chain_map,
                          eta_chain_map, gamma_even, gamma_composite,
                          GammaWindows, x_of_t_branch, FredholmBimodule,
                          mat_unit)
from xchern.tensoralg import ideal_power

import xreference


def _setting_even(algebra, src_len, window):
    xt = x_of_tensor_algebra(algebra, src_len)
    osp = FormSpace(algebra, 2 * src_len)
    omega = OmegaComplex(osp)
    cmap = rescale_map(xt, omega)
    qsp = FormSpace(algebra, window)
    xq = XGenerated(FedosovAlg(qsp), exact_quotient=True)
    return xt, osp, omega, cmap, qsp, xq


def test_ch0_values(dual):
    xt, osp, omega, cmap, qsp, xq = _setting_even(dual, 2, 2)
    ch0 = universal_ch_even(dual, 0, xt, xq)
    # ch^0(a) = q(a) = 2 da; tensor letters are algebra basis indices
    v, _ = ch0.even_col((1,))
    assert v == {(0, 1): Scalar.from_int(2)}
    v0, _ = ch0.even_col((0,))
    assert v0 == {(0, 0): Scalar.from_int(2)}
    # vanishing off the matching degrees: words of length 2 have no
    # degree-0 slot contribution beyond their degree-0 component
    v2, _ = ch0.even_col((1, 1))
    assert v2 == {}   # eps (x) eps has no degree-0 part over the duals


def test_ch2_value(dual):
    xt, osp, omega, cmap, qsp, xq = _setting_even(dual, 3, 3)
    ch2 = universal_ch_even(dual, 1, xt, xq)
    # ch^2 on eps d eps d eps: (1/2) q(eps)^3 = 4 d eps d eps d eps
    from xchern.tensoralg import from_forms
    vec, _ = from_forms(FormSpace(dual, 6), {(2, 1, 1): ONE}, 3)
    out = {}
    loss = False
    for w, c in vec.items():
        col, l = ch2.even_col(w)
        loss = loss or l
        vec_axpy(out, c, col)
    assert not loss
    assert out == {(0, 1, 1, 1): Scalar.from_int(4)}


def test_universal_even_chain_map_and_cyclicity(dual, qq):
    for algebra in (dual, qq):
        for n, src_len, window in ((0, 2, 2), (1, 3, 4)):
            xt, osp, omega, cmap, qsp, xq = _setting_even(
                algebra, src_len, window)
            ch = universal_ch_even(algebra, n, xt, xq)
            rep = verify_chain_map(ch)
            assert rep["ok"] and rep["checked"] > 0, (algebra.name, n)
            km = kappa_map(xt, osp)
            power = km
            for _ in range(2 * n):
                power = ChainMap.compose(km, power)
            rep2 = maps_equal(ChainMap.compose(ch, power), ch,
                              xt.even_basis(), xt.odd_basis())
            assert rep2["ok"], (algebra.name, n)


def test_universal_even_filtration_ranges(dual):
    n = 1
    xt, osp, omega, cmap, qsp, xq = _setting_even(dual, 3, 4)
    ch = universal_ch_even(dual, n, xt, xq)
    # vanishing on the source level 2n+1 of the kernel-adic filtration
    ev, od = hodge_filtration(osp, 2 * n + 1, xtensor=xt)
    for row in ev.basis():
        img, loss = ch.apply_even(row)
        assert not loss and not img
    for row in od.basis():
        img, loss = ch.apply_odd(row)
        assert not loss and not img
    # range inside the target level 4n of the free-product ideal
    gens = [{(0, i): ONE} for i in range(dual.dim)]
    powers = {k: ideal_power(xq.alg, gens, k) for k in (1, 2, 3)}
    ev4, od4 = adic_filtration(xq, powers, 4 * n)
    for lab in xt.even_basis():
        img, loss = ch.even_col(lab)
        if not loss and img:
            assert ev4.contains(img), lab
    for lab in xt.odd_basis():
        img, loss = ch.odd_col(lab)
        if not loss and img:
            assert od4.contains(img), lab


def test_u0_commutator(dual):
    qsp = FormSpace(dual, 2)
    u0 = universal_bimodule_even(dual, qsp)
    comm, _ = u0.commutator(1)
    q = {(0, 1): Scalar.from_int(2)}
    assert comm[0][1] == {k: -v for k, v in q.items()}
    assert comm[1][0] == q
    assert not u0.is_degenerate()


def test_retracted_cocycle_values(dual, qq):
    # difference of the two representations on the degree-0 slot
    from xchern.algebra import rationals
    xb = XGenerated(rationals(), exact_quotient=True)
    rho = [
        [[{0: ONE}, {}], [{}, {}]],
        [[{}, {}], [{}, {0: ONE}]],
    ]
    fm = [[{}, {None: ONE}], [{None: ONE}, {}]]
    M = FredholmBimodule(qq, rationals(), 0, rho, fm, 1)
    omega = OmegaComplex(FormSpace(qq, 2))
    chi0 = retracted_cocycle(M, 0, omega, xb)
    v, _ = chi0.even_col((1,))
    assert v == {0: ONE}
    v2, _ = chi0.even_col((2,))
    assert v2 == {0: -ONE}


def test_degenerate_bimodule_vanishes(dual):
    from xchern.algebra import rationals
    xb = XGenerated(rationals(), exact_quotient=True)
    same = [[{None: ONE}, {}], [{}, {None: ONE}]]
    rho = [same, [[{}, {}], [{}, {}]]]
    fm = [[{}, {None: ONE}], [{None: ONE}, {}]]
    M = FredholmBimodule(dual, rationals(), 0, rho, fm, 1)
    assert M.is_degenerate()
    omega = OmegaComplex(FormSpace(dual, 2))
    chi0 = retracted_cocycle(M, 0, omega, xb)
    for w in omega.even_basis():
        assert chi0.even_col(w)[0] == {}
    for w in omega.odd_basis():
        assert chi0.odd_col(w)[0] == {}


def test_parity_mismatch_rejected(dual):
    from xchern.algebra import rationals
    xb = XGenerated(rationals(), exact_quotient=True)
    rho = [[[{None: ONE}, {}], [{}, {None: ONE}]],
           [[{}, {}], [{}, {}]]]
    fm = [[{}, {None: ONE}], [{None: ONE}, {}]]
    M = FredholmBimodule(dual, rationals(), 0, rho, fm, 1)
    omega = OmegaComplex(FormSpace(dual, 2))
    with pytest.raises(ValueError):
        retracted_cocycle(M, 1, omega, xb)


def test_bad_symmetry_rejected(dual):
    from xchern.algebra import rationals
    rho = [[[{None: ONE}, {}], [{}, {None: ONE}]],
           [[{}, {}], [{}, {}]]]
    bad_f = [[{}, {None: Scalar.from_int(2)}], [{None: ONE}, {}]]
    with pytest.raises(ValueError):
        FredholmBimodule(dual, rationals(), 0, rho, bad_f, 1)


def test_non_multiplicative_rho_rejected(qq):
    from xchern.algebra import rationals
    # rho(e1) = diag(0, 2) squares to diag(0, 4), not to rho(e1)
    rho = [[[{}, {}], [{}, {None: Scalar.from_int(2)}]],
           [[{}, {}], [{}, {}]]]
    fm = [[{}, {None: ONE}], [{None: ONE}, {}]]
    with pytest.raises(ValueError, match="rho is not multiplicative"):
        FredholmBimodule(qq, rationals(), 0, rho, fm, 1)
    rho[0][1][1] = {None: ONE}
    FredholmBimodule(qq, rationals(), 0, rho, fm, 1)


@pytest.mark.parametrize("n", [0, 1])
def test_universal_equality_even(dual, qq, n):
    for algebra in (dual, qq):
        src_len = 2 if n == 0 else 3
        window = 2 if n == 0 else 4
        xt, osp, omega, cmap, qsp, xq = _setting_even(
            algebra, src_len, window)
        u0 = universal_bimodule_even(algebra, qsp)
        chi = retracted_cocycle(u0, 2 * n, omega, xq)
        ch = universal_ch_even(algebra, n, xt, xq)
        lhs = ChainMap.compose(chi, cmap)
        ks = kappa_power_sum(xt, osp, 2 * n)
        rhs = ChainMap.compose(ch, ks).scale(Scalar.rational(1, 2 * n + 1))
        rep = maps_equal(lhs, rhs, xt.even_basis(), xt.odd_basis())
        assert rep["ok"], (algebra.name, rep["failures"][:2])


def test_universal_equality_odd(dual):
    xt = x_of_tensor_algebra(dual, 2)
    osp = FormSpace(dual, 4)
    omega = OmegaComplex(osp)
    cmap = rescale_map(xt, omega)
    esp = FormSpace(dual, 3)
    xe = XGenerated(ZekriAlg(esp), exact_quotient=True)
    xqs = XGenerated(FedosovAlg(FormSpace(dual, 3), graded=True),
                     exact_quotient=True)
    u1 = universal_bimodule_odd(dual, esp)
    assert not u1.is_degenerate()
    chi1 = retracted_cocycle(u1, 1, omega, xe)
    rep = verify_chain_map(chi1)
    assert rep["ok"], rep["failures"][:2]
    ch1 = universal_ch_odd(dual, 0, xt, xqs)
    rep = verify_chain_map(ch1)
    assert rep["ok"], rep["failures"][:2]
    em = eta_chain_map(xe, xqs)
    ks = kappa_power_sum(xt, osp, 1)
    lhs = ChainMap.compose(em, ChainMap.compose(chi1, cmap))
    rhs = ChainMap.compose(ch1, ks).scale(
        bott_constant() * Scalar.rational(1, 2))
    rep = maps_equal(lhs, rhs, xt.even_basis(), xt.odd_basis())
    assert rep["ok"], rep["failures"][:2]


def test_odd_retracted_unit_slot_values(dual):
    # degree-2 columns of chi^1 whose only term is the unit-slot group
    # d(tr_eps(rho(a0~) F [F, rho(a1)] [F, rho(a2)])); the chain-map and
    # universal-equality checks do not see its sign
    esp = FormSpace(dual, 3)
    xe = XGenerated(ZekriAlg(esp), exact_quotient=True)
    u1 = universal_bimodule_odd(dual, esp)
    chi1 = retracted_cocycle(u1, 1, OmegaComplex(FormSpace(dual, 2)), xe)
    c = parse_scalar("(1/2+1/2i)*sqrt(pi)")   # Gamma(3/2) sqrt(2i)
    expected = {(1, 0, 0): ((1, (1,)), (0, (1,))),
                (1, 0, 1): ((1, (2,)), (0, (1,))),
                (1, 1, 0): ((1, (2,)), (0, (1,))),
                (2, 0, 0): ((1, (2,)), (0, (1,)))}
    for word, cls in expected.items():
        assert chi1.even_col(word) == ({cls: c}, False), word


def test_odd_bimodule_stored_doubled(dual):
    from xchern.algebra import rationals
    alpha = [[[{0: ONE}]], [[{}]]]
    f = [[{0: ONE}]]
    M = FredholmBimodule(dual, rationals(), 1, alpha, f, 1)
    assert M.rho[0] == [[{0: ONE}, {}], [{}, {0: ONE}]]
    assert M.fmat == [[{}, {0: ONE}], [{0: ONE}, {}]]


def test_ch_odd_slot_values(dual):
    # odd slot: nat a0~ d a1 -> d(a0~ da1); even slot at 2n+2
    xt = x_of_tensor_algebra(dual, 2)
    xqs = XGenerated(FedosovAlg(FormSpace(dual, 3), graded=True),
                     exact_quotient=True)
    ch1 = universal_ch_odd(dual, 0, xt, xqs)
    v, _ = ch1.odd_col(((1,), (1,)))   # nat eps d eps
    assert v == {(0, 1, 1): ONE}       # d(eps d eps)
    v0, _ = ch1.odd_col((None, (1,)))  # nat d eps: d(1~ d eps) = 0
    assert v0 == {}


def test_ch_odd_kappa_squared_even_slot(dual):
    # the even slot is already kappa^2 invariant
    xt = x_of_tensor_algebra(dual, 3)
    osp = FormSpace(dual, 6)
    xqs = XGenerated(FedosovAlg(FormSpace(dual, 4), graded=True),
                     exact_quotient=True)
    ch1 = universal_ch_odd(dual, 0, xt, xqs)
    km = kappa_map(xt, osp)
    k2 = ChainMap.compose(km, km)
    comp = ChainMap.compose(ch1, k2)
    rep = maps_equal(comp, ch1, xt.even_basis(), [])
    assert rep["ok"], rep["failures"][:2]
    # full cyclicity with kappa^{2n+2}
    rep2 = maps_equal(comp, ch1, xt.even_basis(), xt.odd_basis())
    assert rep2["ok"]


@pytest.mark.parametrize("name", ["dual", "qq"])
def test_ch_odd_even_slot_matches_form_reference(name, request):
    # the even slot at n = 1 multiplies the one-form pieces in the super
    # Fedosov algebra; every column, loss flag included, must match the
    # degree-by-degree product of the reference
    algebra = request.getfixturevalue(name)
    xt = x_of_tensor_algebra(algebra, 4)
    xqs = XGenerated(FedosovAlg(FormSpace(algebra, 5), graded=True))
    ch3 = universal_ch_odd(algebra, 1, xt, xqs)
    conv = FormSpace(algebra, 8)
    nonzero = 0
    for lab in xt.even_basis():
        got = ch3.even_col(lab)
        assert got == xreference.ch_odd_even_col(algebra, 1, xqs, conv,
                                                 lab), lab
        nonzero += bool(got[0])
    assert nonzero


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("n", [0, 1])
def test_universal_cocycle_does_not_depend_on_the_source_length(dual, n,
                                                                parity):
    # the source labels read their forms in a window derived from the
    # source length; a longer source must leave every column of the
    # shorter one, loss flag included, as it was
    xq = XGenerated(FedosovAlg(FormSpace(dual, 2 * n + parity + 2),
                               graded=bool(parity)))
    universal_ch = (universal_ch_even, universal_ch_odd)[parity]
    short, long_ = (x_of_tensor_algebra(dual, L) for L in (n + 2, n + 3))
    ch_short = universal_ch(dual, n, short, xq)
    ch_long = universal_ch(dual, n, long_, xq)
    nonzero = 0
    for basis, side in ((short.even_basis(), "even_col"),
                        (short.odd_basis(), "odd_col")):
        for lab in basis:
            got = getattr(ch_short, side)(lab)
            assert got == getattr(ch_long, side)(lab), (side, lab)
            nonzero += bool(got[0])
    assert nonzero


def test_gamma0_identity(dual, qq):
    for algebra in (dual, qq):
        W = GammaWindows(src_len=3, mid_len=3, q_inner_deg=1,
                         q_letter_deg=1, out_len=4)
        g0, parts = gamma_even(algebra, 0, W)
        xt, xtq = parts["xt"], parts["xtq"]
        ti = x_of_t_branch(xt, xtq, ONE)
        tib = x_of_t_branch(xt, xtq, -ONE)
        rep = maps_equal(g0, ti.sub(tib), xt.even_basis(), xt.odd_basis())
        assert rep["ok"] and rep["skipped"] == 0, algebra.name


def test_gamma0_on_generator(dual):
    W = GammaWindows(src_len=2, mid_len=2, q_inner_deg=1, q_letter_deg=1,
                     out_len=3)
    g0, parts = gamma_even(dual, 0, W)
    v, _ = g0.odd_col((None, (1,)))
    assert v == {(None, ((0, 1),)): Scalar.from_int(2)}


def test_gamma2_order(dual):
    W = GammaWindows(src_len=6, mid_len=6, q_inner_deg=3, q_letter_deg=1,
                     out_len=10)
    g2, parts = gamma_even(dual, 1, W)
    xt, xtq = parts["xt"], parts["xtq"]
    osp = FormSpace(dual, 5)
    filt = TensorIdealFiltration(xtq, lambda lett: (len(lett) - 1) >= 1)

    def src_basis(m):
        ev, od = hodge_filtration(osp, m, xtensor=xt)
        return ev.basis(), od.basis()

    ok, info = order_certificate(g2, src_basis, filt, 2, [0, 1, 2, 3])
    assert ok, info


def test_gamma_chain_maps(dual):
    W = GammaWindows(src_len=2, mid_len=2, q_inner_deg=2, q_letter_deg=1,
                     out_len=5)
    g2, parts = gamma_even(dual, 1, W)
    rep = verify_chain_map(g2, even_labels=parts["xt"].even_basis(),
                           odd_labels=parts["xt"].odd_basis())
    assert rep["ok"], rep["failures"][:2]
    g1 = gamma_composite(dual, 0, W, odd=True)
    rep1 = verify_chain_map(g1, even_labels=g1.source.even_basis(),
                            odd_labels=g1.source.odd_basis())
    assert rep1["ok"], rep1["failures"][:2]


def _x_of_hom_unmemoized(src_cx, tgt_cx, image_of_label):
    """Reference X(rho) that calls image_of_label on every use."""
    def ofn(lab):
        z, g = lab
        gvec, l1 = image_of_label(g)
        zvec, l2 = ({None: ONE}, False) if z is None else image_of_label(z)
        out, l3 = tgt_cx.omega1_vec(zvec, gvec)
        return out, l1 or l2 or l3
    return ChainMap(src_cx, tgt_cx, 0, image_of_label, ofn)


def test_x_of_hom_calls_each_image_once(dual, monkeypatch):
    # X(v) and X(phi) inside gamma^2 evaluate their image function once per
    # distinct label, and gamma^2 has the columns of the unmemoized maps
    import xchern.chern as chern_mod
    from collections import Counter
    W = GammaWindows(src_len=3, mid_len=3, q_inner_deg=2, q_letter_deg=1,
                     out_len=6)

    def columns(x_of_hom):
        calls = []

        def counting(src_cx, tgt_cx, image_of_label):
            seen = Counter()
            calls.append(seen)

            def counted(lab):
                seen[lab] += 1
                return image_of_label(lab)
            return x_of_hom(src_cx, tgt_cx, counted)
        monkeypatch.setattr(chern_mod, "x_of_hom", counting)
        g2, parts = gamma_even(dual, 1, W)
        xt = parts["xt"]
        cols = ([g2.even_col(lab) for lab in xt.even_basis()],
                [g2.odd_col(lab) for lab in xt.odd_basis()])
        return cols, calls

    cols, calls = columns(chern_mod.x_of_hom)
    ref_cols, ref_calls = columns(_x_of_hom_unmemoized)
    assert cols == ref_cols
    assert any(v for v, _ in cols[0] + cols[1])
    # gamma_composite builds X(v) first, then X(phi)
    assert len(calls) == len(ref_calls) == 2
    for name, seen, ref in zip(("X(v)", "X(phi)"), calls, ref_calls):
        assert seen and set(seen.values()) == {1}, name
        assert set(seen) == set(ref), name
        assert sum(ref.values()) > len(seen), name


def _unit_matrix(nsize, r, c, key):
    """The matrix unit e_{r+1,c+1} (x) b_key over the unitalized target."""
    mat = [[{} for _ in range(nsize)] for _ in range(nsize)]
    mat[r][c] = {key: ONE}
    return mat


def _traced(target, letters, half=None):
    """The (super)trace of X of the word-level lift of 2 x 2 matrix letters
    over target, from X(T A) with A = M_2(Q) as the alphabet, at window 2;
    the supertrace of 1 x 1 blocks when half = 1."""
    from xchern.algebra import matrix_units
    from xchern.quasihom import _traced_lift
    xt = x_of_tensor_algebra(matrix_units(2), 2)
    return _traced_lift(xt, letters.__getitem__, 2, target, 3, half=half)


def test_trace_map_examples(dual):
    # letters 0..3: e12 (x) 1, e21 (x) eps, e12 (x) eps, e11 (x) eps
    tr = _traced(dual, [_unit_matrix(2, 0, 1, 0), _unit_matrix(2, 1, 0, 1),
                        _unit_matrix(2, 0, 1, 1), _unit_matrix(2, 0, 0, 1)])
    # diagonal even entries trace through, off-diagonal ones vanish
    v, _ = tr.even_col((3,))
    assert v == {(1,): ONE}
    v, _ = tr.even_col((0,))
    assert v == {}
    v, _ = tr.even_col((0, 1))
    assert v == {(0, 1): ONE}
    # nat (e12 (x) w) d (e21 (x) w') -> nat w d w'
    v, _ = tr.odd_col(((0,), (1,)))
    assert v == {((0,), (1,)): ONE}
    v, _ = tr.odd_col(((0,), (2,)))
    assert v == {}
    # chain map on the whole window
    rep = verify_chain_map(tr)
    assert rep["ok"] and rep["checked"], rep["failures"][:2]


def test_trace_map_graded(dual):
    # block-diagonal letters: e11 (x) 1, e22 (x) eps, e11 (x) eps, e22 (x) 1
    tr = _traced(dual, [_unit_matrix(2, 0, 0, 0), _unit_matrix(2, 1, 1, 1),
                        _unit_matrix(2, 0, 0, 1), _unit_matrix(2, 1, 1, 0)],
                 half=1)
    # row 1 is the odd block: the supertrace gives it the sign -1
    v, _ = tr.even_col((1,))
    assert v == {(1,): -ONE}
    v, _ = tr.even_col((2,))
    assert v == {(1,): ONE}
    v, _ = tr.odd_col(((1,), (3,)))
    assert v == {((1,), (0,)): -ONE}
    rep = verify_chain_map(tr)
    assert rep["ok"] and rep["checked"], rep["failures"][:2]
