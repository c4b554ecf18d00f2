import os

import pytest

from xchern.scalars import Scalar, ZERO, ONE
from xchern.linalg import vec_axpy
from xchern.algebra import rationals, split_pair, group_algebra_z2
from xchern.forms import FormSpace
from xchern.xcomplex import (x_of_tensor_algebra, verify_chain_map,
                             maps_equal, homotopy_solve, ChainMap,
                             TensorIdealFiltration, hodge_filtration,
                             order_certificate)
from xchern.chern import GammaWindows, FredholmBimodule
from xchern.quasihom import (Quasihomomorphism, invertible_extension,
                             hom_quasi, ch_even, ch_odd, x_of_t_rho,
                             index_pairing, fredholm_index_oracle)
from xchern.cli import load_spec, load_quasihom, load_extension

SPECS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "specs")

W2 = GammaWindows(src_len=2, mid_len=2, q_inner_deg=1, q_letter_deg=1,
                  out_len=4)


def _identity_quasihom(algebra):
    rho = [[[{i: ONE}]] for i in range(algebra.dim)]
    return hom_quasi(algebra, algebra, 1, rho)


def test_ch0_of_hom_is_x_of_lift(dual):
    phi = _identity_quasihom(dual)
    ch = ch_even(phi, 0, W2)
    xr = x_of_t_rho(phi, W2)
    xt = ch.source
    rep = maps_equal(ch, xr, xt.even_basis(), xt.odd_basis())
    assert rep["ok"] and rep["skipped"] == 0


def test_ch0_chain_map_and_order(dual):
    phi = _identity_quasihom(dual)
    ch = ch_even(phi, 0, W2)
    xt = ch.source
    rep = verify_chain_map(ch, even_labels=xt.even_basis(),
                           odd_labels=xt.odd_basis())
    assert rep["ok"]
    # order <= 0 for a plain homomorphism: the character preserves levels
    osp = FormSpace(dual, 2 * W2.src_len)
    filt = TensorIdealFiltration(ch.target, lambda lett: False)

    def src_basis(m):
        ev, od = hodge_filtration(osp, m, xtensor=xt)
        return ev.basis(), od.basis()

    # the target of a degree-0 character lands in the zero-level everywhere
    ok, info = order_certificate(ch, src_basis, filt, 0, [0])
    assert ok, info


def test_degenerate_quasihom_vanishes(dual):
    rho = [[[{i: ONE}]] for i in range(dual.dim)]
    phi = Quasihomomorphism(dual, dual, 1, rho, rho, check=False)
    assert phi.is_degenerate()
    ch = ch_even(phi, 0, W2)
    xt = ch.source
    for lab in xt.even_basis():
        assert ch.even_col(lab)[0] == {}
    for lab in xt.odd_basis():
        assert ch.odd_col(lab)[0] == {}


def test_swap_antisymmetry(dual):
    phi = _identity_quasihom(dual)
    ch = ch_even(phi, 0, W2)
    chs = ch_even(phi.swap(), 0, W2)
    xt = x_of_tensor_algebra(dual, W2.src_len)
    neg = chs.scale(-ONE)
    rep = maps_equal(ch, neg, xt.even_basis(), xt.odd_basis())
    assert rep["ok"]


def test_direct_sum_additivity(dual):
    phi = _identity_quasihom(dual)
    both = phi.direct_sum(phi)
    ch1 = ch_even(phi, 0, W2)
    ch2 = ch_even(both, 0, W2)
    xt = x_of_tensor_algebra(dual, W2.src_len)
    doubled = ch1.add(ch1)
    rep = maps_equal(ch2, doubled, xt.even_basis(), xt.odd_basis())
    assert rep["ok"]


def _labels_off_the_target_basis(ch, src):
    """(source label, target label) for every column entry of the chain map
    ch whose label is not in the basis of its target complex."""
    bases = (set(ch.target.even_basis()), set(ch.target.odd_basis()))
    out = []
    for odd, labels in ((0, src.even_basis()), (1, src.odd_basis())):
        col = ch.odd_col if odd else ch.even_col
        basis = bases[(odd + ch.parity) % 2]
        for lab in labels:
            out.extend((lab, t) for t in col(lab)[0] if t not in basis)
    return out


def test_character_columns_lie_in_the_target_basis(dual):
    # rho(1) = 1 (x) 1_2 and rho(eps) = e12 (x) 1 lift to unit words on the
    # diagonal, and the unit word () is no generator: its d is d(1) = 0
    unit = [[{None: ONE}, {}], [{}, {None: ONE}]]
    e12 = [[{}, {None: ONE}], [{}, {}]]
    phi = hom_quasi(dual, dual, 2, [unit, e12])
    ch = ch_even(phi, 0, W2)
    assert _labels_off_the_target_basis(ch, ch.source) == []
    # the characters that chern builds from the spec files, at the windows
    # of its default --src-len 2
    for name, n in (("idqh", 0), ("idqh", 1), ("extension", 0)):
        spec = load_spec(os.path.join(SPECS, name + ".json"))
        W = GammaWindows(2, 2, 2 * n + 2, 1, 2 * 2 + 2 * n + 2)
        if spec["kind"] == "quasihom":
            ch = ch_even(load_quasihom(spec), n, W)
        else:
            ch = ch_odd(load_extension(spec), n, W)
        assert _labels_off_the_target_basis(ch, ch.source) == [], name


def test_quasihom_rejects_bad_rep(dual):
    bad = [[[{0: ONE}]], [[{0: ONE}]]]   # eps -> 1 not multiplicative
    with pytest.raises(ValueError):
        hom_quasi(dual, dual, 1, bad)


def _full_extension(qq):
    b1, b2 = {0: ONE}, {1: ONE}
    al_e1 = [[dict(b1), dict(b1)], [dict(b2), dict(b2)]]
    al_e2 = [[dict(b2), {0: -ONE}], [{1: -ONE}, dict(b1)]]
    return invertible_extension(qq, qq, 1, [al_e1, al_e2])


def test_ch_odd_extension(qq):
    ext = _full_extension(qq)
    assert not ext.is_degenerate()
    W = GammaWindows(src_len=2, mid_len=2, q_inner_deg=2, q_letter_deg=1,
                     out_len=4)
    ch1 = ch_odd(ext, 0, W)
    xt = ch1.source
    rep = verify_chain_map(ch1, even_labels=xt.even_basis(),
                           odd_labels=xt.odd_basis())
    assert rep["ok"], rep["failures"][:2]
    nonzero = any(ch1.even_col(lab)[0] for lab in xt.even_basis()) or \
        any(ch1.odd_col(lab)[0] for lab in xt.odd_basis())
    assert nonzero


def test_ch_odd_degenerate_vanishes(qq):
    degen = invertible_extension(
        qq, qq, 1,
        [[[dict({0: ONE}), {}], [{}, dict({0: ONE})]],
         [[dict({1: ONE}), {}], [{}, dict({1: ONE})]]])
    assert degen.is_degenerate()
    W = GammaWindows(src_len=2, mid_len=2, q_inner_deg=2, q_letter_deg=1,
                     out_len=4)
    ch1 = ch_odd(degen, 0, W)
    xt = ch1.source
    for lab in xt.even_basis():
        assert ch1.even_col(lab)[0] == {}
    for lab in xt.odd_basis():
        assert ch1.odd_col(lab)[0] == {}


def test_conjugate_extension_sum_is_coboundary(qq):
    # the full extension alpha and its conjugate P alpha P by the flip
    # P = offdiag(1, 1): the two characters cancel on every column, so
    # their sum is the zero cocycle and has a primitive, while ch(alpha)
    # alone is nonzero
    alpha = _full_extension(qq).rho_plus
    flipped = [[row[::-1] for row in mat[::-1]] for mat in alpha]
    ext = invertible_extension(qq, qq, 1, alpha)
    conj = invertible_extension(qq, qq, 1, flipped)
    W = GammaWindows(src_len=2, mid_len=2, q_inner_deg=2, q_letter_deg=1,
                     out_len=4)
    ch1 = ch_odd(ext, 0, W)
    ch2 = ch_odd(conj, 0, W)
    xt = ch1.source
    cols = [(ch1.even_col, ch2.even_col, lab) for lab in xt.even_basis()]
    cols += [(ch1.odd_col, ch2.odd_col, lab) for lab in xt.odd_basis()]
    assert sum(1 for col, _, lab in cols if col(lab)[0]) == 14
    for col1, col2, lab in cols:
        assert vec_axpy(dict(col1(lab)[0]), ONE, col2(lab)[0]) == {}, lab
    total = ch1.add(ch2)
    h, witness = homotopy_solve(total)
    assert h is not None


def _toy_bimodule(qq):
    rho = [
        [[{0: ONE}, {}], [{}, {}]],
        [[{}, {}], [{}, {0: ONE}]],
    ]
    fm = [[{}, {None: ONE}], [{None: ONE}, {}]]
    return FredholmBimodule(qq, rationals(), 0, rho, fm, 1)


def test_index_pairing_toy(qq):
    M = _toy_bimodule(qq)
    e1 = [[(ZERO, {0: ONE})]]
    e2 = [[(ZERO, {1: ONE})]]
    zero = [[(ZERO, {})]]
    unit = [[(ZERO, {0: ONE, 1: ONE})]]
    for mat, expect in ((e1, 1), (e2, -1), (zero, 0), (unit, 0)):
        val = index_pairing(M, mat, 1)
        assert val == Scalar.from_int(expect)
        assert fredholm_index_oracle(M, mat, 1) == expect


def test_index_pairing_degenerate(qq):
    same = [[{0: ONE}, {}], [{}, {0: ONE}]]
    rho = [same, [[{}, {}], [{}, {}]]]
    fm = [[{}, {None: ONE}], [{None: ONE}, {}]]
    M = FredholmBimodule(qq, rationals(), 0, rho, fm, 1)
    assert M.is_degenerate()
    e1 = [[(ZERO, {0: ONE})]]
    assert index_pairing(M, e1, 1) == ZERO


def test_index_pairing_rejects_non_idempotent(qq):
    M = _toy_bimodule(qq)
    bad = [[(ZERO, {0: Scalar.from_int(2)})]]
    # squares to [[1, 0], [2, 1]]: right on the diagonal, wrong off it
    lower = [[(ONE, {}), (ZERO, {})],
             [(ONE, {}), (ONE, {})]]
    for mat, k in ((bad, 1), (lower, 2)):
        with pytest.raises(ValueError, match="not idempotent"):
            index_pairing(M, mat, k)


def test_index_pairing_2x2_idempotent(qq):
    # a rank-one idempotent inside the 2x2 matrices over the unitalization
    M = _toy_bimodule(qq)
    half = Scalar.rational(1, 2)
    e = [[(half, {}), (half, {})],
         [(half, {}), (half, {})]]
    val = index_pairing(M, e, 2)
    orc = fredholm_index_oracle(M, e, 2)
    assert val == Scalar.from_int(orc)


def test_pairing_constant_matches_oracle(qq):
    # the level-zero pairing needs no calibration constant: it is the
    # oracle's index
    M = _toy_bimodule(qq)
    e1 = [[(ZERO, {0: ONE})]]
    raw = index_pairing(M, e1, 1)
    assert raw == Scalar.from_int(fredholm_index_oracle(M, e1, 1))
