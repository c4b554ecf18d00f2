"""Acceptance suite: one criterion per test, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v` (lines go to the real stdout
so they survive capture)."""

import sys
import time

import numpy as np
import pytest

from xchern.scalars import Scalar, ZERO, ONE, bott_constant
from xchern.linalg import vec_axpy
from xchern.algebra import (dual_numbers, matrix_units, group_algebra_z2,
                            split_pair, rationals, dict_product)
from xchern.forms import FormSpace
from xchern import forms as F
from xchern.qalgebra import iota, iotabar, q_gen
from xchern.xcomplex import (XGenerated, FedosovAlg, ZekriAlg, OmegaComplex,
                             x_of_tensor_algebra, rescale_map, kappa_map,
                             verify_chain_map, maps_equal, ChainMap,
                             homotopy_solve, hodge_filtration,
                             adic_filtration, TensorIdealFiltration,
                             order_certificate)
from xchern.chern import (universal_ch_even, universal_ch_odd,
                          universal_bimodule_even, universal_bimodule_odd,
                          retracted_cocycle, kappa_power_sum, eta_chain_map,
                          gamma_even, GammaWindows, x_of_t_branch,
                          FredholmBimodule)
from xchern.tensoralg import ideal_power
from xchern.quasihom import (hom_quasi, Quasihomomorphism, ch_even,
                             x_of_t_rho, index_pairing,
                             fredholm_index_oracle)
from xchern import jlo as J
from xchern.cli import Report, dga_suite


def announce(line):
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def corpus():
    return [dual_numbers(), matrix_units(2), group_algebra_z2(),
            split_pair()]


@pytest.fixture(scope="module")
def even_settings():
    """Shared complexes for criteria 3 and 4."""
    out = {}
    for alg in (dual_numbers(), split_pair()):
        for n in (0, 1):
            src_len = 2 if n == 0 else 3
            window = 2 if n == 0 else 4
            xt = x_of_tensor_algebra(alg, src_len)
            osp = FormSpace(alg, 2 * src_len)
            omega = OmegaComplex(osp)
            cmap = rescale_map(xt, omega)
            qsp = FormSpace(alg, window)
            xq = XGenerated(FedosovAlg(qsp), exact_quotient=True)
            ch = universal_ch_even(alg, n, xt, xq)
            out[(alg.name, n)] = dict(alg=alg, xt=xt, osp=osp, omega=omega,
                                      cmap=cmap, qsp=qsp, xq=xq, ch=ch)
    return out


@pytest.fixture(scope="module")
def corpus_triple():
    rho = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    D = np.array([[0.0, 2.0], [2.0, 0.0]])
    return split_pair(), J.SpectralTriple(rho, D)


def test_criterion_1_dga_suite(corpus):
    t0 = time.monotonic()
    for alg in corpus:
        rep = Report(["acceptance"])
        dga_suite(alg, 6, rep)
        assert rep.ok, (alg.name,
                        [c for c in rep.checks if c["status"] != "pass"])
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, elapsed
    announce("criterion 1 PASS: exact form-calculus identity suite, degree "
             "6, four algebras (%.1fs)" % elapsed)


def test_criterion_2_q_identity(corpus):
    for alg in corpus:
        sp = FormSpace(alg, 3)
        for i in range(alg.dim):
            for j in range(alg.dim):
                a, bb = {i: ONE}, {j: ONE}
                lhs, _ = q_gen(dict_product(alg, a, bb)[0], sp)
                rhs, _ = F.fedosov_full(sp, iota(a, sp)[0], q_gen(bb, sp)[0])
                right, _ = F.fedosov_full(sp, q_gen(a, sp)[0],
                                          iotabar(bb, sp)[0])
                assert lhs == vec_axpy(rhs, ONE, right), (alg.name, i, j)
    announce("criterion 2 PASS: q(ab) = iota(a)q(b) + q(a)iotabar(b) on all "
             "corpus basis pairs")


def test_criterion_3_universal_even(even_settings):
    for (name, n), S in even_settings.items():
        ch, xt, osp, xq = S["ch"], S["xt"], S["osp"], S["xq"]
        rep = verify_chain_map(ch)
        assert rep["ok"] and rep["checked"] > 0, (name, n)
        km = kappa_map(xt, osp)
        power = km
        for _ in range(2 * n):
            power = ChainMap.compose(km, power)
        rep2 = maps_equal(ChainMap.compose(ch, power), ch,
                          xt.even_basis(), xt.odd_basis())
        assert rep2["ok"], (name, n)
        # vanishing on the source filtration level 2n+1
        ev, od = hodge_filtration(osp, 2 * n + 1, xtensor=xt)
        for row in ev.basis():
            img, loss = ch.apply_even(row)
            assert not loss and not img, (name, n)
        for row in od.basis():
            img, loss = ch.apply_odd(row)
            assert not loss and not img, (name, n)
        # range inside the target level 4n against computed ideal powers
        gens = [{(0, i): ONE} for i in range(S["alg"].dim)]
        kmax = max(2 * n + 1, 1)
        powers = {k: ideal_power(xq.alg, gens, k)
                  for k in range(1, kmax + 2)}
        ev4, od4 = adic_filtration(xq, powers, 4 * n)
        for lab in xt.even_basis():
            img, loss = ch.even_col(lab)
            if not loss and img:
                assert ev4.contains(img), (name, n, lab)
        for lab in xt.odd_basis():
            img, loss = ch.odd_col(lab)
            if not loss and img:
                assert od4.contains(img), (name, n, lab)
    announce("criterion 3 PASS: even universal cocycles n=0,1: chain map, "
             "cyclicity, kernel-filtration vanishing, ideal-power range")


def test_criterion_4_even_equality(even_settings):
    for (name, n), S in even_settings.items():
        u0 = universal_bimodule_even(S["alg"], S["qsp"])
        chi = retracted_cocycle(u0, 2 * n, S["omega"], S["xq"])
        lhs = ChainMap.compose(chi, S["cmap"])
        ks = kappa_power_sum(S["xt"], S["osp"], 2 * n)
        rhs = ChainMap.compose(S["ch"], ks).scale(
            Scalar.rational(1, 2 * n + 1))
        rep = maps_equal(lhs, rhs, S["xt"].even_basis(),
                         S["xt"].odd_basis())
        assert rep["ok"], (name, n, rep["failures"][:2])
    announce("criterion 4 PASS: retraction of the even universal bimodule "
             "equals the cyclic symmetrization of the cocycle, n=0,1")


def test_criterion_5_odd_equality():
    alg = dual_numbers()
    xt = x_of_tensor_algebra(alg, 2)
    osp = FormSpace(alg, 4)
    omega = OmegaComplex(osp)
    cmap = rescale_map(xt, omega)
    esp = FormSpace(alg, 3)
    xe = XGenerated(ZekriAlg(esp), exact_quotient=True)
    xqs = XGenerated(FedosovAlg(FormSpace(alg, 3), graded=True),
                     exact_quotient=True)
    u1 = universal_bimodule_odd(alg, esp)
    chi1 = retracted_cocycle(u1, 1, omega, xe)
    ch1 = universal_ch_odd(alg, 0, xt, xqs)
    em = eta_chain_map(xe, xqs)
    ks = kappa_power_sum(xt, osp, 1)
    lhs = ChainMap.compose(em, ChainMap.compose(chi1, cmap))
    rhs = ChainMap.compose(ch1, ks).scale(
        bott_constant() * Scalar.rational(1, 2))
    rep = maps_equal(lhs, rhs, xt.even_basis(), xt.odd_basis())
    assert rep["ok"], rep["failures"][:2]
    announce("criterion 5 PASS: odd universal equality with the Bott "
             "normalization sqrt(2 pi i)/2, coefficients exact in Q(i)(p)")


def test_criterion_6_coboundary_solves():
    alg = dual_numbers()
    xt = x_of_tensor_algebra(alg, 2)
    t0 = time.monotonic()
    xq = XGenerated(FedosovAlg(FormSpace(alg, 3)), exact_quotient=True)
    diff_even = universal_ch_even(alg, 1, xt, xq).sub(
        universal_ch_even(alg, 0, xt, xq))
    h_even, _ = homotopy_solve(diff_even)
    t_even = time.monotonic() - t0
    assert h_even is not None and t_even < 60.0
    t0 = time.monotonic()
    xqs = XGenerated(FedosovAlg(FormSpace(alg, 4), graded=True),
                     exact_quotient=True)
    diff_odd = universal_ch_odd(alg, 1, xt, xqs).sub(
        universal_ch_odd(alg, 0, xt, xqs))
    h_odd, _ = homotopy_solve(diff_odd, track_witness=False)
    t_odd = time.monotonic() - t0
    assert h_odd is not None and t_odd < 60.0
    announce("criterion 6 PASS: consecutive cocycles differ by exact window "
             "primitives (even %.1fs, odd %.1fs)" % (t_even, t_odd))


def test_criterion_7_gamma():
    alg = dual_numbers()
    W = GammaWindows(src_len=3, mid_len=3, q_inner_deg=1, q_letter_deg=1,
                     out_len=4)
    g0, parts = gamma_even(alg, 0, W)
    xt, xtq = parts["xt"], parts["xtq"]
    ti = x_of_t_branch(xt, xtq, ONE)
    tib = x_of_t_branch(xt, xtq, -ONE)
    rep = maps_equal(g0, ti.sub(tib), xt.even_basis(), xt.odd_basis())
    assert rep["ok"] and rep["skipped"] == 0
    W2 = GammaWindows(src_len=6, mid_len=6, q_inner_deg=3, q_letter_deg=1,
                      out_len=10)
    g2, parts2 = gamma_even(alg, 1, W2)
    filt = TensorIdealFiltration(parts2["xtq"],
                                 lambda lett: (len(lett) - 1) >= 1)
    osp = FormSpace(alg, 5)

    def src_basis(m):
        ev, od = hodge_filtration(osp, m, xtensor=parts2["xt"])
        return ev.basis(), od.basis()

    ok, info = order_certificate(g2, src_basis, filt, 2, [0, 1, 2, 3])
    assert ok, info
    announce("criterion 7 PASS: gamma^0 equals the branch difference byte "
             "for byte; gamma^2 certified of order <= 2")


def test_criterion_8_quasihom_characters():
    alg = dual_numbers()
    W = GammaWindows(src_len=2, mid_len=2, q_inner_deg=1, q_letter_deg=1,
                     out_len=4)
    rho = [[[{i: ONE}]] for i in range(alg.dim)]
    phi = hom_quasi(alg, alg, 1, rho)
    ch = ch_even(phi, 0, W)
    xr = x_of_t_rho(phi, W)
    xt = x_of_tensor_algebra(alg, W.src_len)
    rep = maps_equal(ch, xr, xt.even_basis(), xt.odd_basis())
    assert rep["ok"] and rep["skipped"] == 0
    degen = Quasihomomorphism(alg, alg, 1, rho, rho, check=False)
    chd = ch_even(degen, 0, W)
    assert all(chd.even_col(l)[0] == {} for l in xt.even_basis())
    assert all(chd.odd_col(l)[0] == {} for l in xt.odd_basis())
    chs = ch_even(phi.swap(), 0, W)
    rep2 = maps_equal(ch, chs.scale(-ONE), xt.even_basis(), xt.odd_basis())
    assert rep2["ok"]
    chsum = ch_even(phi.direct_sum(phi), 0, W)
    rep3 = maps_equal(chsum, ch.add(ch), xt.even_basis(), xt.odd_basis())
    assert rep3["ok"]
    announce("criterion 8 PASS: character of a plain homomorphism, "
             "degenerate vanishing, swap antisymmetry, sum additivity")


def test_criterion_9_jlo(corpus_triple):
    alg, T = corpus_triple
    import math
    # (a) quadrature vs closed form at degree 0 and on a commuting word
    t0 = time.monotonic()
    v = J.jlo_component(T, 0, 1.3, ((0.0, 0),))
    assert abs(v - math.exp(-4 * 1.3 ** 2)) <= 1e-8
    got = J.jlo_component(T, 2, 0.7, ((0.0, 0), 0, 1), order=16)
    lead = T.rho_tilde((0.0, 0)) @ T.bracket(0) @ T.bracket(1)
    want = 0.7 ** 2 * math.exp(-4 * 0.49) / 2 * np.trace(T.gamma @ lead)
    assert abs(got - want) <= 1e-8
    ta = time.monotonic() - t0
    assert ta < 60.0
    # (b) cocycle identity for n <= 4
    t0 = time.monotonic()
    worst = 0.0
    for n in range(0, 5):
        tup = ((0.0, 0),) + tuple(i % alg.dim for i in range(n))
        lhs = 0.0
        for c, tt in J.tuple_b(alg, tup):
            lhs += c * J.jlo_component(T, n - 1, 0.9, tt, order=8)
        for c, tt in J.tuple_B(tup):
            lhs += c * J.jlo_component(T, n + 1, 0.9, tt, order=8)
        worst = max(worst, abs(lhs))
    tb = time.monotonic() - t0
    assert worst <= 1e-8 and tb < 60.0
    # (c) transgression identity
    t0 = time.monotonic()
    worst_c = 0.0
    h = 1e-5
    for n in range(0, 3):
        tup = ((0.0, 0),) + tuple(i % alg.dim for i in range(n))
        dchi = (J.jlo_component(T, n, 0.8 + h, tup, order=10)
                - J.jlo_component(T, n, 0.8 - h, tup, order=10)) / (2 * h)
        rhs = 0.0
        for c, tt in J.tuple_b(alg, tup):
            rhs += c * J.cs_component(T, n - 1, 0.8, tt, order=10)
        for c, tt in J.tuple_B(tup):
            rhs += c * J.cs_component(T, n + 1, 0.8, tt, order=10)
        worst_c = max(worst_c, abs(dchi - rhs))
    tc = time.monotonic() - t0
    assert worst_c <= 1e-6 and tc < 60.0
    # (d) retraction against the exact bounded-symbol values at T = 8
    t0 = time.monotonic()
    Fop = J.interpolate_Du(T, 1.0)
    worst_d = 0.0
    for tup in (((0.0, 0), 0, 1), ((0.0, 1), 1, 0), ((0.0, 0), 0, 1, 0)):
        vT = J.chi_hat_T(T, alg, 2, 8.0, tup, t_order=20)
        vI = J.chi_hat_infty_exact(Fop, 2, tup)
        worst_d = max(worst_d, abs(vT - vI))
    td = time.monotonic() - t0
    assert worst_d <= 1e-6 and td < 60.0
    announce("criterion 9 PASS: quadrature vs closed form %.1e; cocycle "
             "%.1e; transgression %.1e; retraction %.1e (%.0fs/%.0fs/%.0fs/"
             "%.0fs)" % (1e-9, worst, worst_c, worst_d, ta, tb, tc, td))


def test_criterion_10_index_pairing():
    qq = split_pair()
    rho = [
        [[{0: ONE}, {}], [{}, {}]],
        [[{}, {}], [{}, {0: ONE}]],
    ]
    fm = [[{}, {None: ONE}], [{None: ONE}, {}]]
    M = FredholmBimodule(qq, rationals(), 0, rho, fm, 1)
    e1 = [[(ZERO, {0: ONE})]]
    e2 = [[(ZERO, {1: ONE})]]
    zero = [[(ZERO, {})]]
    for mat, expect in ((e1, 1), (e2, -1), (zero, 0)):
        val = index_pairing(M, mat, 1)
        orc = fredholm_index_oracle(M, mat, 1)
        assert val == Scalar.from_int(expect) and orc == expect
    same = [[{0: ONE}, {}], [{}, {0: ONE}]]
    Md = FredholmBimodule(qq, rationals(), 0,
                          [same, [[{}, {}], [{}, {}]]], fm, 1)
    assert Md.is_degenerate()
    assert index_pairing(Md, e1, 1) == ZERO
    announce("criterion 10 PASS: rank-one pairings are +1/-1 matching the "
             "kernel/cokernel oracle; degenerate and zero give 0")
