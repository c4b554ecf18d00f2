import collections
import itertools
import math
import os

import numpy as np
import pytest

from xchern import jlo
from xchern.algebra import split_pair
from xchern.cli import main
from xchern.jlo import (SpectralTriple, jlo_component, cs_component,
                        cochain_values, tuple_b, tuple_B, chi_hat_T,
                        chi_hat_infty_exact, interpolate_Du)

import quadrature


@pytest.fixture(scope="module")
def toy():
    rho = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    D = np.array([[0.0, 2.0], [2.0, 0.0]])
    return SpectralTriple(rho, D)


def _toy4():
    z2 = np.zeros((2, 2))
    Wop = np.array([[2.0, 0.5], [0.0, 1.0]])
    D = np.block([[z2, Wop.conj().T], [Wop, z2]])
    rho = [np.block([[np.diag([1.0, 0.0]), z2], [z2, np.diag([1.0, 0.0])]]),
           np.block([[np.diag([0.0, 1.0]), z2], [z2, np.diag([0.0, 1.0])]])]
    return SpectralTriple(rho, D)


@pytest.fixture(scope="module")
def toy4():
    return _toy4()


@pytest.fixture(scope="module")
def alg():
    return split_pair()


def test_constructor_validations():
    rho = [np.diag([1.0, 0.0])]
    with pytest.raises(ValueError):
        SpectralTriple(rho, np.array([[0.0, 1.0], [0.5, 0.0]]))  # not sa
    with pytest.raises(ValueError):
        SpectralTriple(rho, np.diag([1.0, -1.0]))                # not odd
    with pytest.raises(ValueError):
        SpectralTriple([np.array([[0, 1], [1, 0]])],
                       np.array([[0.0, 1.0], [1.0, 0.0]]))       # rho odd


def test_quadrature_vs_closed_form(toy):
    def closed(n, t, tup):
        lead = toy.rho_tilde(tup[0])
        acc = lead.copy()
        for i in tup[1:]:
            acc = acc @ toy.bracket(i)
        return ((-1) ** n) * t ** n * math.exp(-4 * t * t) \
            / math.factorial(n) * np.trace(toy.gamma @ acc)

    for n, order in ((0, 8), (2, 16), (4, 8)):
        tup = ((0.0, 0),) + tuple(i % 2 for i in range(n))
        got = jlo_component(toy, n, 0.7, tup, order=order)
        want = closed(n, 0.7, tup)
        assert abs(got - want) <= 1e-10, n


def _unitary(rng, k):
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# D = [[0, W*], [W, 0]] squares to diag(W*W, WW*), so the grading doubles
# every eigenvalue of D^2; the cases differ in the singular values of W:
# one, two distinct, two equal, and two whose squares are 1e-7 apart
SPECTRA = {"2x2": [1.3], "4x4-simple": [0.7, 1.6],
           "4x4-repeated": [1.2, 1.2],
           "4x4-split-1e-7": [1.2, math.sqrt(1.44 + 1e-7)]}


@pytest.mark.parametrize("case", sorted(SPECTRA))
def test_closed_form_matches_quadrature_oracle(case):
    # at t = 0.9 the nodes t^2 lambda stay below 2.1; there the oracle at
    # order 10 agrees with itself at order 16 within 4e-15 on these cases
    rng = np.random.default_rng(sorted(SPECTRA).index(case))
    sigmas = SPECTRA[case]
    k = len(sigmas)
    W = _unitary(rng, k) @ np.diag(sigmas) @ _unitary(rng, k)
    z = np.zeros((k, k))
    D = np.block([[z, W.conj().T], [W, z]])

    def block():
        return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))

    T = SpectralTriple([np.block([[block(), z], [z, block()]])
                        for _ in range(2)], D)
    t, order, tol = 0.9, 10, 1e-10
    for n in range(5):
        slot = (rng.normal(), [None, 0, 1][rng.integers(3)])
        tup = (slot,) + tuple(int(i) for i in rng.integers(2, size=n))
        got = jlo_component(T, n, t, tup)
        assert abs(got - quadrature.jlo_component(T, n, t, tup, order)) \
            <= tol, (n, tup)
        if n <= 3:
            got = cs_component(T, n, t, tup)
            assert abs(got - quadrature.cs_component(T, n, t, tup, order)) \
                <= tol, (n, tup)


def test_degenerate_rho_vanishes(alg):
    rho = [np.eye(2), np.eye(2)]
    D = np.array([[0.0, 1.0], [1.0, 0.0]])
    T = SpectralTriple(rho, D)
    for n in (1, 2, 3):
        tup = ((0.0, 0),) + tuple(0 for _ in range(n))
        assert abs(jlo_component(T, n, 0.8, tup, order=6)) == 0.0


def test_cocycle_identity(toy, toy4, alg):
    for T in (toy, toy4):
        for n in range(0, 4):
            for tup in (((0.0, 0),) + tuple(i % 2 for i in range(n)),
                        ((0.5, 1),) + tuple((i + 1) % 2 for i in range(n))):
                lhs = 0.0
                for c, tt in tuple_b(alg, tup):
                    lhs += c * jlo_component(T, n - 1, 0.9, tt, order=10)
                for c, tt in tuple_B(tup):
                    lhs += c * jlo_component(T, n + 1, 0.9, tt, order=10)
                assert abs(lhs) <= 1e-8, (n, tup)


def test_transgression_identity(toy4, alg):
    t, h = 0.8, 1e-5
    for n in range(0, 3):
        tup = ((0.0, 0),) + tuple(i % 2 for i in range(n))
        dchi = (jlo_component(toy4, n, t + h, tup, order=10)
                - jlo_component(toy4, n, t - h, tup, order=10)) / (2 * h)
        rhs = 0.0
        for c, tt in tuple_b(alg, tup):
            rhs += c * cs_component(toy4, n - 1, t, tt, order=10)
        for c, tt in tuple_B(tup):
            rhs += c * cs_component(toy4, n + 1, t, tt, order=10)
        assert abs(dchi - rhs) <= 1e-6, n


def test_cs_batched_consistent(toy4):
    # chi and cs on a t-grid equal their one-t readings; a grid and each of
    # its points are separate memo entries, so the tables are separate too
    ts = np.array([0.4, 0.9, 1.7])
    for transgression, one_t in ((False, jlo_component),
                                 (True, cs_component)):
        for m, tup in ((1, ((1.0, None), 0)), (2, ((0.5, 1), 0, 1)),
                       (3, ((1.0, None), 0, 1, 0))):
            batch = cochain_values(toy4, tup, ts, transgression)
            direct = np.array([one_t(toy4, m, t, tup, order=8) for t in ts])
            assert np.max(np.abs(batch - direct)) <= 1e-12
            assert np.any(direct != 0) == (m % 2 == transgression), (
                transgression, m)


def test_retraction_limit(toy, toy4):
    for T in (toy, toy4):
        F = interpolate_Du(T, 1.0)
        assert np.allclose(F.D @ F.D, np.eye(T.dim), atol=1e-12)
        for tup in (((0.0, 0), 0, 1), ((0.0, 1), 1, 0)):
            vT = chi_hat_T(T, 2, 8.0, tup, t_order=20)
            vI = chi_hat_infty_exact(F, 2, tup)
            assert abs(vT - vI) <= 1e-6


@pytest.mark.parametrize("n", [0, 2])
def test_retraction_limit_on_every_tuple(toy, toy4, n):
    # the finite-time retraction at T = 8 against the closed formula on
    # every tuple ((0, a0), a1, ..., an) over the base basis, within the
    # bound of the retraction-limit check
    for T in (toy, toy4):
        F = interpolate_Du(T, 1.0)
        for letters in itertools.product(range(len(T.rho)), repeat=n + 1):
            tup = ((0.0, letters[0]),) + letters[1:]
            vT = chi_hat_T(T, n, 8.0, tup, t_order=20)
            vI = chi_hat_infty_exact(F, n, tup)
            assert abs(vT - vI) <= 1e-6, (T.dim, tup)


@pytest.mark.parametrize("n", [0, 2, 4])
def test_float_retraction_equals_exact_formula(n):
    # chern.retracted_cocycle of triple2x2 read as a Fredholm bimodule over
    # Q (rho the two diagonal units, F = D |D|^{-1}) against the closed
    # float formula, on every degree-n form word whose slot is a basis
    # element (slot 0, the formal unit, is zero on both sides)
    from xchern.algebra import rationals
    from xchern.chern import FredholmBimodule, retracted_cocycle
    from xchern.cli import load_spec, load_spectral_triple
    from xchern.forms import FormSpace
    from xchern.scalars import ONE, to_complex
    from xchern.xcomplex import OmegaComplex, XGenerated
    qq, triple = load_spectral_triple(load_spec(os.path.join(
        SPECS, "triple2x2.json")))
    F = interpolate_Du(triple, 1.0)
    rho = [[[{0: ONE}, {}], [{}, {}]], [[{}, {}], [{}, {0: ONE}]]]
    fm = [[{}, {None: ONE}], [{None: ONE}, {}]]
    M = FredholmBimodule(qq, rationals(), 0, rho, fm, 1)
    chi = retracted_cocycle(M, n, OmegaComplex(FormSpace(qq, n + 1)),
                            XGenerated(rationals(), exact_quotient=True))
    words = [(u,) + letters for u in range(1, qq.dim + 1)
             for letters in itertools.product(range(qq.dim), repeat=n)]
    for word in words:
        vec, loss = chi.even_col(word)
        assert not loss and set(vec) == {0}, word
        want = chi_hat_infty_exact(F, n, ((0.0, word[0] - 1),) + word[1:])
        assert abs(to_complex(vec[0]) - want) <= 1e-12, word


def test_retraction_degenerate():
    rho = [np.eye(2), np.eye(2)]
    D = np.array([[0.0, 2.0], [2.0, 0.0]])
    T = SpectralTriple(rho, D)
    assert abs(chi_hat_T(T, 2, 4.0, ((0.0, 0), 0, 1),
                         t_order=12)) == 0.0


def test_T_dependence_is_coboundary_shape(toy, alg):
    # d/dT of the retraction is the transgressed tail: finite difference
    # against the stated sum of cs-values
    n, t0, h = 2, 2.0, 1e-4
    tup = ((0.0, 0), 0, 1)
    dT = (chi_hat_T(toy, n, t0 + h, tup, t_order=24)
          - chi_hat_T(toy, n, t0 - h, tup, t_order=24)) / (2 * h)
    # at degree k = n the derivative reduces to the cs-terms of levels <= n
    rhs = 0.0
    for c, tt in tuple_b(alg, tup):
        rhs += c * cs_component(toy, 1, t0, tt, order=10)
    assert abs(dT - rhs) <= 1e-6


def test_interpolate_Du(toy):
    Du = interpolate_Du(toy, 0.5)
    evals = np.sort(np.linalg.eigvalsh(Du.D))
    assert np.allclose(evals, [-2 ** 0.5, 2 ** 0.5], atol=1e-12)
    assert interpolate_Du(toy, 0.0) is toy
    F = interpolate_Du(toy, 1.0)
    assert np.allclose(np.abs(np.linalg.eigvalsh(F.D)), 1.0, atol=1e-12)


def test_interpolate_requires_invertible(alg):
    rho = [np.eye(2), np.eye(2)]
    D = np.array([[0.0, 0.0], [0.0, 0.0]])
    T = SpectralTriple(rho, D)
    with pytest.raises(ValueError):
        interpolate_Du(T, 0.5)


def test_homotopy_invariance_shadow(toy, alg):
    # the u-derivative of the retraction is a numerical coboundary
    n, h = 2, 0.02
    tuples = [((0.0, i), j, k) for i in range(2) for j in range(2)
              for k in range(2)]
    Dm = interpolate_Du(toy, 0.5 - h)
    Dp = interpolate_Du(toy, 0.5 + h)
    g = {}
    for tup in tuples:
        g[tup] = (chi_hat_T(Dp, n, 8.0, tup, t_order=12)
                  - chi_hat_T(Dm, n, 8.0, tup, t_order=12)) \
            / (2 * h)
    deg1 = [((0.0, i), j) for i in range(2) for j in range(2)] \
        + [((1.0, None), j) for j in range(2)]
    deg3 = [((0.0, i), j, k, l) for i in range(2) for j in range(2)
            for k in range(2) for l in range(2)] \
        + [((1.0, None), j, k, l) for j in range(2) for k in range(2)
           for l in range(2)]
    cols = deg1 + deg3
    A = np.zeros((len(tuples), len(cols)), dtype=complex)
    for cidx, psi_t in enumerate(cols):
        for ridx, tup in enumerate(tuples):
            coeff = 0.0
            for c, tt in tuple_b(alg, tup):
                if tt == psi_t:
                    coeff += c
            for c, tt in tuple_B(tup):
                if tt == psi_t:
                    coeff += c
            A[ridx, cidx] = coeff
    bvec = np.array([g[t] for t in tuples])
    sol, _, _, _ = np.linalg.lstsq(A, bvec, rcond=None)
    assert np.linalg.norm(A @ sol - bvec) <= 1e-6


def test_retract_table(toy):
    tuples = [((0.0, 0),), ((0.0, 0), 0), ((0.0, 0), 0, 1)]
    table = {tup: chi_hat_T(toy, 2, 6.0, tup, t_order=16)
             for tup in tuples}
    assert abs(table[((0.0, 0), 0)]) < 1e-12   # odd degree vanishes


# heat tables and multiset folds are memoized per triple: each (node count,
# t-grid) table is evaluated once, and a memo hit returns the same bits
SPECS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "specs")


@pytest.fixture
def simplex_calls(monkeypatch):
    """Counts _simplex_exp calls by their exact node array."""
    calls = collections.Counter()
    real = jlo._simplex_exp

    def counted(x):
        calls[x.shape, x.tobytes()] += 1
        return real(x)
    monkeypatch.setattr(jlo, "_simplex_exp", counted)
    return calls


def test_jlo_command_evaluates_each_table_once(simplex_calls, capsys):
    code = main(["jlo", os.path.join(SPECS, "triple2x2.json"), "--n", "2",
                 "--T", "8", "--emit", "json"])
    capsys.readouterr()
    assert code == 0
    # the cocycle, transgression and retraction checks read several node
    # counts at t = 0.9, 0.8 +- h, 0.8 and the retraction's t-grid
    assert len(simplex_calls) >= 10
    assert set(simplex_calls.values()) == {1}


def test_warm_and_fresh_triples_agree_bitwise():
    calls = []
    for n in range(4):
        for tup in (((0.0, 0),) + tuple(i % 2 for i in range(n)),
                    ((0.5, 1),) + tuple((i + 1) % 2 for i in range(n))):
            calls += [(jlo_component, (n, 0.9, tup), {}),
                      (cs_component, (n, 0.8, tup), {}),
                      (chi_hat_T, (2, 8.0, tup), {"t_order": 20})]
    warm = _toy4()
    first = [f(warm, *args, **kw) for f, args, kw in calls]
    again = [f(warm, *args, **kw) for f, args, kw in calls]
    fresh = [f(_toy4(), *args, **kw) for f, args, kw in calls]
    assert first == again == fresh
    assert any(v != 0 for v in first)


def test_tables_are_keyed_by_t_and_owned_by_their_triple(simplex_calls):
    tup = ((0.0, 0), 0, 1)
    triple = _toy4()
    v8 = jlo_component(triple, 2, 0.8, tup)
    assert sum(simplex_calls.values()) == 1
    v9 = jlo_component(triple, 2, 0.9, tup)
    assert sum(simplex_calls.values()) == 2
    assert jlo_component(triple, 2, 0.8, tup) == v8
    assert jlo_component(triple, 2, 0.9, tup) == v9
    assert sum(simplex_calls.values()) == 2
    assert v8 != v9
    assert v8 == jlo_component(_toy4(), 2, 0.8, tup)
    assert v9 == jlo_component(_toy4(), 2, 0.9, tup)
    # the interpolated triple has its own D, so its own tables
    Du = interpolate_Du(triple, 0.5)
    before = sum(simplex_calls.values())
    vu = jlo_component(Du, 2, 0.8, tup)
    assert sum(simplex_calls.values()) == before + 1
    assert vu != v8
    assert vu == jlo_component(interpolate_Du(_toy4(), 0.5), 2, 0.8, tup)
