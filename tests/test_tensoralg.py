import pytest

from xchern.scalars import ONE
from xchern.algebra import dict_product
from xchern.forms import FormSpace
from xchern.linalg import Span, vec_axpy
from xchern.tensoralg import (to_forms, from_forms, truncated_tensor_algebra,
                              ideal_power, tensor_words)
from xchern.xcomplex import TensorAlg
from xchern.quasihom import lift_words


def test_to_forms_examples(dual):
    sp = FormSpace(dual, 6)
    # a (x) b -> ab - da db
    assert to_forms({(1, 1): ONE}, sp) == ({(0, 1, 1): -ONE}, False)
    # single letter
    assert to_forms({(1,): ONE}, sp)[0] == {(2,): ONE}
    # linear in the coefficient dict
    assert to_forms({(1,): 3, (1, 1): ONE}, sp)[0] \
        == {(2,): 3, (0, 1, 1): -ONE}


def test_from_forms_curvature(dual):
    sp = FormSpace(dual, 6)
    # a0 (x) omega(a1, a2) corresponds to a0 da1 da2
    terms, lossy = from_forms(sp, {(1, 0, 1): ONE}, 4)
    # 1 d(1) d(eps): a0=1: 1 (x) (1*eps - 1 (x) eps)
    assert terms == {(0, 1): ONE, (0, 0, 1): -ONE}
    assert not lossy
    # a window too short for the length-3 word drops it and flags a loss
    assert from_forms(sp, {(1, 0, 1): ONE}, 2) == ({(0, 1): ONE}, True)


def test_roundtrip(corpus_algebras):
    for alg in corpus_algebras:
        sp = FormSpace(alg, 8)
        for w in tensor_words(alg.dim, 3):
            form, lossy = to_forms({w: ONE}, sp)
            assert not lossy, (alg.name, w)
            assert from_forms(sp, form, 3) == ({w: ONE}, False), (alg.name, w)
        for n in (0, 2, 4):
            for word in sp.basis_words(n):
                terms, lossy = from_forms(sp, {word: ONE}, n + 1)
                assert not lossy, (alg.name, word)
                again, lossy = to_forms(terms, sp)
                assert not lossy, (alg.name, word)
                assert again == {word: ONE}, (alg.name, word)


def test_from_forms_rejects_odd(dual):
    sp = FormSpace(dual, 4)
    with pytest.raises(ValueError):
        from_forms(sp, {(1, 0): ONE}, 3)


def test_mult_map_kills_curvature(corpus_algebras):
    # the multiplication map T(A) -> A, a1 x ... x an -> a1 ... an, kills
    # the image of every form of positive even degree
    for alg in corpus_algebras:
        sp = FormSpace(alg, 4)
        for word in sp.basis_words(2) + sp.basis_words(4):
            terms, lossy = from_forms(sp, {word: ONE}, 5)
            assert not lossy, (alg.name, word)
            out = {}
            for w, c in terms.items():
                prod = {w[0]: c}
                for i in w[1:]:
                    prod = dict_product(alg, prod, {i: ONE})[0]
                vec_axpy(out, ONE, prod)
            assert out == {}, (alg.name, word)


def test_truncated_tensor_algebra(dual):
    talg = truncated_tensor_algebra(dual, 3)
    assert talg.dim == 2 + 4 + 8
    talg.check_associative()


def _lift(rho, target, max_len):
    return lift_words(rho.__getitem__,
                      TensorAlg(target, max_len, unital=True))


def test_lift_hom_identity(dual):
    # N = 1, rho = id: words map to themselves
    rho = [[[{i: ONE}]] for i in range(dual.dim)]
    m, loss = _lift(rho, dual, 3)((0, 1))
    assert not loss and m[0][0] == {(0, 1): ONE}
    # a word longer than the target window is dropped and flagged
    m, loss = _lift(rho, dual, 1)((0, 1))
    assert loss and m[0][0] == {}


def test_lift_hom_matrix_letters(dual):
    # rho(a) = m (x) 1: matrix parts multiply, unit letters merge
    rho = [
        [[{None: ONE}, {}], [{}, {None: ONE}]],        # 1 -> id
        [[{}, {None: ONE}], [{}, {}]],                 # eps -> e12 x 1
    ]
    lift = _lift(rho, dual, 3)
    m, _ = lift((1, 1))
    assert all(not e for row in m for e in row)        # e12^2 = 0
    m2, _ = lift((0, 1))
    assert m2[0][1] == {(): ONE}


def test_lift_hom_with_target_letters(dual, qq):
    # rho(eps) = e12 (x) b1: target letters stay tensored
    rho = [
        [[{None: ONE}, {}], [{}, {None: ONE}]],
        [[{}, {0: ONE}], [{}, {}]],
    ]
    m, _ = _lift(rho, qq, 4)((1,))
    assert m[0][1] == {(0,): ONE}


def test_ideal_power_curvature(dual):
    # J-power 1 in the window equals the even forms of degree >= 2
    talg = truncated_tensor_algebra(dual, 3)
    _, _, index, words = talg.tensor_info
    sp = FormSpace(dual, 4)
    gens = []
    for a in range(dual.dim):
        for bb in range(dual.dim):
            terms, _ = from_forms(sp, {(0, a, bb): ONE}, 3)
            gens.append({index[w]: c for w, c in terms.items()})
    ib = ideal_power(talg, gens, 1)
    expect = []
    for n in (2, 4):
        for word in sp.basis_words(n):
            terms, _ = from_forms(sp, {word: ONE}, 3)
            expect.append({index[w]: c for w, c in terms.items()})
    span = Span(expect)
    assert ib.dim == span.dim
    for row in expect:
        assert ib.contains(row)
    # powers nest
    ib2 = ideal_power(talg, gens, 2)
    for row in ib2.basis():
        assert ib.contains(row)
    assert ib2.dim <= ib.dim


def test_ideal_power_zero_generators(dual):
    talg = truncated_tensor_algebra(dual, 2)
    ib = ideal_power(talg, [], 1)
    assert ib.dim == 0
