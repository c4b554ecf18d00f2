import random

import pytest

from xchern.scalars import Scalar, ONE
from xchern.algebra import (Algebra, Homomorphism, check_hom, multiply,
                            matrix_algebra, unitalize, dual_numbers,
                            matrix_units, group_algebra_z2, split_pair,
                            rationals)
from xchern.xcomplex import TableAlg, _seq_dict_product


def test_multiply_examples(dual, m2, z2):
    eps = dual.basis_element(1)
    assert multiply(eps, eps).is_zero()
    # matrix units: e12 e21 = e11
    names = {tuple(n[:2]): i for i, n in enumerate(m2.basis_names)}
    e12 = m2.basis_element(names[(0, 1)])
    e21 = m2.basis_element(names[(1, 0)])
    assert multiply(e12, e21) == m2.basis_element(names[(0, 0)])
    g = z2.basis_element(1)
    assert multiply(g, g) == z2.basis_element(0)


def test_multiply_rejects_mismatch(dual, z2):
    with pytest.raises(ValueError):
        multiply(dual.basis_element(0), z2.basis_element(0))


def test_matrix_algebra_dims(dual):
    ma = matrix_algebra(dual, 2)
    assert ma.dim == 8
    assert matrix_algebra(dual, 1).dim == dual.dim


def test_matrix_algebra_block_products(dual):
    ma = matrix_algebra(dual, 2)
    idx = {(n[0], n[1], n[2]): i for i, n in enumerate(ma.basis_names)}
    x = ma.basis_element(idx[(0, 1, "eps")])
    y = ma.basis_element(idx[(1, 0, "eps")])
    assert multiply(x, y).is_zero()


def test_matrix_algebra_associative_on_corpus(corpus_algebras):
    for alg in corpus_algebras:
        for n in (2, 3):
            if alg.dim * n * n > 40:
                continue
            matrix_algebra(alg, n).check_associative()
    matrix_algebra(matrix_units(2), 3).check_associative()


def test_constructor_rejects_nonassociative():
    rng = random.Random(7)
    rejected = 0
    for _ in range(40):
        dim = rng.choice((2, 3))
        mul = {}
        for i in range(dim):
            for j in range(dim):
                vec = {k: Scalar.from_int(rng.randint(-1, 1))
                       for k in range(dim)}
                vec = {k: c for k, c in vec.items() if c}
                if vec:
                    mul[(i, j)] = vec
        try:
            Algebra(["x%d" % i for i in range(dim)], mul)
        except ValueError:
            rejected += 1
    assert rejected > 0


def test_check_hom_examples(dual, m2):
    ident = Homomorphism.identity(m2)
    assert check_hom(ident)
    # eps -> 1 is not multiplicative into the scalars
    with pytest.raises(ValueError):
        Homomorphism(dual, rationals(), [{0: ONE}, {0: ONE}])
    zero = Homomorphism(dual, rationals(), [{}, {}])
    assert check_hom(zero)


def test_unital_element_product(dual):
    # the unitalization as label dicts: the key None is the adjoined unit
    alg = TableAlg(dual)
    one = {None: ONE}
    a = {1: ONE}
    assert _seq_dict_product(alg, one, a) == (a, False)
    assert _seq_dict_product(alg, a, a) == ({}, False)


def test_unitalize(dual):
    ud = unitalize(dual)
    assert ud.dim == 3
    u = ud.basis_element(0)
    x = ud.basis_element(2)
    assert multiply(u, x) == x
    ud.check_associative()
