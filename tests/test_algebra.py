import random

from xchern.scalars import Scalar, ONE
from xchern.algebra import (Algebra, matrix_algebra, matrix_units,
                            dict_product)


def test_multiply_examples(dual, m2, z2):
    eps = {1: ONE}
    assert dict_product(dual, eps, eps)[0] == {}
    # matrix units: e12 e21 = e11
    names = {tuple(n[:2]): i for i, n in enumerate(m2.basis_names)}
    e12 = {names[(0, 1)]: ONE}
    e21 = {names[(1, 0)]: ONE}
    assert dict_product(m2, e12, e21)[0] == {names[(0, 0)]: ONE}
    g = {1: ONE}
    assert dict_product(z2, g, g)[0] == {0: ONE}
    # bilinear: (2 + eps)(2 - eps) = 4
    assert dict_product(dual, {0: 2, 1: ONE}, {0: 2, 1: -ONE})[0] == {0: 4}


def test_matrix_algebra_dims(dual):
    ma = matrix_algebra(dual, 2)
    assert ma.dim == 8
    assert matrix_algebra(dual, 1).dim == dual.dim


def test_matrix_algebra_block_products(dual):
    ma = matrix_algebra(dual, 2)
    idx = {(n[0], n[1], n[2]): i for i, n in enumerate(ma.basis_names)}
    x = {idx[(0, 1, "eps")]: ONE}
    y = {idx[(1, 0, "eps")]: ONE}
    assert dict_product(ma, x, y)[0] == {}


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


def test_unital_element_product(dual):
    # the unitalization as label dicts: the key None is the adjoined unit
    one = {None: ONE}
    a = {1: ONE}
    assert dict_product(dual, one, a) == (a, False)
    assert dict_product(dual, a, a) == ({}, False)

