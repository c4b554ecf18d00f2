"""Identities on generated algebras whose structure constants leave the
integers: seeded rational rebasings of dual and z2, z2 with the Gaussian
generator (1+i)g, and z2 with the generator sqrt(pi)g, whose square is
pi times the unit.  These reach the Fraction and Scalar tiers of the
coefficient tower, which the integer corpus never does.

A rebasing is an isomorphism, so every quotient dimension must equal the
one of the algebra it came from.
"""

import math
import random
from fractions import Fraction

import pytest

import xreference
from xchern.scalars import Scalar, SQRT_PI, inv, is_rational
from xchern.algebra import (Algebra, dual_numbers, group_algebra_z2,
                            integral_rescaling, matrix_units, split_pair)
from xchern import forms as F
from xchern.forms import FormSpace
from xchern.xcomplex import (XGenerated, FedosovAlg, verify_dd,
                             hodge_filtration)
from xchern.cli import Report, dga_suite

SMALL = [Fraction(k, d) for k in range(-3, 4) if k for d in (1, 2, 3)]


def rebase(alg, P, name):
    """alg in the basis f_a = sum_i P[a][i] e_i: f_a f_b = sum_ij P_ai P_bj
    e_i e_j, and e_k = sum_c Q_kc f_c with Q = P^-1."""
    n = alg.dim
    Q = inverse(P)

    def in_f(in_e, col):
        acc = in_e[0] * Q[0][col]
        for k in range(1, n):
            acc = acc + in_e[k] * Q[k][col]
        return acc
    mul = {}
    for x in range(n):
        for y in range(n):
            in_e = [0] * n
            for i in range(n):
                for j in range(n):
                    for k, v in alg.product_basis(i, j).items():
                        in_e[k] = in_e[k] + P[x][i] * P[y][j] * v
            mul[(x, y)] = {col: in_f(in_e, col) for col in range(n)}
    unit = [alg.unit.get(k, 0) for k in range(n)]
    return Algebra(["f%d" % a for a in range(n)], mul,
                   unit={col: in_f(unit, col) for col in range(n)},
                   name=name)


def inverse(P):
    """P^-1 by Gauss-Jordan elimination, or None when P is singular."""
    n = len(P)
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(P)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = inv(rows[col][col])
        rows[col] = [x * scale for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def rational_rebasing(make, seed):
    """A seeded rational change of basis with a non-integer constant."""
    rng = random.Random(seed)
    alg = make()
    while True:
        P = [[rng.choice(SMALL) for _ in range(alg.dim)]
             for _ in range(alg.dim)]
        if inverse(P) is None:
            continue
        rebased = rebase(alg, P, "rebased")
        if any(type(c) is Fraction and c.denominator != 1
               for vec in rebased.mul.values() for c in vec.values()):
            return rebased


GENERATED = {
    "dual-rebased": (dual_numbers,
                     lambda: rational_rebasing(dual_numbers, 3)),
    "z2-rebased": (group_algebra_z2,
                   lambda: rational_rebasing(group_algebra_z2, 5)),
    "z2-gaussian": (group_algebra_z2,
                    lambda: rebase(group_algebra_z2(),
                                   [[1, 0], [0, Scalar.gaussian(1, 1)]],
                                   "z2-gaussian")),
    "z2-sqrt-pi": (group_algebra_z2,
                   lambda: rebase(group_algebra_z2(), [[1, 0], [0, SQRT_PI]],
                                  "z2-sqrt-pi")),
}


RESCALED = {
    "m2-rebased": lambda: rational_rebasing(lambda: matrix_units(2), 7),
    "dual-rebased": GENERATED["dual-rebased"][1],
    "z2-gaussian": GENERATED["z2-gaussian"][1],
    "z2-sqrt-pi": GENERATED["z2-sqrt-pi"][1],
    # f0 f0 = f0 / 2 and f1 f1 = 4i f0: a Fraction and a Scalar in one table
    "z2-half-gaussian": lambda: rebase(
        group_algebra_z2(), [[Fraction(1, 2), 0], [0, Scalar.gaussian(1, 1)]],
        "z2-half-gaussian"),
}


@pytest.mark.parametrize("name", list(RESCALED))
def test_integral_rescaling(name):
    """The copy on f_i = D e_i: its rational constants are ints, its Scalar
    constants stay Scalars, e_i -> f_i / D multiplies on every pair of
    basis elements, and an integer table comes back as it is."""
    alg = RESCALED[name]()
    D = math.lcm(*(c.denominator for vec in alg.mul.values()
                   for c in vec.values() if type(c) is Fraction))
    copy = integral_rescaling(alg)
    assert (D == 1) == (name in ("z2-gaussian", "z2-sqrt-pi"))
    if D == 1:
        assert copy is alg
    for i in range(alg.dim):
        for j in range(alg.dim):
            old, new = alg.product_basis(i, j), copy.product_basis(i, j)
            # phi(e_i) phi(e_j) = f_i f_j / D^2 is phi(e_i e_j) =
            # sum_k m_ijk f_k / D
            assert {k: c * Fraction(1, D) for k, c in new.items()} == old
            for k, c in new.items():
                assert type(c) is (Scalar if type(old[k]) is Scalar
                                   else int), (i, j, k, c)
    assert copy.unit == {k: c * Fraction(1, D) for k, c in alg.unit.items()}
    copy.check_associative()
    copy.check_unit()


def test_integer_constants_are_stored_as_ints():
    """A table built in code holds each integer constant and unit entry as
    an int, whether it was passed as a Fraction or as a rational Scalar."""
    alg = rational_rebasing(lambda: matrix_units(2), 7)
    entries = [c for vec in alg.mul.values() for c in vec.values()]
    entries += list(alg.unit.values())
    assert [c for c in entries if type(c) is Fraction
            and c.denominator == 1] == []
    assert type(alg.mul[(0, 0)][3]) is int
    one = Algebra(["1"], {(0, 0): {0: Scalar.from_int(1)}},
                  unit={0: Fraction(2, 2)})
    assert type(one.mul[(0, 0)][0]) is int and type(one.unit[0]) is int


def quotient_dims(alg, window):
    """Dimensions of the level-1 Hodge quotient of the forms up to window."""
    sp = FormSpace(alg, window)
    ev, od = hodge_filtration(sp, 1)
    return (sum(sp.dim_degree(n) for n in range(0, window + 1, 2)) - ev.dim,
            sum(sp.dim_degree(n) for n in range(1, window + 1, 2)) - od.dim)


def test_generated_tables_leave_the_integers():
    tiers = {name: {type(c) for vec in make().mul.values()
                    for c in vec.values()}
             for name, (_, make) in GENERATED.items()}
    for name in ("dual-rebased", "z2-rebased"):
        assert Fraction in tiers[name]
    for name in ("z2-gaussian", "z2-sqrt-pi"):
        assert Scalar in tiers[name]
    gauss = GENERATED["z2-gaussian"][1]()
    assert gauss.product_basis(1, 1) == {0: Scalar.gaussian(0, 2)}
    pi = GENERATED["z2-sqrt-pi"][1]()
    square = pi.product_basis(1, 1)[0]
    assert square == SQRT_PI * SQRT_PI and not is_rational(square)


@pytest.mark.parametrize("name", list(GENERATED))
def test_identities_on_generated_algebras(name):
    original, make = GENERATED[name]
    alg = make()
    report = Report(["verify-dga", name])
    dga_suite(alg, 3, report)
    assert report.ok, report.emit("text")
    x_alg = XGenerated(alg, exact_quotient=True)
    x_fedosov = XGenerated(FedosovAlg(FormSpace(alg, 2)), exact_quotient=True)
    for cx in (x_alg, x_fedosov):
        rep = verify_dd(cx)
        assert rep["checked"] and rep["ok"], type(cx.alg).__name__
    assert quotient_dims(alg, 3) == quotient_dims(original(), 3)
    # the commutator quotient is an invariant of the algebra too
    x_original = XGenerated(original(), exact_quotient=True)
    assert len(x_alg.odd_basis()) == len(x_original.odd_basis())


CORPUS = {"dual": dual_numbers, "m2": lambda: matrix_units(2),
          "z2": group_algebra_z2, "qq": split_pair}


@pytest.mark.parametrize("name", list(CORPUS) + list(GENERATED))
def test_closed_form_word_operators_match_oracles(name):
    """Bar-formula b, cyclic-sum B and the merge sum w * e_j against the
    Leibniz and kappa-iterated oracles, values and loss flags, on every
    word up to degree 4 and every letter; B also on the degree-5 words,
    where d leaves the window unless the word is exact."""
    alg = CORPUS[name]() if name in CORPUS else GENERATED[name][1]()
    sp = FormSpace(alg, 5)
    for n in range(5):
        for w in sp.basis_words(n):
            assert F._b_word(sp, w) == xreference.b_word(sp, w), w
            assert F._B_word(sp, w) == xreference.B_word(sp, w), w
            for j in range(alg.dim):
                assert (F._right_mul_word(sp, w, j)
                        == xreference.right_mul_word(sp, w, j)), (w, j)
    for w in sp.basis_words(5):
        assert (F._B_word(sp, w) == xreference.B_word(sp, w)
                == ({}, w[0] != 0)), w


def _whole_fractions(vec):
    return [c for c in vec.values()
            if type(c) is Fraction and c.denominator == 1]


@pytest.mark.parametrize("name", ["dual-rebased", "z2-rebased"])
def test_integer_valued_sums_are_stored_as_ints(name):
    """The integer tier: a plain int for every integer-valued entry of the
    operator images and of the commutator relations over rational tables."""
    alg = GENERATED[name][1]()
    sp = FormSpace(alg, 3)
    for fn in (F._b_word, F._kappa_word, F._B_word):
        for n in range(4):
            for w in sp.basis_words(n):
                vec = dict(F._pairs(F._image(sp, fn, w)[0]))
                assert not _whole_fractions(vec), (fn.__name__, w, vec)
    for w1 in sp.basis_words(1):
        for w2 in sp.basis_words(2):
            vec, _ = F.fedosov_words(sp, w1, w2)
            assert not _whole_fractions(vec), (w1, w2, vec)
    rows = XGenerated(FedosovAlg(FormSpace(alg, 2)),
                      exact_quotient=True).relations().rows
    assert rows and not any(_whole_fractions(r) for r in rows.values())
