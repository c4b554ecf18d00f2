"""Finite-dimensional associative algebras given by structure constants,
and the labelled-algebra protocol every exact complex is built over.

The structure table is sparse: mul[(i, j)] is a dict {k: coefficient} with
e_i * e_j = sum_k c * e_k, each c held as `scalars.coerce` gives it.
Algebras are not assumed unital; a unit, when present, is stored as a
coefficient vector (coerced alike) and checked.  An optional grading
assigns parity 0/1 to each basis element (used by super X-complexes).

A labelled algebra has hashable labels for a basis and provides:
  window             top filtration degree kept, or None when there is none
  basis()            the labels
  product_flag(l1, l2)
                     (dict over labels, loss flag): the product of two
                     basis labels, flagged when the truncation dropped a
                     term; the dict may be a shared table or memo entry,
                     which callers must not mutate
  parity(label)      0 or 1 (the Koszul grading; 0 when ungraded)
  generators()       labels that generate the algebra
  factor(label)      an ordered list of generators whose product is the
                     label ([] for a unit label)
  unit_dict()        the unit as a dict over labels, or None
  degree(label)      filtration degree (only where window is not None)
Elements of the unitalization are dicts over labels in which the key None
stands for the adjoined unit; dict_product multiplies them.  An Algebra
speaks the protocol itself: its labels are basis indices, each one its own
generator, and it has no window.  xcomplex.FedosovAlg, ZekriAlg and
TensorAlg are the truncated ones.
"""

import math
from fractions import Fraction

from .scalars import ONE, coerce
from .linalg import vec_axpy


class Algebra:
    def __init__(self, basis_names, mul, unit=None, grading=None, check=True,
                 name=None):
        self.dim = len(basis_names)
        self.basis_names = list(basis_names)
        self.mul = {}
        for (i, j), vec in mul.items():
            v = {k: coerce(c) for k, c in vec.items() if c}
            if v:
                self.mul[(i, j)] = v
        # a declared unit is kept even when it is zero, so that check_unit
        # turns the zero vector away
        self.unit = (None if unit is None
                     else {k: coerce(c) for k, c in unit.items() if c})
        self.grading = list(grading) if grading is not None else None
        self.name = name or "algebra"
        if check:
            self.check_associative()
            if self.unit is not None:
                self.check_unit()

    def product_basis(self, i, j):
        return self.mul.get((i, j), {})

    def parity(self, i):
        return self.grading[i] if self.grading is not None else 0

    # the labelled-algebra protocol of the module docstring
    window = None

    def basis(self):
        return list(range(self.dim))

    def product_flag(self, i, j):
        return self.mul.get((i, j), {}), False

    def generators(self):
        return self.basis()

    def factor(self, label):
        return [label]

    def unit_dict(self):
        return dict(self.unit) if self.unit else None

    def check_associative(self):
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mul.get((i, j), {})
                for k in range(self.dim):
                    left = {}
                    for l, c in ij.items():
                        vec_axpy(left, c, self.mul.get((l, k), {}))
                    right = {}
                    for l, c in self.mul.get((j, k), {}).items():
                        vec_axpy(right, c, self.mul.get((i, l), {}))
                    if left != right:
                        raise ValueError(
                            "non-associative structure constants at basis "
                            "triple (%d, %d, %d)" % (i, j, k))

    def check_unit(self):
        for i in range(self.dim):
            e = {i: ONE}
            if (dict_product(self, self.unit, e)[0] != e
                    or dict_product(self, e, self.unit)[0] != e):
                raise ValueError("declared unit is not a two-sided unit")


def integral_rescaling(alg):
    """alg on the basis f_i = D e_i, where D is the least common multiple
    of the denominators of its rational structure constants; alg itself
    when D = 1.

    The constants of the copy are D m_ijk, so each rational one is an int
    and each Scalar one stays a Scalar; its unit is the unit of alg over
    D.  The verdicts of the form calculus cannot tell the two apart:

    - phi(e_i) = f_i / D is an algebra isomorphism onto the copy, and it
      extends to the unitalizations by phi(1) = 1.
    - phi induces a degree-preserving DGA isomorphism of the truncated
      form spaces: a word goes to D^-k times the same word, where k counts
      its algebra letters (slot zero included unless it is the unit).
    - That isomorphism commutes with d, b, B, kappa and the Fedosov
      product, since these are natural in the algebra.
    - So an identity's column on a word, or a triple of words, of the
      copy is a power of D times phi of its column on the same label over
      alg, and phi sends only zero to zero; every loss flag, a degree
      test, is the same.  A column is zero, skipped or failing on both
      algebras or on neither.
    """
    D = math.lcm(*(c.denominator for vec in alg.mul.values()
                   for c in vec.values() if type(c) is Fraction))
    if D == 1:
        return alg
    mul = {ij: {k: D * c for k, c in vec.items()}
           for ij, vec in alg.mul.items()}
    unit = (None if alg.unit is None
            else {k: c * Fraction(1, D) for k, c in alg.unit.items()})
    return Algebra(alg.basis_names, mul, unit=unit, grading=alg.grading,
                   check=False, name=alg.name)


def dict_product(alg, u, v):
    """Product of two dicts over the labels of the labelled algebra alg, as
    (dict, loss flag); the key None is the adjoined unit."""
    out = {}
    loss = False
    for k1, c1 in u.items():
        for k2, c2 in v.items():
            if k1 is None:
                prod = {k2: ONE}
            elif k2 is None:
                prod = {k1: ONE}
            else:
                prod, l = alg.product_flag(k1, k2)
                loss = loss or l
            vec_axpy(out, c1 * c2, prod)
    return out, loss


def matrix_algebra(base, n, graded=False):
    """M_n(base); basis labels are (row, col, base label).

    With graded=True the checkerboard grading is installed: an entry is even
    when (row + col + parity of its base element) is even.
    """
    if n < 1:
        raise ValueError("matrix size must be positive")
    names = []
    index = {}
    for r in range(n):
        for c in range(n):
            for b in range(base.dim):
                index[(r, c, b)] = len(names)
                names.append((r, c, base.basis_names[b]))
    mul = {}
    for r in range(n):
        for c in range(n):
            for b1 in range(base.dim):
                i = index[(r, c, b1)]
                for c2 in range(n):
                    for b2 in range(base.dim):
                        j = index[(c, c2, b2)]
                        tab = base.product_basis(b1, b2)
                        if tab:
                            mul[(i, j)] = {index[(r, c2, k)]: v
                                           for k, v in tab.items()}
    unit = None
    if base.unit is not None:
        unit = {}
        for r in range(n):
            for b, c in base.unit.items():
                unit[index[(r, r, b)]] = c
    grading = None
    if graded:
        grading = [((r + c + base.parity(b)) % 2)
                   for r in range(n) for c in range(n) for b in range(base.dim)]
    return Algebra(names, mul, unit=unit, grading=grading, check=False)


# ---------------------------------------------------------------------------
# corpus constructors
# ---------------------------------------------------------------------------


def dual_numbers():
    """Q[eps]/(eps^2), basis (1, eps)."""
    mul = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}}
    return Algebra(["1", "eps"], mul, unit={0: ONE}, name="dual")


def matrix_units(n):
    """M_n(Q) on matrix-unit basis."""
    scalars = Algebra(["1"], {(0, 0): {0: ONE}}, unit={0: ONE}, name="Q",
                      check=False)
    return matrix_algebra(scalars, n)


def group_algebra_z2():
    """Q[Z/2], basis (1, g) with g^2 = 1."""
    mul = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE},
           (1, 1): {0: ONE}}
    return Algebra(["1", "g"], mul, unit={0: ONE}, name="QZ2")


def split_pair():
    """Q + Q, two orthogonal idempotents."""
    mul = {(0, 0): {0: ONE}, (1, 1): {1: ONE}}
    return Algebra(["e1", "e2"], mul, unit={0: ONE, 1: ONE}, name="QQ")


def rationals():
    return Algebra(["1"], {(0, 0): {0: ONE}}, unit={0: ONE}, name="Q")

