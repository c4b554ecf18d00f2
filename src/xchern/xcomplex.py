"""Z2-graded X-complexes of labelled algebras (see the algebra module).

The even part of X(R) is R itself; the odd part is the quotient of
one-forms by (super)commutators.  For algebras presented by generators the
quotient has a canonical spanning family: classes of z.d(g) with z in the
unitalization of R (None denotes the formal unit) and g a generator.  The
reduction of a general z.d(y) runs the Leibniz rule through an ordered
factorization of y and the trace property, with Koszul signs read from
the parities of the algebra's labels (all 0 in an ungraded algebra).

The honest quotient comes from the span of the classes red([r, z.dg]).
On a truncated algebra with a filtration degree (FedosovAlg, ZekriAlg,
TensorAlg) that span is built only from the triples whose degrees leave
room under the window, since the others are provably empty.  One class
evaluator (_Classes) shares the prefix and suffix products of each
factorization and flags the classes whose products dropped a term; the
relations, omega1_vec and the boundaries all read it.  It keys its vectors
through a key table: for omega1_vec and the boundaries the label table,
whose key of (z, g) is that label; inside a relations build the id table,
which numbers the labels (z, g) by label_key so that the relation vectors
and their span run on ints until the rows are decoded once at the end.
"""

import itertools
import math
from fractions import Fraction

from .scalars import ZERO, ONE
from .linalg import (vec_add, vec_axpy, vec_scale, Span, label_key, solve,
                     check_columns)
from .algebra import dict_product
from . import forms as F
from . import tensoralg as T


# ---------------------------------------------------------------------------
# truncated labelled algebras (the protocol: the algebra module docstring)
# ---------------------------------------------------------------------------


class FedosovAlg:
    """Truncated forms with the full Fedosov product; labels are form words.

    Truncation is the quotient by forms of degree above the window, so the
    product is exactly associative; a loss flag reports when a product fell
    out of the window (where values differ from the untruncated algebra).
    The filtration degree of a word is its form degree, and the window is
    the top degree kept.
    """

    def __init__(self, space, graded=False):
        self.space = space
        self.window = space.max_degree
        self.graded = graded
        self._memo = {}

    def basis(self):
        return [w for n in range(self.space.max_degree + 1)
                for w in self.space.basis_words(n)]

    def product_flag(self, l1, l2):
        key = (l1, l2)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = F.fedosov_words(self.space, l1, l2)
        return hit

    def degree(self, label):
        return len(label) - 1

    def parity(self, label):
        return (len(label) - 1) % 2 if self.graded else 0

    def generators(self):
        dim = self.space.algebra.dim
        return [(u,) for u in range(1, dim + 1)] + [(0, i) for i in range(dim)]

    def factor(self, label):
        out = []
        if label[0] != 0:
            out.append((label[0],))
        for i in label[1:]:
            out.append((0, i))
        return out

    def unit_dict(self):
        return None


class ZekriAlg:
    """Crossed product of the unitalized Fedosov algebra by the parity
    involution; labels are (flag, word) with word = () the unit part and
    flag = 1 carrying the symmetry, which has degree 0 like the unit part."""

    SYMMETRY = (1, ())

    def __init__(self, space):
        self.space = space
        self.window = space.max_degree
        self._memo = {}

    def basis(self):
        words = [()] + [w for n in range(self.space.max_degree + 1)
                        for w in self.space.basis_words(n)]
        return [(f, w) for f in (0, 1) for w in words]

    def product_flag(self, l1, l2):
        key = (l1, l2)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        f1, w1 = l1
        f2, w2 = l2
        if w1 == ():
            prod, loss = {w2: ONE}, False
        elif w2 == ():
            prod, loss = {w1: ONE}, False
        else:
            prod, loss = F.fedosov_words(self.space, w1, w2)
        # (w1 X^f1)(w2 X^f2) = w1 tau^f1(w2) X^(f1+f2)
        sign = ONE
        if f1 == 1 and w2 != () and (len(w2) - 1) % 2 == 1:
            sign = -ONE
        flag = (f1 + f2) % 2
        hit = self._memo[key] = ({(flag, w): sign * c
                                  for w, c in prod.items()}, loss)
        return hit

    def degree(self, label):
        return len(label[1]) - 1 if label[1] else 0

    def parity(self, label):
        return 0

    def generators(self):
        dim = self.space.algebra.dim
        gens = [(0, (u,)) for u in range(1, dim + 1)]
        gens += [(0, (0, i)) for i in range(dim)]
        gens.append(self.SYMMETRY)
        return gens

    def factor(self, label):
        flag, word = label
        out = []
        if word != ():
            if word[0] != 0:
                out.append((0, (word[0],)))
            for i in word[1:]:
                out.append((0, (0, i)))
        if flag:
            out.append(self.SYMMETRY)
        return out

    def unit_dict(self):
        return {(0, ()): ONE}


class TensorAlg:
    """Truncated tensor algebra over a labelled coefficient algebra; labels
    are tuples of coefficient labels, with () the unit when unital.  The
    filtration degree of a word is its length, and the window max_len."""

    def __init__(self, coeff, max_len, unital=False):
        self.coeff = coeff
        self.max_len = max_len
        self.window = max_len
        self.unital = unital

    def basis(self):
        base = self.coeff.basis()
        out = [()] if self.unital else []
        for n in range(1, self.max_len + 1):
            out.extend(itertools.product(base, repeat=n))
        return out

    def product_flag(self, l1, l2):
        if len(l1) + len(l2) > self.max_len:
            return {}, True
        return {l1 + l2: ONE}, False

    def degree(self, label):
        return len(label)

    def parity(self, label):
        return sum(self.coeff.parity(l) for l in label) % 2

    def generators(self):
        return [(l,) for l in self.coeff.basis()]

    def factor(self, label):
        return [(l,) for l in label]

    def unit_dict(self):
        return {(): ONE} if self.unital else None


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


class _Classes:
    """Classes of z.d(y) as (vector, loss flag); the memo hands out its
    vectors, which callers must not mutate.

    The vectors are keyed through the key table keys, which maps each
    generator g to {z: key of (z, g)} over z in None and the basis: the
    label table (the key of (z, g) is the label itself) for omega1_vec and
    the boundaries, the id table of XGenerated.relations inside a build.

    Rotation i of the factorization y = f_0 ... f_{m-1} is taken as
    (suffix_i . z) . prefix_i, with suffix_i = f_{i+1} ... f_{m-1} and
    prefix_i = f_0 ... f_{i-1} multiplied once per y.  suffix_i . z is
    summed first, so that only its surviving terms meet prefix_i, and
    their products with prefix_i go into the vector in place.  The loss
    flag ORs the flags of every product taken, those of the prefixes and
    suffixes included (why that is sound: XGenerated.relations).  Only the
    keys of the lossy classes are kept beside the vectors."""

    def __init__(self, alg, keys):
        self.alg = alg
        self.keys = keys
        self.memo = {}  # (z, y) -> class vector
        self.lossy = set()  # the keys of memo whose products dropped terms
        self._rotations = {}  # y -> (rotations, loss of their products)

    def _rotations_of(self, y):
        hit = self._rotations.get(y)
        if hit is None:
            alg = self.alg
            fac = alg.factor(y)
            pars = [alg.parity(f) for f in fac]
            loss = False
            # suffix_i is folded on from suffix_{i+1}, prefix_i from
            # prefix_{i-1}; p_suf and p_pre, the parities of suffix_i and of
            # f_0 ... f_i, give the Koszul sign
            suffixes = [{None: ONE}]
            for f in fac[:0:-1]:
                suffix, l = dict_product(alg, {f: ONE}, suffixes[-1])
                suffixes.append(suffix)
                loss = loss or l
            rotations = []
            prefix = {None: ONE}
            for i, f in enumerate(fac):
                rotations.append((self.keys[f], prefix, suffixes[-1 - i],
                                  sum(pars[i + 1:]) % 2,
                                  sum(pars[:i + 1]) % 2))
                if i + 1 < len(fac):
                    prefix, l = dict_product(alg, prefix, {f: ONE})
                    loss = loss or l
            hit = self._rotations[y] = (rotations, loss)
        return hit

    def __call__(self, z, y):
        key = (z, y)
        vec = self.memo.get(key)
        if vec is not None:
            return vec, key in self.lossy
        alg = self.alg
        product_flag = alg.product_flag
        pz = 0 if z is None else alg.parity(z)
        rotations, loss = self._rotations_of(y)
        vec = self.memo[key] = {}
        for keys, prefix, suffix, p_suf, p_pre in rotations:
            left = {}  # suffix . z
            for k1, c1 in suffix.items():
                if k1 is None or z is None:
                    prod = {z if k1 is None else k1: ONE}
                else:
                    prod, l = product_flag(k1, z)
                    loss = loss or l
                vec_axpy(left, c1, prod)
            sign = -ONE if p_suf and (pz + p_pre) % 2 else ONE
            for k1, c1 in left.items():
                for k2, c2 in prefix.items():
                    if k1 is None:
                        prod = {k2: ONE}
                    elif k2 is None:
                        prod = {k1: ONE}
                    else:
                        prod, l = product_flag(k1, k2)
                        loss = loss or l
                    coeff = sign * c1 * c2
                    # vec_axpy's update, inlined in the build's hottest loop
                    for lab, c in prod.items():
                        k = keys[lab]
                        s = vec.get(k)
                        s = coeff * c if s is None else s + coeff * c
                        if s:
                            vec[k] = (s.numerator if type(s) is Fraction
                                      and s.denominator == 1 else s)
                        elif k in vec:
                            del vec[k]
        if loss:
            self.lossy.add(key)
        return vec, loss


class _Paired(dict):
    """{z: (z, g)} for one generator g, filled in as it is read."""

    def __init__(self, g):
        super().__init__()
        self.g = g

    def __missing__(self, z):
        key = self[z] = (z, self.g)
        return key


class _LabelTable(dict):
    """The label table of _Classes, filled in as it is read: the basis of a
    truncated tensor algebra can be far too large to list."""

    def __missing__(self, g):
        row = self[g] = _Paired(g)
        return row


class XGenerated:
    """X-complex in the canonical generated presentation.

    Even vectors are dicts over algebra labels; odd vectors are dicts over
    (z, g) with z a label or None and g a generator label.  That family
    spans the commutator quotient but is not independent when the
    generators satisfy algebraic relations (internal units, X^2 = 1 and
    the like); exact_quotient additionally reduces modulo the span of all
    commutator classes, which yields the honest quotient.  For free tensor
    algebras the extra span is zero and the flag is unnecessary."""

    def __init__(self, alg, exact_quotient=False):
        self.alg = alg
        # omega1_vec and the boundaries read the classes on the label table
        self._classes = _Classes(alg, _LabelTable())
        self.exact_quotient = exact_quotient
        self._relations = None

    def _ranked_odd_labels(self):
        zs = [None] + self.alg.basis()
        gens = self.alg.generators()
        return sorted(((z, g) for z in zs for g in gens), key=label_key)

    def relations(self):
        """Span of the reduced commutator classes red([r, z.dg]).

        Only triples (z, g, r) with deg z + deg r <= window are built
        (deg None = 0), or <= window + 1 when g is the symmetry X of
        ZekriAlg; on an algebra without a window (Algebra) every triple
        is.  A skipped triple's vector is structurally empty.

        Every generator has degree <= 1, factor degrees add up to the
        degree of the factored label, and products never lower degree.
        Each term of the vector is either (rz, g) or a rotation label
        paired with one factor of the factorization of gr (classes of
        z.d(y)) or of r (classes of k.dr, k in zg), and its algebra part is
        the product of all the other factors with z, resp. k.  Let D =
        deg z + deg g + deg r.  That algebra part has degree >= D - 1, and
        rz has degree >= D - deg g >= D - 1 too; the truncated product
        drops every term above the window, so for D - 1 > window every
        term is zero.  That is the whole bound for a generator of degree
        1.  Take g of degree 0 that is a word (a letter a of FedosovAlg,
        (0, (a,)) of ZekriAlg) and deg z + deg r > window:
          - (rz, g) leaves the window;
          - a rotation on a degree-0 factor of gr or of r has an algebra
            part of degree >= deg z + deg r, since the other factors carry
            the whole degree of r, so it drops;
          - gr = (g r_0) dr_1 ... - dg dr_0 dr_1 ..., and the classes of
            the second part have algebra parts of degree >= deg z + deg r
            + 1 >= window + 2, so they drop;
          - on each d-factor f of r, -class(z, gr) gives suffix . z .
            (g . prefix) and +class(zg, r) gives suffix . (z . g) .
            prefix; they are equal by the associativity of the truncated
            algebra, an honest quotient, and g is even, so the Koszul
            signs agree and the two cancel.
        The symmetry X keeps the weaker bound: X . r = tau(r) . X puts X
        last in the factorization, so the two terms of a d-factor differ
        by the sign (-1)^(deg z + deg r) of tau; at deg z + deg r = window
        + 1 they cancel only when the window is odd.  With every skipped
        triple empty, the span is exactly that of all triples.

        Inside the build the odd labels (z, g) are numbered once, ranked
        by label_key; the relation vectors, the class memo and the span
        run on those ids, and the rows are decoded to labels at the end.
        A pivot is the least label of its row by label_key and the ids
        keep that order, so the pivots and rows are those the span would
        have on the labels themselves.

        The classes come from an evaluator that lives for this build only,
        so its memos die with it; omega1_vec and the boundaries keep their
        own.  It takes each rotation in the association (suffix . z) .
        prefix, not left to right, and its loss flag ORs the flags of
        every product it takes.  That flag is sound: the truncated algebra
        is an honest quotient of an associative one, so a class whose
        products dropped no term has its untruncated value, whatever the
        association.  The span itself reads values only."""
        if self._relations is None:
            span = Span()
            alg = self.alg
            basis = alg.basis()
            gens = alg.generators()
            window = alg.window
            labels = self._ranked_odd_labels()
            ids = {g: {} for g in gens}
            for i, (z, g) in enumerate(labels):
                ids[g][z] = i
            fits = {}  # degree budget of r -> the r of basis within it
            classes = _Classes(alg, ids)
            for z in [None] + basis:
                pz = self._parity(z)
                dz = 0 if z is None or window is None else alg.degree(z)
                for g in gens:
                    zg = {g: ONE} if z is None else alg.product_flag(z, g)[0]
                    odd_zg = (pz + alg.parity(g)) % 2
                    gid = ids[g]
                    rs = basis
                    if window is not None:
                        budget = window - dz
                        if isinstance(alg, ZekriAlg) and g == alg.SYMMETRY:
                            budget += 1
                        rs = fits.get(budget)
                        if rs is None:
                            rs = fits[budget] = [r for r in basis
                                                 if alg.degree(r) <= budget]
                    for r in rs:
                        # r . (z d g)
                        if z is None:
                            vec = {gid[r]: ONE}
                        else:
                            vec = {gid[k]: c for k, c
                                   in alg.product_flag(r, z)[0].items()}
                        # minus (z d g) . r = z d(g r) - (z g) d r
                        sign = -ONE if odd_zg and alg.parity(r) else ONE
                        for y, c in alg.product_flag(g, r)[0].items():
                            vec_axpy(vec, -sign * c, classes(z, y)[0])
                        for k, c in zg.items():
                            vec_axpy(vec, sign * c, classes(k, r)[0])
                        if vec:
                            span.add(vec)
            span.rows = {labels[p]: {labels[i]: c for i, c in row.items()}
                         for p, row in span.rows.items()}
            self._relations = span
        return self._relations

    def canonical_odd(self, vec):
        if self.exact_quotient:
            return self.relations().reduce(vec)
        return vec

    def even_basis(self):
        return self.alg.basis()

    def odd_basis(self):
        if not self.exact_quotient:
            zs = [None] + self.alg.basis()
            return [(z, g) for z in zs for g in self.alg.generators()]
        # unit vectors on non-pivot labels are their own residuals and form
        # a basis of the commutator quotient
        pivots = set(self.relations().rows)
        return [lab for lab in self._ranked_odd_labels()
                if lab not in pivots]

    def _parity(self, label):
        if label is None:
            return 0
        return self.alg.parity(label)

    def omega1_vec(self, zvec, yvec):
        """Class of (sum zvec).d(sum yvec); zvec may contain the None key."""
        out = {}
        loss = False
        for y, cy in yvec.items():
            for z, cz in zvec.items():
                vec, l = self._classes(z, y)
                loss = loss or l
                vec_axpy(out, cy * cz, vec)
        return self.canonical_odd(out), loss

    def bdry_even(self, vec):
        return self.omega1_vec({None: ONE}, vec)

    def bdry_odd(self, vec):
        out = {}
        loss = False
        for (z, g), c in vec.items():
            if z is None:
                continue
            zg, l1 = self.alg.product_flag(z, g)
            gz, l2 = self.alg.product_flag(g, z)
            loss = loss or l1 or l2
            sign = ONE
            if self._parity(z) and self._parity(g):
                sign = -ONE
            vec_axpy(out, c, zg)
            vec_axpy(out, -c * sign, gz)
        return out, loss


class OmegaComplex:
    """Forms with the (b + B) differential, split by parity of the degree."""

    def __init__(self, space):
        self.space = space

    def even_basis(self):
        return [w for n in range(0, self.space.max_degree + 1, 2)
                for w in self.space.basis_words(n)]

    def odd_basis(self):
        return [w for n in range(1, self.space.max_degree + 1, 2)
                for w in self.space.basis_words(n)]

    def _bB(self, vec):
        out, l1 = F.b(self.space, vec)
        bvec, l2 = F.connes_B(self.space, vec)
        return vec_axpy(out, ONE, bvec), l1 or l2

    def bdry_even(self, vec):
        return self._bB(vec)

    def bdry_odd(self, vec):
        return self._bB(vec)


def _sides(cx, even_labels=None, odd_labels=None):
    """(tag, labels) for the even side, then the odd side; the labels
    default to the bases of the complex."""
    yield "even", even_labels if even_labels is not None else cx.even_basis()
    yield "odd", odd_labels if odd_labels is not None else cx.odd_basis()


def _bdry(cx, odd):
    return cx.bdry_odd if odd else cx.bdry_even


def verify_dd(cx):
    """Check that both composites of the boundaries vanish where no
    truncation loss occurs; returns the report of linalg.check_columns."""
    def column(tag, lab):
        odd = tag == "odd"
        v1, l1 = _bdry(cx, odd)({lab: ONE})
        v2, l2 = _bdry(cx, not odd)(v1)
        return v2, l1 or l2
    return check_columns(_sides(cx), column)


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------


class ChainMap:
    """Parity-tagged pair of maps between Z2 complexes, held as column
    functions with memoization.  even_fn/odd_fn take a source label and
    return (vector, loss flag)."""

    def __init__(self, source, target, parity, even_fn, odd_fn):
        self.source = source
        self.target = target
        self.parity = parity
        self._fns = (even_fn, odd_fn)
        self._memos = ({}, {})

    def _cached(self, odd, label):
        memo = self._memos[odd]
        hit = memo.get(label)
        if hit is None:
            hit = self._fns[odd](label)
            memo[label] = hit
        return dict(hit[0]), hit[1]

    def even_col(self, label):
        return self._cached(0, label)

    def odd_col(self, label):
        return self._cached(1, label)

    def _col(self, odd):
        return self.odd_col if odd else self.even_col

    def _apply(self, odd):
        return self.apply_odd if odd else self.apply_even

    def _apply_cols(self, odd, vec):
        col = self._col(odd)
        out = {}
        loss = False
        for lab, c in vec.items():
            v, l = col(lab)
            loss = loss or l
            vec_axpy(out, c, v)
        return out, loss

    def apply_even(self, vec):
        return self._apply_cols(0, vec)

    def apply_odd(self, vec):
        return self._apply_cols(1, vec)

    @staticmethod
    def from_columns(source, target, parity, even_cols, odd_cols):
        def side(cols):
            return lambda lab: (dict(cols.get(lab, {})), False)
        return ChainMap(source, target, parity, side(even_cols),
                        side(odd_cols))

    @staticmethod
    def compose(g, f):
        """g after f."""
        def side(odd):
            fcol, gapply = f._col(odd), g._apply((odd + f.parity) % 2)
            def col(lab):
                v, l1 = fcol(lab)
                w, l2 = gapply(v)
                return w, l1 or l2
            return col
        return ChainMap(f.source, g.target, (f.parity + g.parity) % 2,
                        side(0), side(1))

    def add(self, other):
        assert self.parity == other.parity
        def side(odd):
            mine, theirs = self._col(odd), other._col(odd)
            def col(lab):
                v1, l1 = mine(lab)
                v2, l2 = theirs(lab)
                return vec_add(v1, v2), l1 or l2
            return col
        return ChainMap(self.source, self.target, self.parity, side(0),
                        side(1))

    def scale(self, c):
        def side(odd):
            mine = self._col(odd)
            def col(lab):
                v, l = mine(lab)
                return vec_scale(v, c), l
            return col
        return ChainMap(self.source, self.target, self.parity, side(0),
                        side(1))

    def sub(self, other):
        return self.add(other.scale(-ONE))


def verify_chain_map(f, even_labels=None, odd_labels=None):
    """Exact check of bdry . f = (-1)^parity f . bdry on non-lossy columns;
    returns the report of linalg.check_columns."""
    src, tgt = f.source, f.target
    sign = -ONE if f.parity else ONE

    def column(tag, lab):
        odd = tag == "odd"
        fcol, lf = f._col(odd)(lab)
        dsrc, ls = _bdry(src, odd)({lab: ONE})
        lhs, lt = _bdry(tgt, (odd + f.parity) % 2)(fcol)
        rhs, lr = f._apply(not odd)(dsrc)
        if lf or ls or lt or lr:
            return None, True
        return vec_add(lhs, vec_scale(rhs, -sign)), False
    return check_columns(_sides(src, even_labels, odd_labels), column)


def verify_homotopy(f, h):
    """Exact check of bdry h - (-1)^{|h|} h bdry = f on the source columns
    that feed homotopy_solve: those where f and the source boundary are
    loss-free.  Returns the report of linalg.check_columns."""
    src, tgt = f.source, f.target
    hsign = -ONE if h.parity else ONE

    def column(tag, lab):
        odd = tag == "odd"
        fcol, lf = f._col(odd)(lab)
        dsrc, ls = _bdry(src, odd)({lab: ONE})
        if lf or ls:
            return None, True
        hcol, _ = h._col(odd)(lab)
        # h(lab) has parity |h| + |lab|; the solver reads target
        # boundaries without their loss flags, and so does this check
        diff = dict(_bdry(tgt, (h.parity + odd) % 2)(hcol)[0])
        vec_axpy(diff, -hsign, h._apply(not odd)(dsrc)[0])
        vec_axpy(diff, -ONE, fcol)
        return diff, False
    return check_columns(_sides(src), column)


def maps_equal(f, g, even_labels, odd_labels):
    """Columnwise equality on the given labels, skipping lossy columns;
    returns the report of linalg.check_columns."""
    def column(tag, lab):
        odd = tag == "odd"
        v1, l1 = f._col(odd)(lab)
        v2, l2 = g._col(odd)(lab)
        if l1 or l2:
            return None, True
        return vec_add(v1, vec_scale(v2, -ONE)), False
    return check_columns(_sides(f.source, even_labels, odd_labels), column)


# ---------------------------------------------------------------------------
# homotopy solver
# ---------------------------------------------------------------------------


def homotopy_solve(f, even_labels=None, odd_labels=None, track_witness=False):
    """Solve bdry h - (-1)^{|h|} h bdry = f for a cochain h of the opposite
    parity, as an exact sparse linear system on the given source columns.

    Returns (ChainMap h, None) or (None, witness) when no primitive exists
    within the window; the witness is as in linalg.solve."""
    src, tgt = f.source, f.target
    hpar = (f.parity + 1) % 2
    hsign = -ONE if hpar else ONE  # f = bdry h - (-1)^{|h|} h bdry
    src_labels = [list(labels)
                  for _, labels in _sides(src, even_labels, odd_labels)]
    tgt_labels = (list(tgt.even_basis()), list(tgt.odd_basis()))
    bdry_cols = tuple({t: _bdry(tgt, odd)({t: ONE})[0]
                       for t in tgt_labels[odd]} for odd in (0, 1))
    # unknowns ("he", s, t) and ("ho", s, t): the coefficient of target
    # label t in h of even or odd source label s
    kinds = ("he", "ho")

    equations = []
    rhs = []

    def emit(rows, value):
        keys = set(value)
        for r in rows.values():
            keys.update(r)
        for key in sorted(keys, key=label_key):
            eq = {}
            for unk, r in rows.items():
                c = r.get(key)
                if c:
                    eq[unk] = c
            equations.append(eq)
            rhs.append(value.get(key, ZERO))

    for odd, labels in enumerate(src_labels):
        col, bsrc = f._col(odd), _bdry(src, odd)
        side = (hpar + odd) % 2  # target side that h sends this side to
        for lab in labels:
            fcol, lf = col(lab)
            dsrc, ls = bsrc({lab: ONE})
            if lf or ls:
                continue
            rows = {}
            for t in tgt_labels[side]:
                for key, c in bdry_cols[side][t].items():
                    rows.setdefault((kinds[odd], lab, t), {})[key] = c
            for slab, c in dsrc.items():
                for t in tgt_labels[1 - side]:
                    row = rows.setdefault((kinds[1 - odd], slab, t), {})
                    row[t] = row.get(t, ZERO) + (-hsign) * c
            emit(rows, fcol)

    sol, witness = solve(equations, rhs, track_witness=track_witness)
    if sol is None:
        return None, witness
    cols = ({}, {})
    for (kind, slab, tlab), c in sol.items():
        cols[kinds.index(kind)].setdefault(slab, {})[tlab] = c
    h = ChainMap.from_columns(src, tgt, hpar, cols[0], cols[1])
    return h, None


# ---------------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------------


def hodge_filtration(space, m, xtensor=None):
    """Level m of the Hodge filtration b(Omega^{m+1}) + forms of degree
    > m, returned as (even Span, odd Span) in form-word coordinates, or in
    tensor coordinates when an X-complex over the tensor algebra is given.

    When transporting, the level is cut to its representable part:
    degree-d words require tensor length d + 1."""
    even = Span()
    odd = Span()
    top = space.max_degree
    if xtensor is not None:
        top = min(top, xtensor.alg.max_len - 1)
    lo = 0 if m < 0 else m + 1
    for n in range(lo, top + 1):
        for w in space.basis_words(n):
            (even if n % 2 == 0 else odd).add({w: ONE})
    if 0 <= m and m <= top and m + 1 <= space.max_degree:
        side = even if m % 2 == 0 else odd
        for w in space.basis_words(m + 1):
            img, _ = F._b_word(space, w)
            if img:
                side.add(img)
    if xtensor is None:
        return even, odd
    teven = Span()
    todd = Span()
    for row in even.basis():
        teven.add(form_to_xt_even(space, row, xtensor))
    for row in odd.basis():
        todd.add(form_to_xt_odd(space, row, xtensor))
    return teven, todd


def adic_filtration(xgen, ideal_powers, m):
    """Level m of the ideal-adic filtration of a generated X-complex.

    ideal_powers maps k >= 1 to the Span of I^k (tensoralg.ideal_power);
    level 2n is (I^{n+1} + [I^n, R]) in degree 0 and I^n dR in
    degree 1, level 2n+1 is I^{n+1} and I^{n+1} dR + I^n dI.  Negative
    levels give the whole complex."""
    alg = xgen.alg
    basis = alg.basis()
    if m < 0:
        even = Span({l: ONE} for l in basis)
        odd = Span()
        for lab in xgen.odd_basis():
            odd.add({lab: ONE})
        return even, odd
    def power_rows(k):
        if k <= 0:
            return [{l: ONE} for l in basis]
        return ideal_powers[k].basis()
    n = m // 2
    even = Span()
    odd = Span()
    if m % 2 == 0:
        for row in power_rows(n + 1):
            even.add(row)
        for row in power_rows(n):
            for l in basis:
                a, _ = dict_product(alg, row, {l: ONE})
                bvec, _ = dict_product(alg, {l: ONE}, row)
                diff = dict(a)
                vec_axpy(diff, -ONE, bvec)
                if diff:
                    even.add(diff)
        for row in power_rows(n):
            for y in basis:
                vec, _ = xgen.omega1_vec(row, {y: ONE})
                if vec:
                    odd.add(vec)
    else:
        for row in power_rows(n + 1):
            even.add(row)
            for y in basis:
                vec, _ = xgen.omega1_vec(row, {y: ONE})
                if vec:
                    odd.add(vec)
        for row in power_rows(n):
            for yrow in power_rows(1):
                vec, _ = xgen.omega1_vec(row, yrow)
                if vec:
                    odd.add(vec)
    return even, odd


class TensorIdealFiltration:
    """Adic filtration of the X-complex of a tensor algebra whose ideal is
    spanned letterwise: a word lies in I^k iff it carries at least k ideal
    letters.  Membership in the commutator part reduces to vanishing sums
    over rotation classes (rotations moving an ideal-free suffix)."""

    def __init__(self, xgen, letter_in_ideal):
        self.x = xgen
        self.in_ideal = letter_in_ideal

    def _wcount(self, word):
        return sum(1 for l in word if self.in_ideal(l))

    def member_even(self, m, vec):
        if m < 0 or not vec:
            return True
        n = m // 2
        if m % 2 == 1:
            return all(self._wcount(w) >= n + 1 for w in vec)
        low = {w: c for w, c in vec.items() if self._wcount(w) == n}
        if any(self._wcount(w) < n for w in vec):
            return False
        if not low:
            return True
        # exact-count part must be a combination of commutators [I^n, R]:
        # rotation classes generated by moving ideal-free suffixes
        classes = {}
        def rep(word):
            seen = {word}
            stack = [word]
            while stack:
                w = stack.pop()
                for j in range(1, len(w)):
                    if all(not self.in_ideal(l) for l in w[-j:]):
                        r = w[-j:] + w[:-j]
                        if r not in seen:
                            seen.add(r)
                            stack.append(r)
            return min(seen, key=label_key)
        sums = {}
        for w, c in low.items():
            r = rep(w)
            sums[r] = sums.get(r, ZERO) + c
        return all(not s for s in sums.values())

    def member_odd(self, m, vec):
        if m < 0 or not vec:
            return True
        n = m // 2
        for (z, g), c in vec.items():
            zc = 0 if z is None else self._wcount(z)
            gc = 1 if self.in_ideal(g[0] if isinstance(g, tuple) else g) else 0
            if m % 2 == 0:
                if zc < n:
                    return False
            else:
                if not (zc >= n + 1 or (zc >= n and gc)):
                    return False
        return True


def order_certificate(f, src_basis_fn, tgt_filt, shift, levels):
    """Certify f(F^{k+shift}) inside F^k for the listed k, where
    src_basis_fn(m) yields (even rows, odd rows) of the source level."""
    for k in levels:
        for odd, rows in enumerate(src_basis_fn(k + shift)):
            apply = f._apply(odd)
            member = (tgt_filt.member_odd if (odd + f.parity) % 2
                      else tgt_filt.member_even)
            for row in rows:
                img, loss = apply(row)
                if loss:
                    return False, ("loss", k, row)
                if not member(k, img):
                    return False, (k, row, img)
    return True, None


# ---------------------------------------------------------------------------
# the X-complex of the tensor algebra and its correspondence with forms
# ---------------------------------------------------------------------------


def x_of_tensor_algebra(algebra, max_len):
    """X-complex of the truncated tensor algebra of a materialized algebra,
    in the tensor picture."""
    return XGenerated(TensorAlg(algebra, max_len))


def xt_odd_to_form(vec, space):
    """Odd X(T) vector: class of z.d(a) corresponds to the form z da;
    returns (form dict, lossy)."""
    out = {}
    lossy = False
    for (z, g), c in vec.items():
        if z is None:  # the unit: z.d(a) is the form da
            zf, l = {(0,): ONE}, False
        else:
            zf, l = T.to_forms({z: ONE}, space)
        kept = {w + (g[0],): cc for w, cc in zf.items()
                if len(w) <= space.max_degree}
        lossy = lossy or l or len(kept) < len(zf)
        vec_axpy(out, c, kept)
    return out, lossy


def form_to_xt_even(space, formvec, xtensor):
    """Even form vector into tensor-word coordinates of X(T); the window
    must be large enough for a lossless correspondence."""
    terms, lossy = T.from_forms(space, formvec, xtensor.alg.max_len)
    if lossy:
        raise ValueError("tensor window too small for degree %d forms"
                         % max(len(w) - 1 for w in formvec))
    return terms


def form_to_xt_odd(space, formvec, xtensor):
    """Odd form vector into (z, letter) coordinates of X(T)."""
    max_len = xtensor.alg.max_len
    out = {}
    for w, c in formvec.items():
        prefix, last = w[:-1], w[-1]
        if prefix == (0,):
            vec_axpy(out, c, {(None, (last,)): ONE})
            continue
        terms, lossy = T.from_forms(space, {prefix: ONE}, max_len)
        if lossy:
            raise ValueError("tensor window too small for degree %d forms"
                             % (len(w) - 1))
        for tw, cc in terms.items():
            vec_axpy(out, c * cc, {(tw, (last,)): ONE})
    return out


def kappa_map(xtensor, space):
    """Karoubi operator on X(T) through the forms correspondence."""
    def efn(lab):
        f, lf = T.to_forms({lab: ONE}, space)
        k, lk = F.kappa(space, f)
        return form_to_xt_even(space, k, xtensor), lk or lf
    def ofn(lab):
        f, lf = xt_odd_to_form({lab: ONE}, space)
        k, lk = F.kappa(space, f)
        return form_to_xt_odd(space, k, xtensor), lk or lf
    return ChainMap(xtensor, xtensor, 0, efn, ofn)


def rescale_c(vec):
    """Multiply the degree-n component of a form dict by
    (-1)^{[n/2]} [n/2]!."""
    out = {}
    for w, c in vec.items():
        k = (len(w) - 1) // 2
        fact = math.factorial(k)
        val = fact if k % 2 == 0 else -fact
        out[w] = c * val
    return out


def rescale_map(xtensor, omega):
    """The rescaling as a chain map X(T) -> (forms, b + B)."""
    space = omega.space
    def efn(lab):
        f, lossy = T.to_forms({lab: ONE}, space)
        return rescale_c(f), lossy
    def ofn(lab):
        f, lossy = xt_odd_to_form({lab: ONE}, space)
        return rescale_c(f), lossy
    return ChainMap(xtensor, omega, 0, efn, ofn)


def x_of_hom(src_cx, tgt_cx, image_of_label):
    """Functorial chain map X(rho) for an algebra map given on source basis
    labels by image_of_label(label) -> (coefficient dict, loss).

    image_of_label runs once per label: its results are memoized in one
    dict that the even and odd columns share, and that nothing mutates
    (ChainMap hands out copies, omega1_vec only reads)."""
    images = {}

    def efn(lab):
        hit = images.get(lab)
        if hit is None:
            hit = images[lab] = image_of_label(lab)
        return hit

    def ofn(lab):
        z, g = lab
        gvec, l1 = efn(g)
        if z is None:
            zvec, l2 = {None: ONE}, False
        else:
            zvec, l2 = efn(z)
        out, l3 = tgt_cx.omega1_vec(zvec, gvec)
        return out, l1 or l2 or l3
    return ChainMap(src_cx, tgt_cx, 0, efn, ofn)
