"""Z2-graded X-complexes of truncated algebras.

The even part of X(R) is R itself; the odd part is the quotient of
one-forms by (super)commutators.  For algebras presented by generators the
quotient has a canonical spanning family: classes of z.d(g) with z in the
unitalization of R (None denotes the formal unit) and g a generator.  The
reduction of a general z.d(y) runs the Leibniz rule through an ordered
factorization of y and the trace property, with Koszul signs when the
algebra is graded.
"""

from .scalars import Scalar, ZERO, ONE
from .linalg import vec_add, vec_axpy, vec_scale, Span, label_key, solve
from . import forms as F
from . import tensoralg as T


# ---------------------------------------------------------------------------
# algebra protocol: labelled basis, sparse product with loss flag, parity,
# generators with exact ordered factorizations
# ---------------------------------------------------------------------------


class TableAlg:
    """Adapter for a materialized Algebra; labels are basis indices."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.name = algebra.name

    def basis(self):
        return list(range(self.algebra.dim))

    def product_flag(self, l1, l2):
        return dict(self.algebra.product_basis(l1, l2)), False

    def parity(self, label):
        return self.algebra.parity(label)

    def generators(self):
        return self.basis()

    def factor(self, label):
        return [label]

    def unit_dict(self):
        return dict(self.algebra.unit) if self.algebra.unit else None


class FedosovAlg:
    """Truncated forms with the full Fedosov product; labels are form words.

    Truncation is the quotient by forms of degree above the window, so the
    product is exactly associative; a loss flag reports when a product fell
    out of the window (where values differ from the untruncated algebra).
    """

    def __init__(self, space, graded=False):
        self.space = space
        self.graded = graded
        self.name = "Q%s(%s)" % ("s" if graded else "", space.algebra.name)
        self._memo = {}

    def basis(self):
        return [w for n in range(self.space.max_degree + 1)
                for w in self.space.basis_words(n)]

    def product_flag(self, l1, l2):
        key = (l1, l2)
        hit = self._memo.get(key)
        if hit is None:
            out = F.fedosov_full(self.space.word(l1), self.space.word(l2))
            hit = (out.coeffs, out.lossy)
            self._memo[key] = hit
        return dict(hit[0]), hit[1]

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
    flag = 1 carrying the symmetry."""

    def __init__(self, space):
        self.space = space
        self.name = "E(%s)" % space.algebra.name
        self._memo = {}

    def basis(self):
        words = [()] + [w for n in range(self.space.max_degree + 1)
                        for w in self.space.basis_words(n)]
        return [(f, w) for f in (0, 1) for w in words]

    def _qprod(self, w1, w2):
        if w1 == ():
            return ({w2: ONE} if w2 != () else {(): ONE}), False
        if w2 == ():
            return {w1: ONE}, False
        out = F.fedosov_full(self.space.word(w1), self.space.word(w2))
        return dict(out.coeffs), out.lossy

    def product_flag(self, l1, l2):
        key = (l1, l2)
        hit = self._memo.get(key)
        if hit is not None:
            return dict(hit[0]), hit[1]
        f1, w1 = l1
        f2, w2 = l2
        # (w1 X^f1)(w2 X^f2) = w1 tau^f1(w2) X^(f1+f2)
        sign = ONE
        if f1 == 1 and w2 != () and (len(w2) - 1) % 2 == 1:
            sign = -ONE
        prod, loss = self._qprod(w1, w2)
        flag = (f1 + f2) % 2
        out = {(flag, w): sign * c for w, c in prod.items()}
        self._memo[key] = (out, loss)
        return dict(out), loss

    def parity(self, label):
        return 0

    def generators(self):
        dim = self.space.algebra.dim
        gens = [(0, (u,)) for u in range(1, dim + 1)]
        gens += [(0, (0, i)) for i in range(dim)]
        gens.append((1, ()))
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
            out.append((1, ()))
        return out

    def unit_dict(self):
        return {(0, ()): ONE}


class TensorAlg:
    """Truncated tensor algebra over a labelled coefficient algebra; labels
    are tuples of coefficient labels, with () the unit when unital."""

    def __init__(self, coeff, max_len, unital=False):
        self.coeff = coeff
        self.max_len = max_len
        self.unital = unital
        self.name = "T%d(%s)" % (max_len, coeff.name)

    def basis(self):
        base = self.coeff.basis()
        out = [()] if self.unital else []
        def rec(prefix, k):
            if k == 0:
                out.append(tuple(prefix))
                return
            for l in base:
                rec(prefix + [l], k - 1)
        for n in range(1, self.max_len + 1):
            rec([], n)
        return out

    def product_flag(self, l1, l2):
        if len(l1) + len(l2) > self.max_len:
            return {}, True
        return {l1 + l2: ONE}, False

    def parity(self, label):
        return sum(self.coeff.parity(l) for l in label) % 2

    def generators(self):
        return [(l,) for l in self.coeff.basis()]

    def factor(self, label):
        return [(l,) for l in label]

    def unit_dict(self):
        return {(): ONE} if self.unital else None


class MatrixAlg:
    """N x N matrices over a labelled algebra; labels are (row, col, base).

    graded installs the block-checkerboard grading (blocks of size half)
    on top of the base parity."""

    def __init__(self, base, nsize, graded=False, half=1):
        self.base = base
        self.nsize = nsize
        self.graded = graded
        self.half = half
        self.name = "M%d%s(%s)" % (nsize, "s" if graded else "", base.name)

    def basis(self):
        bb = self.base.basis()
        return [(r, c, l) for r in range(self.nsize)
                for c in range(self.nsize) for l in bb]

    def product_flag(self, l1, l2):
        r1, c1, b1 = l1
        r2, c2, b2 = l2
        if c1 != r2:
            return {}, False
        prod, loss = self.base.product_flag(b1, b2)
        return {(r1, c2, k): v for k, v in prod.items()}, loss

    def parity(self, label):
        r, c, b = label
        p = self.base.parity(b)
        if self.graded:
            p = (p + r // self.half + c // self.half) % 2
        return p

    def generators(self):
        gens = []
        for r in range(self.nsize):
            for c in range(self.nsize):
                for g in self.base.generators():
                    gens.append((r, c, g))
                ud = self.base.unit_dict()
                if ud is not None:
                    for l in ud:
                        gens.append((r, c, l))
        return sorted(set(gens), key=label_key)

    def factor(self, label):
        r, c, b = label
        fac = self.base.factor(b)
        if not fac:
            return [(r, c, b)]
        out = [(r, c, fac[0])]
        for g in fac[1:]:
            out.append((c, c, g))
        return out

    def unit_dict(self):
        ud = self.base.unit_dict()
        if ud is None:
            return None
        out = {}
        for k in range(self.nsize):
            for l, v in ud.items():
                out[(k, k, l)] = v
        return out


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------


def _seq_product(alg, seq):
    """Ordered product of a sequence of basis labels; None denotes the
    formal unit.  Returns (coefficient dict keyed by labels or None, loss)."""
    labels = [l for l in seq if l is not None]
    if not labels:
        return {None: ONE}, False
    acc = {labels[0]: ONE}
    loss = False
    for l in labels[1:]:
        nxt = {}
        for k, c in acc.items():
            prod, pl = alg.product_flag(k, l)
            loss = loss or pl
            vec_axpy(nxt, c, prod)
        acc = nxt
    return acc, loss


class XGenerated:
    """X-complex in the canonical generated presentation.

    Even vectors are dicts over algebra labels; odd vectors are dicts over
    (z, g) with z a label or None and g a generator label.  That family
    spans the commutator quotient but is not independent when the
    generators satisfy algebraic relations (internal units, X^2 = 1 and
    the like); exact_quotient additionally reduces modulo the span of all
    commutator classes, which yields the honest quotient.  For free tensor
    algebras the extra span is zero and the flag is unnecessary."""

    def __init__(self, alg, graded=False, exact_quotient=False):
        self.alg = alg
        self.graded = graded
        self.gen_set = set(alg.generators())
        self._red_memo = {}
        self.exact_quotient = exact_quotient
        self._relations = None
        self.name = "X(%s)" % alg.name

    def relations(self):
        """Span of the reduced commutator classes red([r, z.dg])."""
        if self._relations is None:
            span = Span()
            basis = self.alg.basis()
            gens = self.alg.generators()
            for r in basis:
                pr = self._parity(r)
                for z in [None] + basis:
                    pz = self._parity(z)
                    for g in gens:
                        pg = self.alg.parity(g)
                        vec = {}
                        # r . (z d g)
                        left = {r: ONE} if z is None else \
                            self.alg.product_flag(r, z)[0]
                        for k, c in left.items():
                            vec_axpy(vec, c, {(k, g): ONE})
                        sign = ONE
                        if self.graded and pr and (pz + pg) % 2:
                            sign = -ONE
                        # minus (z d g) . r = z d(g r) - (z g) d r
                        gr, _ = self.alg.product_flag(g, r)
                        mid, _ = self._raw_vec(
                            {z: ONE} if z is not None else {None: ONE}, gr)
                        vec_axpy(vec, -sign, mid)
                        zg = {g: ONE} if z is None else \
                            self.alg.product_flag(z, g)[0]
                        tail, _ = self._raw_vec(zg, {r: ONE})
                        vec_axpy(vec, sign, tail)
                        if vec:
                            span.add(vec)
            self._relations = span
        return self._relations

    def canonical_odd(self, vec):
        if self.exact_quotient:
            return self.relations().reduce(vec)
        return vec

    def even_basis(self):
        return self.alg.basis()

    def odd_basis(self):
        zs = [None] + self.alg.basis()
        labels = [(z, g) for z in zs for g in self.alg.generators()]
        if not self.exact_quotient:
            return labels
        # unit vectors on non-pivot labels are their own residuals and form
        # a basis of the commutator quotient
        pivots = set(self.relations().rows)
        return [lab for lab in sorted(labels, key=label_key)
                if lab not in pivots]

    def _parity(self, label):
        if label is None:
            return 0
        return self.alg.parity(label)

    def _raw_class(self, z, y):
        """Class of z.d(y) reduced through the factorization; (vec, loss)."""
        key = (z, y)
        hit = self._red_memo.get(key)
        if hit is not None:
            return dict(hit[0]), hit[1]
        fac = self.alg.factor(y)
        out = {}
        loss = False
        if not fac:
            self._red_memo[key] = ({}, False)
            return {}, False
        if len(fac) == 1 and fac[0] == y:
            out = {(z, y): ONE}
            self._red_memo[key] = (out, False)
            return dict(out), False
        pz = self._parity(z)
        pars = [self.alg.parity(g) for g in fac]
        m = len(fac)
        for i in range(m):
            suffix = fac[i + 1:]
            prefix = fac[:i]
            p_suf = sum(pars[i + 1:]) % 2
            sign = ONE
            if self.graded and p_suf and (pz + sum(pars[:i + 1])) % 2:
                sign = -ONE
            chunk, l = _seq_product(self.alg, suffix + [z] + prefix)
            loss = loss or l
            for lab, c in chunk.items():
                vec_axpy(out, sign * c, {(lab, fac[i]): ONE})
        self._red_memo[key] = (dict(out), loss)
        return out, loss

    def _raw_vec(self, zvec, yvec):
        out = {}
        loss = False
        for y, cy in yvec.items():
            for z, cz in zvec.items():
                vec, l = self._raw_class(z, y)
                loss = loss or l
                vec_axpy(out, cy * cz, vec)
        return out, loss

    def omega1_class(self, z, y):
        vec, loss = self._raw_class(z, y)
        return self.canonical_odd(vec), loss

    def omega1_vec(self, zvec, yvec):
        """Class of (sum zvec).d(sum yvec); zvec may contain the None key."""
        vec, loss = self._raw_vec(zvec, yvec)
        return self.canonical_odd(vec), loss

    def bdry_even(self, vec):
        out = {}
        loss = False
        for y, c in vec.items():
            v, l = self._raw_class(None, y)
            loss = loss or l
            vec_axpy(out, c, v)
        return self.canonical_odd(out), loss

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
            if self.graded and self._parity(z) and self._parity(g):
                sign = -ONE
            vec_axpy(out, c, zg)
            vec_axpy(out, -c * sign, gz)
        return out, loss


class OmegaComplex:
    """Forms with the (b + B) differential, split by parity of the degree."""

    def __init__(self, space):
        self.space = space
        self.name = "Omega(%s)" % space.algebra.name

    def even_basis(self):
        return [w for n in range(0, self.space.max_degree + 1, 2)
                for w in self.space.basis_words(n)]

    def odd_basis(self):
        return [w for n in range(1, self.space.max_degree + 1, 2)
                for w in self.space.basis_words(n)]

    def _bB(self, vec):
        f = F.Form(self.space, vec)
        out = F.b(f) + F.connes_B(f)
        return out.coeffs, out.lossy

    def bdry_even(self, vec):
        return self._bB(vec)

    def bdry_odd(self, vec):
        return self._bB(vec)

    def canonical_odd(self, vec):
        return vec


def build_X(algebra, graded=False):
    """X-complex of a materialized algebra via the honest quotient."""
    return XGenerated(TableAlg(algebra), graded=graded, exact_quotient=True)


def verify_dd(cx, even_labels=None, odd_labels=None):
    """Check that both composites of the boundaries vanish where no
    truncation loss occurs; returns (checked, failures)."""
    failures = []
    checked = 0
    for lab in (even_labels if even_labels is not None else cx.even_basis()):
        v1, l1 = cx.bdry_even({lab: ONE})
        v2, l2 = cx.bdry_odd(v1)
        if l1 or l2:
            continue
        checked += 1
        if v2:
            failures.append(("even", lab, v2))
    for lab in (odd_labels if odd_labels is not None else cx.odd_basis()):
        v1, l1 = cx.bdry_odd({lab: ONE})
        v2, l2 = cx.bdry_even(v1)
        if l1 or l2:
            continue
        checked += 1
        if v2:
            failures.append(("odd", lab, v2))
    return checked, failures


# ---------------------------------------------------------------------------
# chain maps
# ---------------------------------------------------------------------------


class ChainMap:
    """Parity-tagged pair of maps between Z2 complexes, held as column
    functions with memoization.  even_fn/odd_fn take a source label and
    return (vector, loss flag)."""

    def __init__(self, source, target, parity, even_fn, odd_fn, name="map",
                 order=None):
        self.source = source
        self.target = target
        self.parity = parity
        self._even_fn = even_fn
        self._odd_fn = odd_fn
        self._even_memo = {}
        self._odd_memo = {}
        self.name = name
        self.order = order

    def even_col(self, label):
        hit = self._even_memo.get(label)
        if hit is None:
            hit = self._even_fn(label)
            self._even_memo[label] = hit
        return dict(hit[0]), hit[1]

    def odd_col(self, label):
        hit = self._odd_memo.get(label)
        if hit is None:
            hit = self._odd_fn(label)
            self._odd_memo[label] = hit
        return dict(hit[0]), hit[1]

    def apply_even(self, vec):
        out = {}
        loss = False
        for lab, c in vec.items():
            v, l = self.even_col(lab)
            loss = loss or l
            vec_axpy(out, c, v)
        return out, loss

    def apply_odd(self, vec):
        out = {}
        loss = False
        for lab, c in vec.items():
            v, l = self.odd_col(lab)
            loss = loss or l
            vec_axpy(out, c, v)
        return out, loss

    @staticmethod
    def from_columns(source, target, parity, even_cols, odd_cols, name="map"):
        def efn(lab):
            return dict(even_cols.get(lab, {})), False
        def ofn(lab):
            return dict(odd_cols.get(lab, {})), False
        return ChainMap(source, target, parity, efn, ofn, name=name)

    @staticmethod
    def zero(source, target, parity=0, name="0"):
        return ChainMap(source, target, parity,
                        lambda lab: ({}, False), lambda lab: ({}, False),
                        name=name)

    @staticmethod
    def compose(g, f, name=None):
        """g after f."""
        if (f.parity, g.parity) == (0, 0):
            parity = 0
        else:
            parity = (f.parity + g.parity) % 2
        def efn(lab):
            v, l1 = f.even_col(lab)
            w, l2 = (g.apply_even(v) if f.parity == 0 else g.apply_odd(v))
            return w, l1 or l2
        def ofn(lab):
            v, l1 = f.odd_col(lab)
            w, l2 = (g.apply_odd(v) if f.parity == 0 else g.apply_even(v))
            return w, l1 or l2
        return ChainMap(f.source, g.target, parity, efn, ofn,
                        name=name or ("%s.%s" % (g.name, f.name)))

    def add(self, other, name=None):
        assert self.parity == other.parity
        def efn(lab):
            v1, l1 = self.even_col(lab)
            v2, l2 = other.even_col(lab)
            return vec_add(v1, v2), l1 or l2
        def ofn(lab):
            v1, l1 = self.odd_col(lab)
            v2, l2 = other.odd_col(lab)
            return vec_add(v1, v2), l1 or l2
        return ChainMap(self.source, self.target, self.parity, efn, ofn,
                        name=name or ("%s+%s" % (self.name, other.name)))

    def scale(self, c, name=None):
        def efn(lab):
            v, l = self.even_col(lab)
            return vec_scale(v, c), l
        def ofn(lab):
            v, l = self.odd_col(lab)
            return vec_scale(v, c), l
        return ChainMap(self.source, self.target, self.parity, efn, ofn,
                        name=name or ("c*%s" % self.name))

    def sub(self, other, name=None):
        return self.add(other.scale(-ONE), name=name)


def verify_chain_map(f, even_labels=None, odd_labels=None):
    """Exact check of bdry . f = (-1)^parity f . bdry on non-lossy columns.

    Returns a dict report with counts and the offending columns."""
    src, tgt = f.source, f.target
    sign = -ONE if f.parity else ONE
    failures = []
    checked = skipped = 0
    for lab in (even_labels if even_labels is not None else src.even_basis()):
        fcol, lf = f.even_col(lab)
        dsrc, ls = src.bdry_even({lab: ONE})
        if f.parity == 0:
            lhs, lt = tgt.bdry_even(fcol)
        else:
            lhs, lt = tgt.bdry_odd(fcol)
        rhs, lr = f.apply_odd(dsrc)
        if lf or ls or lt or lr:
            skipped += 1
            continue
        checked += 1
        diff = vec_add(lhs, vec_scale(rhs, -sign))
        if diff:
            failures.append(("even", lab, diff))
    for lab in (odd_labels if odd_labels is not None else src.odd_basis()):
        fcol, lf = f.odd_col(lab)
        dsrc, ls = src.bdry_odd({lab: ONE})
        if f.parity == 0:
            lhs, lt = tgt.bdry_odd(fcol)
        else:
            lhs, lt = tgt.bdry_even(fcol)
        rhs, lr = f.apply_even(dsrc)
        if lf or ls or lt or lr:
            skipped += 1
            continue
        checked += 1
        diff = vec_add(lhs, vec_scale(rhs, -sign))
        if diff:
            failures.append(("odd", lab, diff))
    return {"ok": not failures, "checked": checked, "skipped": skipped,
            "failures": failures}


def verify_homotopy(f, h):
    """Exact check of bdry h - (-1)^{|h|} h bdry = f on the source columns
    that feed homotopy_solve: those where f and the source boundary are
    loss-free.  Returns a dict report like verify_chain_map."""
    src, tgt = f.source, f.target
    hsign = -ONE if h.parity else ONE
    failures = []
    checked = skipped = 0
    for odd in (0, 1):
        for lab in (src.odd_basis() if odd else src.even_basis()):
            fcol, lf = (f.odd_col if odd else f.even_col)(lab)
            dsrc, ls = (src.bdry_odd if odd else src.bdry_even)({lab: ONE})
            if lf or ls:
                skipped += 1
                continue
            checked += 1
            hcol, _ = (h.odd_col if odd else h.even_col)(lab)
            # h(lab) has parity |h| + |lab|; the solver reads target
            # boundaries without their loss flags, and so does this check
            odd_image = (h.parity + odd) % 2
            bdry = tgt.bdry_odd if odd_image else tgt.bdry_even
            diff = dict(bdry(hcol)[0])
            vec_axpy(diff, -hsign,
                     (h.apply_even if odd else h.apply_odd)(dsrc)[0])
            vec_axpy(diff, -ONE, fcol)
            if diff:
                failures.append(("odd" if odd else "even", lab, diff))
    return {"ok": not failures, "checked": checked, "skipped": skipped,
            "failures": failures}


def maps_equal(f, g, even_labels, odd_labels):
    """Columnwise equality on the given labels; losses make a column
    inconclusive and are reported separately."""
    bad = []
    skipped = 0
    for lab in even_labels:
        v1, l1 = f.even_col(lab)
        v2, l2 = g.even_col(lab)
        if l1 or l2:
            skipped += 1
            continue
        if vec_add(v1, vec_scale(v2, -ONE)):
            bad.append(("even", lab))
    for lab in odd_labels:
        v1, l1 = f.odd_col(lab)
        v2, l2 = g.odd_col(lab)
        if l1 or l2:
            skipped += 1
            continue
        if vec_add(v1, vec_scale(v2, -ONE)):
            bad.append(("odd", lab))
    return {"ok": not bad, "failures": bad, "skipped": skipped}


# ---------------------------------------------------------------------------
# homotopy solver
# ---------------------------------------------------------------------------


def homotopy_solve(f, even_labels=None, odd_labels=None, track_witness=None):
    """Solve bdry h - (-1)^{|h|} h bdry = f for a cochain h of the opposite
    parity, as an exact sparse linear system on the given source columns.

    Returns (ChainMap h, None) or (None, witness) when no primitive exists
    within the window."""
    src, tgt = f.source, f.target
    hpar = (f.parity + 1) % 2
    hsign = -ONE if hpar else ONE  # f = bdry h - (-1)^{|h|} h bdry
    even_labels = list(even_labels if even_labels is not None
                       else src.even_basis())
    odd_labels = list(odd_labels if odd_labels is not None
                      else src.odd_basis())
    tgt_even = list(tgt.even_basis())
    tgt_odd = list(tgt.odd_basis())
    # h sends even source to target side of parity hpar, odd to 1 - hpar
    h_even_side = tgt_odd if hpar else tgt_even
    h_odd_side = tgt_even if hpar else tgt_odd

    bdry_cols_even = {t: tgt.bdry_even({t: ONE})[0] for t in tgt_even}
    bdry_cols_odd = {t: tgt.bdry_odd({t: ONE})[0] for t in tgt_odd}

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

    for lab in even_labels:
        fcol, lf = f.even_col(lab)
        dsrc, ls = src.bdry_even({lab: ONE})
        if lf or ls:
            continue
        rows = {}
        for t in h_even_side:
            col = bdry_cols_odd[t] if hpar else bdry_cols_even[t]
            for key, c in col.items():
                rows.setdefault(("he", lab, t), {})[key] = c
        for olab, c in dsrc.items():
            for t in h_odd_side:
                rows.setdefault(("ho", olab, t), {})
                prev = rows[("ho", olab, t)].get(t, ZERO)
                rows[("ho", olab, t)][t] = prev + (-hsign) * c
        emit(rows, fcol)
    for lab in odd_labels:
        fcol, lf = f.odd_col(lab)
        dsrc, ls = src.bdry_odd({lab: ONE})
        if lf or ls:
            continue
        rows = {}
        for t in h_odd_side:
            col = bdry_cols_even[t] if hpar else bdry_cols_odd[t]
            for key, c in col.items():
                rows.setdefault(("ho", lab, t), {})[key] = c
        for elab, c in dsrc.items():
            for t in h_even_side:
                rows.setdefault(("he", elab, t), {})
                prev = rows[("he", elab, t)].get(t, ZERO)
                rows[("he", elab, t)][t] = prev + (-hsign) * c
        emit(rows, fcol)

    if track_witness is None:
        track_witness = len(equations) <= 2000
    sol, witness = solve(equations, rhs, track_witness=track_witness)
    if sol is None:
        return None, witness
    even_cols = {}
    odd_cols = {}
    for (kind, slab, tlab), c in sol.items():
        if kind == "he":
            even_cols.setdefault(slab, {})[tlab] = c
        else:
            odd_cols.setdefault(slab, {})[tlab] = c
    h = ChainMap.from_columns(src, tgt, hpar, even_cols, odd_cols,
                              name="homotopy(%s)" % f.name)
    return h, None


# ---------------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------------


def hodge_filtration(space, m, xtensor=None, cap_degree=None):
    """Level m of the Hodge filtration b(Omega^{m+1}) + forms of degree
    > m, returned as (even Span, odd Span) in form-word coordinates, or in
    tensor coordinates when an X-complex over the tensor algebra is given.

    cap_degree restricts to the representable part of the level (needed
    when transporting: degree-d words require tensor length d + 1)."""
    even = Span()
    odd = Span()
    if cap_degree is None:
        cap_degree = space.max_degree
        if xtensor is not None:
            cap_degree = min(cap_degree, xtensor.alg.max_len - 1)
    lo = 0 if m < 0 else m + 1
    for n in range(lo, cap_degree + 1):
        for w in space.basis_words(n):
            (even if n % 2 == 0 else odd).add({w: ONE})
    if 0 <= m and m <= cap_degree and m + 1 <= space.max_degree:
        side = even if m % 2 == 0 else odd
        for w in space.basis_words(m + 1):
            img = F.b(space.word(w))
            if not img.is_zero():
                side.add(img.coeffs)
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

    ideal_powers maps k >= 1 to IdealBasis-like objects with .basis() and
    .span; level 2n is (I^{n+1} + [I^n, R]) in degree 0 and I^n dR in
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
                a, _ = _seq_dict_product(alg, row, {l: ONE})
                bvec, _ = _seq_dict_product(alg, {l: ONE}, row)
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


def _seq_dict_product(alg, u, v):
    out = {}
    loss = False
    for k1, c1 in u.items():
        for k2, c2 in v.items():
            prod, l = alg.product_flag(k1, k2)
            loss = loss or l
            vec_axpy(out, c1 * c2, prod)
    return out, loss


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


def order_of_map(f, src_basis_fn, tgt_filt, levels, candidates=range(0, 9)):
    """Smallest certified order within the candidate range, or None when no
    candidate certifies on the representable window."""
    for n in candidates:
        ok, _ = order_certificate(f, src_basis_fn, tgt_filt, n, levels)
        if ok:
            return n
    return None


def order_certificate(f, src_basis_fn, tgt_filt, shift, levels):
    """Certify f(F^{k+shift}) inside F^k for the listed k, where
    src_basis_fn(m) yields (even rows, odd rows) of the source level."""
    for k in levels:
        ev, od = src_basis_fn(k + shift)
        for row in ev:
            img, loss = f.apply_even(row)
            if loss:
                return False, ("loss", k, row)
            good = (tgt_filt.member_even(k, img) if f.parity == 0
                    else tgt_filt.member_odd(k, img))
            if not good:
                return False, (k, row, img)
        for row in od:
            img, loss = f.apply_odd(row)
            if loss:
                return False, ("loss", k, row)
            good = (tgt_filt.member_odd(k, img) if f.parity == 0
                    else tgt_filt.member_even(k, img))
            if not good:
                return False, (k, row, img)
    return True, None


# ---------------------------------------------------------------------------
# the X-complex of the tensor algebra and its correspondence with forms
# ---------------------------------------------------------------------------


def x_of_tensor_algebra(algebra, max_len):
    """X-complex of the truncated tensor algebra of a materialized algebra,
    in the tensor picture."""
    return XGenerated(TensorAlg(TableAlg(algebra), max_len))


def xt_even_to_form(vec, space):
    """Even X(T) vector (tensor words of basis indices) to even forms."""
    alg = space.algebra
    out = space.zero()
    for w, c in vec.items():
        x = T.TensorElement(alg, {tuple(w): ONE}, len(w))
        out = out + T.to_forms(x, space).scale(c)
    return out


def xt_odd_to_form(vec, space):
    """Odd X(T) vector: class of z.d(a) corresponds to the form z da."""
    out = space.zero()
    for (z, g), c in vec.items():
        a = g[0]
        if z is None:
            out = out + space.word((0, a)).scale(c)
            continue
        zf = T.to_forms(T.TensorElement(space.algebra, {tuple(z): ONE},
                                        len(z)), space)
        appended = F.Form(space, {w + (a,): cc for w, cc in zf.coeffs.items()
                                  if len(w) <= space.max_degree},
                          zf.lossy)
        out = out + appended.scale(c)
    return out


def form_to_xt_even(space, formvec, xtensor):
    """Even form vector into tensor-word coordinates of X(T); the window
    must be large enough for a lossless correspondence."""
    max_len = xtensor.alg.max_len
    f = F.Form(space, formvec)
    te = T.from_forms(f, max_len)
    if te.lossy:
        raise ValueError("tensor window too small for degree %d forms"
                         % f.top_degree())
    return dict(te.terms)


def form_to_xt_odd(space, formvec, xtensor):
    """Odd form vector into (z, letter) coordinates of X(T)."""
    max_len = xtensor.alg.max_len
    out = {}
    for w, c in formvec.items():
        prefix, last = w[:-1], w[-1]
        if prefix == (0,):
            vec_axpy(out, c, {(None, (last,)): ONE})
            continue
        te = T.from_forms(F.Form(space, {prefix: ONE}), max_len)
        if te.lossy:
            raise ValueError("tensor window too small for degree %d forms"
                             % (len(w) - 1))
        for tw, cc in te.terms.items():
            vec_axpy(out, c * cc, {(tw, (last,)): ONE})
    return out


def kappa_map(xtensor, space):
    """Karoubi operator on X(T) through the forms correspondence."""
    def efn(lab):
        f = xt_even_to_form({lab: ONE}, space)
        k = F.kappa(f)
        return form_to_xt_even(space, k.coeffs, xtensor), k.lossy or f.lossy
    def ofn(lab):
        f = xt_odd_to_form({lab: ONE}, space)
        k = F.kappa(f)
        return form_to_xt_odd(space, k.coeffs, xtensor), k.lossy or f.lossy
    return ChainMap(xtensor, xtensor, 0, efn, ofn, name="kappa")


def rescale_c(form):
    """Multiply the degree-n component by (-1)^{[n/2]} [n/2]!."""
    out = {}
    for w, c in form.coeffs.items():
        k = (len(w) - 1) // 2
        fact = 1
        for j in range(2, k + 1):
            fact *= j
        val = Scalar.from_int(fact if k % 2 == 0 else -fact)
        out[w] = c * val
    return F.Form(form.space, out, form.lossy)


def rescale_map(xtensor, omega):
    """The rescaling as a chain map X(T) -> (forms, b + B)."""
    space = omega.space
    def efn(lab):
        f = xt_even_to_form({lab: ONE}, space)
        return rescale_c(f).coeffs, f.lossy
    def ofn(lab):
        f = xt_odd_to_form({lab: ONE}, space)
        return rescale_c(f).coeffs, f.lossy
    return ChainMap(xtensor, omega, 0, efn, ofn, name="c")


def x_of_hom(src_cx, tgt_cx, image_of_label, name="X(hom)"):
    """Functorial chain map X(rho) for an algebra map given on source basis
    labels by image_of_label(label) -> (coefficient dict, loss)."""
    def efn(lab):
        return image_of_label(lab)
    def ofn(lab):
        z, g = lab
        gvec, l1 = image_of_label(g)
        if z is None:
            zvec, l2 = {None: ONE}, False
        else:
            zvec, l2 = image_of_label(z)
        out, l3 = tgt_cx.omega1_vec(zvec, gvec)
        return out, l1 or l2 or l3
    return ChainMap(src_cx, tgt_cx, 0, efn, ofn, name=name)
