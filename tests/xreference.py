"""Straightforward forms of two exact kernels, kept as test oracles.

`relations` spans the reduced commutator classes red([r, z.dg]) of a
generated X-complex with the plain triple loop over r, z and g, every
triple included (`vector` gives one triple's class): every term goes
through temporaries and copies, and the classes of z.d(y) have their own
memo and their own left-to-right products.  `cuntz_quillen` spans the
relations of the same quotient from its definition, over all of R~ (x) R.
`fedosov_full` is the Fedosov product of two forms (coefficient dicts over
form words) assembled degree by degree from `graded_mul` and `d`, its own
bilinear loops over the word kernels `_mul_words` and `_d_word`, loss
flags included.
`ch_odd_even_col` is the even slot of the odd universal cocycle with its
products taken through that `fedosov_full`.  `right_mul_word`,
`b_word` and `B_word` are recursive forms of the closed-form word operators
of `xchern.forms`: right multiplication by the Leibniz recursion
d(a)b = d(ab) - a.db, b as the signed commutator (-1)^{|w|}[w, a] built on
it, and B by applying kappa n times to dw.  The kernels in `xchern` must
give the same rows and the same (coefficients, loss flag) pairs; keep these
slow and obvious.
"""

from xchern.scalars import ONE
from xchern.linalg import vec_axpy, Span
from xchern.forms import kappa, _d_word, _left_mul_word, _mul_words
from xchern import tensoralg as T
from xchern.chern import d_chain_map


def d(space, u):
    """The differential of the form u, word by word; (dict, loss)."""
    out = {}
    loss = False
    for w, c in u.items():
        vec, l = _d_word(space, w)
        loss = loss or l
        vec_axpy(out, c, vec)
    return out, loss


def graded_mul(space, u, v):
    """The graded product of the forms u and v, pair by pair of words."""
    out = {}
    loss = False
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            vec, l = _mul_words(space, w1, w2)
            loss = loss or l
            vec_axpy(out, c1 * c2, vec)
    return out, loss


def fedosov_full(space, u, v):
    """Free-product algebra product w1*w2 - (-1)^{|w1|} dw1*dw2 of the forms
    u and v, one degree of u at a time; (dict, loss)."""
    out = {}
    loss = False
    dv, lv = d(space, v)
    for n1 in sorted({len(w) - 1 for w in u}):
        c1 = {w: c for w, c in u.items() if len(w) - 1 == n1}
        term, l1 = graded_mul(space, c1, v)
        dc1, l2 = d(space, c1)
        corr, l3 = graded_mul(space, dc1, dv)
        vec_axpy(out, ONE, term)
        vec_axpy(out, -ONE if n1 % 2 == 0 else ONE, corr)
        loss = loss or l1 or l2 or l3 or lv
    return out, loss


def ch_odd_even_col(algebra, n, tgt, conv_space, word):
    """Even column of the degree 2n+1 universal cocycle into the super
    X-complex tgt at the tensor word: minus d of the one-form sum
    sum_i (1~ d a_{2i+1} ... d a_{2n+2}) (.) (a0~ da1 ... da_{2i-1}) d a_{2i}
    over the degree 2n+2 forms of the word; (vec, loss)."""
    qspace = tgt.alg.space
    forms, loss = T.to_forms({tuple(word): ONE}, conv_space)
    dmap = d_chain_map(tgt)
    out = {}
    for w, c in forms.items():
        if len(w) - 1 != 2 * n + 2:
            continue
        for i in range(1, n + 2):
            left, mid, right = w[:2 * i], w[2 * i], w[2 * i + 1:]
            prod = {left: ONE}
            if right:
                prod, l = fedosov_full(qspace, {(0,) + right: ONE}, prod)
                loss = loss or l
            v, l = tgt.omega1_vec(prod, {(mid + 1,): ONE})
            dv, ld = dmap.apply_odd(v)
            loss = loss or l or ld
            vec_axpy(out, -c, dv)
    return out, loss


def relations(x):
    """Span of the reduced commutator classes of the XGenerated x."""
    return _Reference(x.alg).relations()


class _Reference:
    def __init__(self, alg):
        self.alg = alg
        self._red_memo = {}

    def _parity(self, label):
        if label is None:
            return 0
        return self.alg.parity(label)

    def relations(self):
        span = Span()
        basis = self.alg.basis()
        gens = self.alg.generators()
        for r in basis:
            for z in [None] + basis:
                for g in gens:
                    vec = self.vector(r, z, g)
                    if vec:
                        span.add(vec)
        return span

    def vector(self, r, z, g):
        """red([r, z.dg])."""
        pr = self._parity(r)
        pz = self._parity(z)
        pg = self.alg.parity(g)
        vec = {}
        # r . (z d g)
        left = {r: ONE} if z is None else self.alg.product_flag(r, z)[0]
        for k, c in left.items():
            vec_axpy(vec, c, {(k, g): ONE})
        sign = ONE
        if pr and (pz + pg) % 2:
            sign = -ONE
        # minus (z d g) . r = z d(g r) - (z g) d r
        gr, _ = self.alg.product_flag(g, r)
        mid, _ = self._raw_vec({z: ONE}, gr)
        vec_axpy(vec, -sign, mid)
        zg = {g: ONE} if z is None else self.alg.product_flag(z, g)[0]
        tail, _ = self._raw_vec(zg, {r: ONE})
        vec_axpy(vec, sign, tail)
        return vec

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
            if p_suf and (pz + sum(pars[:i + 1])) % 2:
                sign = -ONE
            chunk, l = self._product(suffix + [z] + prefix)
            loss = loss or l
            for lab, c in chunk.items():
                vec_axpy(out, sign * c, {(lab, fac[i]): ONE})
        self._red_memo[key] = (dict(out), loss)
        return out, loss

    def _product(self, seq):
        """Left-to-right product of a sequence of labels, None the formal
        unit; (dict, loss)."""
        acc = {None: ONE}
        loss = False
        for lab in seq:
            if lab is None:
                continue
            nxt = {}
            for k, c in acc.items():
                if k is None:
                    prod = {lab: ONE}
                else:
                    prod, l = self.alg.product_flag(k, lab)
                    loss = loss or l
                vec_axpy(nxt, c, prod)
            acc = nxt
        return acc, loss

    def _raw_vec(self, zvec, yvec):
        out = {}
        loss = False
        for y, cy in yvec.items():
            for z, cz in zvec.items():
                vec, l = self._raw_class(z, y)
                loss = loss or l
                vec_axpy(out, cy * cz, vec)
        return out, loss


def cuntz_quillen(alg):
    """The relations of the commutator quotient of an ungraded truncated
    algebra R from its definition (Cuntz and Quillen, J. Amer. Math. Soc.
    8, 1995): Omega^1 R natural = (R~ (x) R) / span{(rz) (x) y - z (x)
    (yr) + (zy) (x) r}, with z in None (the adjoined unit) and the basis,
    y and r in the basis.  z (x) y stands for z.dy, keyed (z, y), and the
    relation is r.(z dy) - (z dy).r with (z dy).r = z d(yr) - zy dr; it
    holds because the truncation makes R an honest quotient, so exactly
    associative."""
    span = Span()
    basis = alg.basis()
    for z in [None] + basis:
        for y in basis:
            zy = {y: ONE} if z is None else alg.product_flag(z, y)[0]
            for r in basis:
                rz = {r: ONE} if z is None else alg.product_flag(r, z)[0]
                vec = {}
                for k, c in rz.items():
                    vec_axpy(vec, c, {(k, y): ONE})
                for k, c in alg.product_flag(y, r)[0].items():
                    vec_axpy(vec, -c, {(z, k): ONE})
                for k, c in zy.items():
                    vec_axpy(vec, c, {(k, r): ONE})
                if vec:
                    span.add(vec)
    return span


def right_mul_word(space, w, j):
    """w * e_j via the Leibniz recursion d(a)b = d(ab) - a.db."""
    if len(w) == 1:
        if w[0] == 0:
            return {(j + 1,): ONE}, False
        out = {}
        for k, c in space.algebra.product_basis(w[0] - 1, j).items():
            out[(k + 1,)] = c
        return out, False
    prefix, last = w[:-1], w[-1]
    out = {}
    for k, c in space.algebra.product_basis(last, j).items():
        vec_axpy(out, ONE, {prefix + (k,): c})
    inner, lossy = right_mul_word(space, prefix, last)
    for iw, c in inner.items():
        vec_axpy(out, ONE, {iw + (j,): -c})
    return out, lossy


def b_word(space, w):
    """b(w'.da) = (-1)^{|w'|} (w'.a - a.w'), zero in degree 0."""
    n = len(w) - 1
    if n == 0:
        return {}, False
    prefix, last = w[:-1], w[-1]
    sign = ONE if (n - 1) % 2 == 0 else -ONE
    out = {}
    vec_axpy(out, sign, right_mul_word(space, prefix, last)[0])
    vec_axpy(out, -sign, _left_mul_word(space, last, prefix)[0])
    return out, False


def B_word(space, w):
    """(1 + kappa + ... + kappa^n) dw on a degree-n word, kappa applied to
    the form one power at a time."""
    n = len(w) - 1
    dw, lossy = _d_word(space, w)
    acc = dw
    total = dict(dw)
    for _ in range(n):
        acc, _ = kappa(space, acc)
        vec_axpy(total, ONE, acc)
    return total, lossy
