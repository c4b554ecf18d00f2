"""Degree-truncated noncommutative differential forms.

A degree-n basis word is a tuple (u, i1, ..., in): u = 0 denotes the
adjoined unit in slot zero, u = k >= 1 denotes basis element k-1 of the
algebra, and the letters i are algebra basis indices.  Degree-0 words have
u >= 1 (slot zero of a 0-form lives in the algebra itself, not its
unitalization).

A form is a coefficient dict {word: coefficient} over one FormSpace.  Every
operator takes (space, dict) and returns a new (dict, lossy) pair: lossy
says that components pushed above the space's max_degree were dropped, and
identities are only ever asserted where no loss occurred.  Callers carry
the flag of a chain of operators themselves.

All operators act word-wise and sparsely, in closed form on degree-n forms
as A~ (x) A^(x)n: b is the bar formula, right multiplication by a letter the
same signed sum of adjacent merges, and B the signed sum of the cyclic
rotations of dw; each reads the products of basis letters from the
space's table mul, built once.  Each space memoizes an operator's value on
a word when it is read through _image or _extend: one dict per operator
maps the word to the flat tuple (v1, c1, v2, c2, ...) of its image's words
and coefficients, () when the image is zero, and one set per operator
holds the words whose image is lossy (only d and B lose terms, on
top-degree words).  A caller that reads a value only once calls the word
operator itself.  The memos share one tuple per word: every memo key,
lossy word and image word is the tuple that the space's word table holds
for it.  The product of the free-product algebra (the Fedosov product) is
fedosov_words on two words and its bilinear extension fedosov_full on two
forms.
"""

import itertools
from collections import defaultdict
from fractions import Fraction

from .scalars import ONE
from .linalg import vec_axpy


class FormSpace:
    def __init__(self, algebra, max_degree):
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        self.algebra = algebra
        self.max_degree = max_degree
        # mul[i][j]: the (k, c) pairs of e_i * e_j, read from the sparse
        # structure table
        self.mul = [[()] * algebra.dim for _ in range(algebra.dim)]
        for (i, j), vec in algebra.mul.items():
            self.mul[i][j] = tuple(vec.items())
        # word operator -> {word: flat image (v1, c1, v2, c2, ...)}
        self._op_cache = defaultdict(dict)
        # word operator -> the memoized words whose image is lossy
        self._lossy = defaultdict(set)
        # word -> the one tuple equal to it that the memos hold
        self._words = {}

    def basis_words(self, n):
        """All degree-n basis words, in lexicographic order."""
        if n > self.max_degree:
            return []
        dim = self.algebra.dim
        if n == 0:
            return [(u,) for u in range(1, dim + 1)]
        return list(itertools.product(range(dim + 1), *[range(dim)] * n))

    def dim_degree(self, n):
        d = self.algebra.dim
        if n == 0:
            return d
        return (d + 1) * d ** n


# ---------------------------------------------------------------------------
# word-level primitives; each returns (dict word -> coefficient, lossy flag)
# ---------------------------------------------------------------------------


def _add_term(out, w, c):
    """In place: out[w] += c, with vec_axpy's rules for the sum (a zero is
    dropped, an integer-valued Fraction is stored as an int)."""
    s = out.get(w)
    if s is not None:
        c = s + c
    if not c:
        out.pop(w, None)
    elif type(c) is Fraction and c.denominator == 1:
        out[w] = c.numerator
    else:
        out[w] = c


def _add_merges(space, out, x, sign):
    """In place: out += sign * sum_i (-1)^i x_i, where x = (u, a1, ..., am)
    and x_i merges its letters i and i+1 into their product, i < m.  Slot
    zero is merged through the unitalization: a unit slot u = 0 contributes
    the letter a1 itself.  The sums follow _add_term's rules."""
    mul = space.mul
    get = out.get
    for i in range(len(x) - 2, 0, -1):
        prod = mul[x[i]][x[i + 1]]
        if not prod:
            continue
        s = sign if i % 2 == 0 else -sign
        head, tail = x[:i], x[i + 2:]
        for k, c in prod:
            w = head + (k,) + tail
            t = get(w)
            t = s * c if t is None else t + s * c
            if t:
                out[w] = (t.numerator if type(t) is Fraction
                          and t.denominator == 1 else t)
            elif w in out:
                del out[w]
    tail = x[2:]
    if x[0] == 0:
        _add_term(out, (x[1] + 1,) + tail, sign)
    else:
        for k, c in mul[x[0] - 1][x[1]]:
            _add_term(out, (k + 1,) + tail, sign * c)


def _d_word(space, w):
    if w[0] == 0:
        return {}, False
    if len(w) - 1 + 1 > space.max_degree:
        return {}, True
    return {(0, w[0] - 1) + w[1:]: ONE}, False


def _left_mul_word(space, j, w):
    """e_j * w for a basis index j."""
    if w[0] == 0:
        return {(j + 1,) + w[1:]: ONE}, False
    tail = w[1:]
    return {(k + 1,) + tail: c for k, c in space.mul[j][w[0] - 1]}, False


def _right_mul_word(space, w, j):
    """w * e_j = sum_i (-1)^{n-i} (a0, ..., an, e_j) with its letters i and
    i+1 merged, for a degree-n word w and a basis index j."""
    out = {}
    _add_merges(space, out, w + (j,), -ONE if len(w) % 2 == 0 else ONE)
    return out, False


def _mul_words(space, w1, w2):
    """Graded product w1 * w2 of two basis words."""
    n1, n2 = len(w1) - 1, len(w2) - 1
    if n1 + n2 > space.max_degree:
        return {}, True
    tail = w2[1:]
    if w2[0] == 0:
        return {w1 + tail: ONE}, False
    absorbed, lossy = _right_mul_word(space, w1, w2[0] - 1)
    return {w + tail: c for w, c in absorbed.items()}, lossy


def _image(space, fn, w):
    """Value (flat, lossy) of the word operator fn on the word w, memoized
    in the space: flat is the memo's tuple (v1, c1, v2, c2, ...) of the
    image's words and coefficients in the operator's order, () when it is
    zero.  The memo's key and the words v are the space's one tuple per
    word; lossy is read from the operator's set of lossy words."""
    memo = space._op_cache[fn]
    img = memo.get(w)
    if img is None:
        one = space._words.setdefault
        vec, lossy = fn(space, w)
        w = one(w, w)
        if lossy:
            space._lossy[fn].add(w)
        img = memo[w] = tuple([x for v, c in vec.items()
                               for x in (one(v, v), c)])
    return img, w in space._lossy[fn]


def _pairs(flat):
    """The (word, coefficient) pairs of a flat image."""
    it = iter(flat)
    return zip(it, it)


def _extend(space, fn, pairs):
    """Linear extension of the word operator fn to a form given by its
    (word, coefficient) pairs, through the memoized values on its words: a
    new (dict, lossy).  The sums follow vec_axpy's rules, as in
    _add_term."""
    out = {}
    get = out.get
    memo = space._op_cache[fn]
    lossed = space._lossy[fn]
    lossy = False
    for w, c in pairs:
        img = memo.get(w)
        if img is None:
            img = _image(space, fn, w)[0]
        lossy = lossy or w in lossed
        it = iter(img)
        for v, x in zip(it, it):
            s = get(v)
            s = c * x if s is None else s + c * x
            if s:
                out[v] = (s.numerator if type(s) is Fraction
                          and s.denominator == 1 else s)
            elif v in out:
                del out[v]
    return out, lossy


# ---------------------------------------------------------------------------
# public operator suite
# ---------------------------------------------------------------------------


def d(space, vec):
    """Differential: d(a0.da1...dan) = da0.da1...dan, d(1~ ...) = 0."""
    return _extend(space, _d_word, vec.items())


def _b_word(space, w):
    """The bar formula; zero in degree 0."""
    n = len(w) - 1
    if n == 0:
        return {}, False
    out = {}
    _add_merges(space, out, w, ONE)
    wrap = ONE if n % 2 == 0 else -ONE
    for v, c in _left_mul_word(space, w[-1], w[:-1])[0].items():
        _add_term(out, v, wrap * c)
    return out, False


def b(space, vec):
    """Hochschild boundary: b(w.da) = (-1)^{|w|}[w, a], zero in degree 0."""
    return _extend(space, _b_word, vec.items())


def _kappa_word(space, w):
    n = len(w) - 1
    if n == 0:
        return {w: ONE}, False
    prefix, last = w[:-1], w[-1]
    sign = ONE if (n - 1) % 2 == 0 else -ONE
    # kappa(w.da) = (-1)^{n-1} da.w = (-1)^{n-1} (d(a.w) - a.dw)
    aw, _ = _left_mul_word(space, last, prefix)
    out = {}
    for v, c in aw.items():
        dv, _ = _d_word(space, v)
        vec_axpy(out, sign * c, dv)
    dpre, _ = _d_word(space, prefix)
    for v, c in dpre.items():
        lv, _ = _left_mul_word(space, last, v)
        vec_axpy(out, -sign * c, lv)
    return out, False


def kappa(space, vec):
    """Karoubi operator, 1 - kappa = db + bd."""
    return _extend(space, _kappa_word, vec.items())


def _B_word(space, w):
    """B on a degree-n word: kappa rotates the exact word dw = dx0...dxn to
    (-1)^n dxn.dx0...dx_{n-1}, so B(w) sums the rotations j <= n of dw with
    sign (-1)^{nj}; lossy exactly when dw is."""
    dw, lossy = _d_word(space, w)
    out = {}
    for x in dw:
        letters = x[1:]
        n = len(letters) - 1
        for j in range(n + 1):
            cut = n + 1 - j
            _add_term(out, (0,) + letters[cut:] + letters[:cut],
                      -ONE if n * j % 2 else ONE)
    return out, lossy


def connes_B(space, vec):
    """Connes boundary (1 + kappa + ... + kappa^n) d on degree n."""
    return _extend(space, _B_word, vec.items())


def fedosov_words(space, w1, w2):
    """Free-product algebra product w1*w2 - (-1)^{|w1|} dw1*dw2 of two
    basis words; lossy when either product or either d leaves the window."""
    out, lossy = _mul_words(space, w1, w2)
    dw1, l1 = _d_word(space, w1)
    dw2, l2 = _d_word(space, w2)
    lossy = lossy or l1 or l2
    sign = ONE if (len(w1) - 1) % 2 else -ONE
    for v1, c1 in dw1.items():
        for v2, c2 in dw2.items():
            corr, l = _mul_words(space, v1, v2)
            lossy = lossy or l
            vec_axpy(out, sign * c1 * c2, corr)
    return out, lossy


def fedosov_full(space, u, v):
    """Bilinear extension of fedosov_words to coefficient dicts; on even
    forms it is the tensor-algebra product u*v - du*dv."""
    out = {}
    lossy = False
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            vec, l = fedosov_words(space, w1, w2)
            lossy = lossy or l
            vec_axpy(out, c1 * c2, vec)
    return out, lossy
