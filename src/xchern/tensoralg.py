"""Tensor algebras in two pictures: tensor words and even Fedosov forms.

Tensor words are tuples of algebra basis indices, length >= 1.  The
correspondence with even forms sends a word a1 x ... x an to the iterated
even Fedosov product a1 (.) a2 (.) ... (.) an, and conversely expands a
word a0.da1...da2n through curvature letters a*b - a x b.
"""

from .scalars import ONE
from .linalg import vec_axpy, Span
from .algebra import Algebra, Element
from . import forms as F


def tensor_words(dim, max_len, min_len=1):
    out = []
    def rec(prefix, k):
        if k == 0:
            out.append(tuple(prefix))
            return
        for i in range(dim):
            rec(prefix + [i], k - 1)
    for n in range(min_len, max_len + 1):
        rec([], n)
    return out


class TensorElement:
    __slots__ = ("algebra", "terms", "max_length", "lossy")

    def __init__(self, algebra, terms, max_length, lossy=False):
        self.algebra = algebra
        self.terms = {w: c for w, c in terms.items() if c}
        self.max_length = max_length
        self.lossy = lossy

    def __add__(self, other):
        assert self.algebra is other.algebra
        out = dict(self.terms)
        vec_axpy(out, ONE, other.terms)
        return TensorElement(self.algebra, out,
                             min(self.max_length, other.max_length),
                             self.lossy or other.lossy)

    def __sub__(self, other):
        return self + other.scale(-ONE)

    def scale(self, c):
        return TensorElement(self.algebra,
                             {w: c * v for w, v in self.terms.items()},
                             self.max_length, self.lossy)

    def __eq__(self, other):
        return self.algebra is other.algebra and self.terms == other.terms

    def concat(self, other):
        """Tensor-algebra product: concatenation of words."""
        assert self.algebra is other.algebra
        L = min(self.max_length, other.max_length)
        out = {}
        lossy = self.lossy or other.lossy
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                if len(w1) + len(w2) > L:
                    lossy = True
                    continue
                vec_axpy(out, c1 * c2, {w1 + w2: ONE})
        return TensorElement(self.algebra, out, L, lossy)

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        names = self.algebra.basis_names
        if not self.terms:
            return "Tensor(0)"
        return "Tensor(" + " + ".join(
            "(%s)*%s" % (c, "x".join(str(names[i]) for i in w))
            for w, c in sorted(self.terms.items())) + ")"


def sigma(a, max_length):
    """Linear lift of the multiplication map: a single-letter word."""
    return TensorElement(a.algebra, {(i,): c for i, c in a.coeffs.items()},
                         max_length)


def mult_map(x):
    """Multiplication map T(A) -> A, the degree-0 part in the forms picture."""
    alg = x.algebra
    out = {}
    for w, c in x.terms.items():
        acc = {w[0]: ONE}
        for i in w[1:]:
            nxt = {}
            for k, v in acc.items():
                vec_axpy(nxt, v, alg.product_basis(k, i))
            acc = nxt
        vec_axpy(out, c, acc)
    return Element(alg, out)


def to_forms(x, space):
    """Image of a tensor element in the even Fedosov picture."""
    out = space.zero()
    for w, c in x.terms.items():
        acc = space.word((w[0] + 1,))
        for i in w[1:]:
            acc = F.fedosov_even(acc, space.word((i + 1,)))
        out = out + acc.scale(c)
    out.lossy = out.lossy or x.lossy
    return out


def from_forms(form, max_length):
    """Inverse of to_forms on even forms, via curvature letters.

    The expansion is summed in full before truncating, so words beyond the
    window only flag a loss when their total coefficient is nonzero."""
    if any(n % 2 for n in form.degrees()):
        raise ValueError("from_forms requires a purely even form")
    alg = form.space.algebra
    out = {}
    for w, c in form.coeffs.items():
        n2 = len(w) - 1
        letters = []
        if w[0] != 0:
            letters.append({(w[0] - 1,): ONE})
        for j in range(1, n2, 2):
            a, bb = w[j], w[j + 1]
            lett = {(a, bb): -ONE}
            for k, v in alg.product_basis(a, bb).items():
                vec_axpy(lett, v, {(k,): ONE})
            letters.append(lett)
        if not letters:
            raise ValueError("the unit form has no tensor-algebra image")
        acc = letters[0]
        for lett in letters[1:]:
            nxt = {}
            for w1, c1 in acc.items():
                for w2, c2 in lett.items():
                    vec_axpy(nxt, c1 * c2, {w1 + w2: ONE})
            acc = nxt
        vec_axpy(out, c, acc)
    lossy = form.lossy
    kept = {}
    for w, c in out.items():
        if len(w) > max_length:
            lossy = True
        else:
            kept[w] = c
    return TensorElement(alg, kept, max_length, lossy)


def truncated_tensor_algebra(base, max_len):
    """T(A) cut at word length max_len, as an honest quotient algebra."""
    words = tensor_words(base.dim, max_len)
    index = {w: i for i, w in enumerate(words)}
    mul = {}
    for i, w1 in enumerate(words):
        for j, w2 in enumerate(words):
            if len(w1) + len(w2) <= max_len:
                mul[(i, j)] = {index[w1 + w2]: ONE}
    names = ["x".join(base.basis_names[k] for k in w) for w in words]
    alg = Algebra(names, mul, check=False,
                  name="T%d(%s)" % (max_len, base.name))
    alg.tensor_info = (base, max_len, index, words)
    return alg


def v_map(x, outer_max, talg=None):
    """Canonical homomorphism into the tensor algebra over T(A): letters
    become singleton lifts."""
    if talg is None:
        talg = truncated_tensor_algebra(x.algebra, x.max_length)
    _, _, index, _ = talg.tensor_info
    out = {}
    lossy = x.lossy
    for w, c in x.terms.items():
        if len(w) > outer_max:
            lossy = True
            continue
        out[tuple(index[(i,)] for i in w)] = c
    return TensorElement(talg, out, outer_max, lossy)


class LiftedHom:
    """Lift of rho: A -> M_N(B~) to word level: matrix letters multiply,
    target letters stay tensored.

    rho is given as a list over source letters, or as a function on them,
    of N x N matrices whose entries are dicts over B~ keys (None = adjoined
    unit, k = basis of B); each letter is embedded once.  Words map to
    matrices with entries in the unital truncated tensor algebra over B:
    keys are tuples of B basis indices, () = unit.
    """

    def __init__(self, source, rho_matrices, nsize, max_len_src, max_len_tgt):
        self.source = source
        self.nsize = nsize
        self.max_len_src = max_len_src
        self.max_len_tgt = max_len_tgt
        self._rho = rho_matrices if callable(rho_matrices) \
            else rho_matrices.__getitem__
        self._letters = {}

    def letter(self, i):
        """Embedded matrix of a source letter."""
        hit = self._letters.get(i)
        if hit is None:
            hit = [[{() if key is None else (key,): coeff
                     for key, coeff in entry.items() if coeff}
                    for entry in row] for row in self._rho(i)]
            self._letters[i] = hit
        return hit

    def _matmul(self, A, B):
        n = self.nsize
        lossy = False
        out = [[{} for _ in range(n)] for _ in range(n)]
        for r in range(n):
            for c in range(n):
                acc = out[r][c]
                for k in range(n):
                    for w1, c1 in A[r][k].items():
                        for w2, c2 in B[k][c].items():
                            if len(w1) + len(w2) > self.max_len_tgt:
                                lossy = True
                                continue
                            vec_axpy(acc, c1 * c2, {w1 + w2: ONE})
        return out, lossy

    def on_word(self, word):
        """Image of a source tensor word, with the loss flag."""
        if len(word) > self.max_len_src:
            raise ValueError("word longer than the source window")
        acc = self.letter(word[0])
        lossy = False
        for i in word[1:]:
            acc, l = self._matmul(acc, self.letter(i))
            lossy = lossy or l
        return acc, lossy

    @staticmethod
    def flatten(mat):
        """A matrix over words as one vector over (row, col, word)."""
        return {(r, c, w): v for r, row in enumerate(mat)
                for c, entry in enumerate(row) for w, v in entry.items()}

    def on_element(self, x):
        n = self.nsize
        out = [[{} for _ in range(n)] for _ in range(n)]
        lossy = x.lossy
        for w, c in x.terms.items():
            m, l = self.on_word(w)
            lossy = lossy or l
            for r in range(n):
                for cc in range(n):
                    vec_axpy(out[r][cc], c, m[r][cc])
        return out, lossy


def lift_hom(rho_matrices, source, nsize, max_len_src, max_len_tgt):
    return LiftedHom(source, rho_matrices, nsize, max_len_src, max_len_tgt)


class IdealBasis:
    def __init__(self, ambient, generators, power, span):
        self.ambient = ambient
        self.generators = generators
        self.power = power
        self.span = span

    @property
    def dim(self):
        return self.span.dim

    def contains(self, vec):
        return self.span.contains(vec)

    def basis(self):
        return self.span.basis()


def ideal_power(ambient, generators, n, product=None, basis=None):
    """Span of the n-th power of the two-sided ideal generated in ambient.

    ambient must have an enumerable basis; the closure runs span growth to a
    fixed point.  product(u, v) and basis may be supplied for labelled
    algebra objects that are not materialized Algebras.
    """
    if n < 1:
        raise ValueError("ideal powers start at 1")
    if product is None:
        product = ambient.product
    if basis is None:
        basis = list(range(ambient.dim))
    basis_elems = [{i: ONE} for i in basis]
    ideal = Span()
    frontier = []
    for g in generators:
        if ideal.add(g):
            frontier.append(g)
    while frontier:
        new_frontier = []
        for v in frontier:
            for e in basis_elems:
                for w in (product(e, v), product(v, e)):
                    if w and ideal.add(w):
                        new_frontier.append(w)
        frontier = new_frontier
    if n == 1:
        return IdealBasis(ambient, generators, 1, ideal)
    power = ideal
    base_rows = ideal.basis()
    for _ in range(n - 1):
        nxt = Span()
        for u in power.basis():
            for v in base_rows:
                w = product(u, v)
                if w:
                    nxt.add(w)
        power = nxt
    return IdealBasis(ambient, generators, n, power)
