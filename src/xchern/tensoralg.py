"""Tensor algebras in two pictures: tensor words and even Fedosov forms.

Tensor words are tuples of algebra basis indices, length >= 1, and an
element of T(A) is a dict {word: coefficient}; a form is a dict over form
words (see forms), returned with its loss flag.  The correspondence with
even forms sends a word a1 x ... x an to the iterated even Fedosov product
a1 (.) a2 (.) ... (.) an, and conversely expands a word a0.da1...da2n
through curvature letters a*b - a x b.
"""

import itertools

from .scalars import ONE
from .linalg import vec_axpy, Span
from .algebra import Algebra, dict_product
from . import forms as F


def tensor_words(dim, max_len):
    """Words of length 1..max_len, by length, each length in lexicographic
    order."""
    return [w for n in range(1, max_len + 1)
            for w in itertools.product(range(dim), repeat=n)]


def to_forms(terms, space):
    """Even Fedosov form of a tensor-algebra element {word: coefficient}:
    (form dict, lossy)."""
    out = {}
    lossy = False
    for w, c in terms.items():
        acc = {(w[0] + 1,): ONE}
        for i in w[1:]:
            acc, l = F.fedosov_full(space, acc, {(i + 1,): ONE})
            lossy = lossy or l
        vec_axpy(out, c, acc)
    return out, lossy


def from_forms(space, vec, max_length):
    """Inverse of to_forms on even forms, via curvature letters: returns
    (terms {word: coefficient}, lossy).

    The expansion is summed in full before truncating, so words beyond the
    window only flag a loss when their total coefficient is nonzero."""
    if any(len(w) % 2 == 0 for w in vec):
        raise ValueError("from_forms requires a purely even form")
    alg = space.algebra
    out = {}
    for w, c in vec.items():
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
    lossy = False
    kept = {}
    for w, c in out.items():
        if len(w) > max_length:
            lossy = True
        else:
            kept[w] = c
    return kept, lossy


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
    alg = Algebra(names, mul, check=False)
    alg.tensor_info = (base, max_len, index, words)
    return alg


def ideal_power(ambient, generators, n):
    """Span of the n-th power of the two-sided ideal generated in the
    labelled algebra ambient, as a linalg.Span.

    The closure runs span growth over the basis of ambient to a fixed
    point."""
    if n < 1:
        raise ValueError("ideal powers start at 1")

    def product(u, v):
        return dict_product(ambient, u, v)[0]

    basis_elems = [{l: ONE} for l in ambient.basis()]
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
        return ideal
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
    return power
