"""Degree-truncated noncommutative differential forms.

A degree-n basis word is a tuple (u, i1, ..., in): u = 0 denotes the
adjoined unit in slot zero, u = k >= 1 denotes basis element k-1 of the
algebra, and the letters i are algebra basis indices.  Degree-0 words have
u >= 1 (slot zero of a 0-form lives in the algebra itself, not its
unitalization).

All operators act word-wise and sparsely.  Components pushed above the
space's max_degree are dropped and the result is flagged lossy; identities
are only ever asserted where no loss occurred.
"""

from .scalars import ZERO, ONE
from .linalg import vec_axpy, Span


class FormSpace:
    def __init__(self, algebra, max_degree):
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        self.algebra = algebra
        self.max_degree = max_degree
        self._proj_cache = {}
        self._op_cache = {}

    def basis_words(self, n):
        """All degree-n basis words, in lexicographic order."""
        if n > self.max_degree:
            return []
        dim = self.algebra.dim
        words = []
        if n == 0:
            return [(u,) for u in range(1, dim + 1)]
        def rec(prefix, k):
            if k == 0:
                words.append(tuple(prefix))
                return
            for i in range(dim):
                rec(prefix + [i], k - 1)
        for u in range(dim + 1):
            rec([u], n)
        return words

    def dim_degree(self, n):
        d = self.algebra.dim
        if n == 0:
            return d
        return (d + 1) * d ** n

    def zero(self):
        return Form(self, {})

    def form(self, coeffs, lossy=False):
        return Form(self, coeffs, lossy)

    def from_element(self, x):
        """Degree-0 form from an algebra element."""
        return Form(self, {(i + 1,): c for i, c in x.coeffs.items() if c})

    def word(self, w, coeff=ONE):
        return Form(self, {tuple(w): coeff})

    def __repr__(self):
        return "FormSpace(%s, max_degree=%d)" % (self.algebra.name,
                                                 self.max_degree)


class Form:
    __slots__ = ("space", "coeffs", "lossy")

    def __init__(self, space, coeffs, lossy=False):
        self.space = space
        self.coeffs = {w: c for w, c in coeffs.items() if c}
        self.lossy = lossy

    def __add__(self, other):
        assert self.space is other.space
        out = dict(self.coeffs)
        vec_axpy(out, ONE, other.coeffs)
        return Form(self.space, out, self.lossy or other.lossy)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Form(self.space, {w: -c for w, c in self.coeffs.items()},
                    self.lossy)

    def scale(self, c):
        if not c:
            return Form(self.space, {}, self.lossy)
        return Form(self.space, {w: c * v for w, v in self.coeffs.items()},
                    self.lossy)

    def component(self, n):
        return Form(self.space,
                    {w: c for w, c in self.coeffs.items() if len(w) - 1 == n},
                    self.lossy)

    def degrees(self):
        return sorted({len(w) - 1 for w in self.coeffs})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return self.space is other.space and self.coeffs == other.coeffs

    def top_degree(self):
        return max((len(w) - 1 for w in self.coeffs), default=-1)

    def __repr__(self):
        if not self.coeffs:
            return "Form(0)"
        names = self.space.algebra.basis_names
        def wname(w):
            head = "1~" if w[0] == 0 else str(names[w[0] - 1])
            return head + "".join(".d%s" % names[i] for i in w[1:])
        return "Form(" + " + ".join("(%s)*%s" % (c, wname(w))
                                    for w, c in sorted(self.coeffs.items())) + ")"


# ---------------------------------------------------------------------------
# word-level primitives; each returns (dict word -> Scalar, lossy flag)
# ---------------------------------------------------------------------------


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
    out = {}
    for k, c in space.algebra.product_basis(j, w[0] - 1).items():
        out[(k + 1,) + w[1:]] = c
    return out, False


def _right_mul_word(space, w, j):
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
        key = prefix + (k,)
        vec_axpy(out, ONE, {key: c})
    inner, lossy = _right_mul_word(space, prefix, last)
    for iw, c in inner.items():
        vec_axpy(out, ONE, {iw + (j,): -c})
    return out, lossy


def _mul_words(space, w1, w2):
    """Graded product w1 * w2 of two basis words."""
    n1, n2 = len(w1) - 1, len(w2) - 1
    if n1 + n2 > space.max_degree:
        return {}, True
    tail = w2[1:]
    if w2[0] == 0:
        absorbed = {w1: ONE}
        lossy = False
    else:
        absorbed, lossy = _right_mul_word(space, w1, w2[0] - 1)
    out = {}
    for w, c in absorbed.items():
        vec_axpy(out, c, {w + tail: ONE})
    return out, lossy


def _apply(space, fn, form, cache_tag=None):
    out = {}
    lossy = form.lossy
    cache = space._op_cache
    for w, c in form.coeffs.items():
        if cache_tag is not None:
            key = (cache_tag, w)
            hit = cache.get(key)
            if hit is None:
                hit = fn(space, w)
                cache[key] = hit
            vec, l = hit
        else:
            vec, l = fn(space, w)
        lossy = lossy or l
        vec_axpy(out, c, vec)
    return Form(space, out, lossy)


# ---------------------------------------------------------------------------
# public operator suite
# ---------------------------------------------------------------------------


def d(form):
    """Differential: d(a0.da1...dan) = da0.da1...dan, d(1~ ...) = 0."""
    return _apply(form.space, _d_word, form, cache_tag="d")


def _b_word(space, w):
    n = len(w) - 1
    if n == 0:
        return {}, False
    prefix, last = w[:-1], w[-1]
    sign = ONE if (n - 1) % 2 == 0 else -ONE
    out, _ = _right_mul_word(space, prefix, last)
    out = {k: c * sign for k, c in out.items()}
    left, _ = _left_mul_word(space, last, prefix)
    for k, c in left.items():
        vec_axpy(out, -sign * c, {k: ONE})
    return out, False


def b(form):
    """Hochschild boundary: b(w.da) = (-1)^{|w|}[w, a], zero in degree 0."""
    return _apply(form.space, _b_word, form, cache_tag="b")


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


def kappa(form):
    """Karoubi operator, 1 - kappa = db + bd."""
    return _apply(form.space, _kappa_word, form, cache_tag="kappa")


def _B_word(space, w):
    n = len(w) - 1
    dw, lossy = _d_word(space, w)
    acc = Form(space, dw)
    total = dict(dw)
    for _ in range(n):
        acc = kappa(acc)
        vec_axpy(total, ONE, acc.coeffs)
    return total, lossy


def connes_B(form):
    """Connes boundary (1 + kappa + ... + kappa^n) d on degree n."""
    return _apply(form.space, _B_word, form, cache_tag="B")


def graded_mul(f1, f2):
    """Multiplication of forms, determined by the Leibniz rule."""
    if f1.space is not f2.space:
        raise ValueError("forms live in different spaces")
    space = f1.space
    out = {}
    lossy = f1.lossy or f2.lossy
    for w1, c1 in f1.coeffs.items():
        for w2, c2 in f2.coeffs.items():
            vec, l = _mul_words(space, w1, w2)
            lossy = lossy or l
            vec_axpy(out, c1 * c2, vec)
    return Form(space, out, lossy)


def fedosov_even(f1, f2):
    """Tensor-algebra product w1*w2 - dw1*dw2 on even forms."""
    for f in (f1, f2):
        if any(n % 2 for n in f.degrees()):
            raise ValueError("fedosov_even requires purely even forms")
    return graded_mul(f1, f2) - graded_mul(d(f1), d(f2))


def fedosov_full(f1, f2):
    """Free-product algebra product w1*w2 - (-1)^{|w1|} dw1*dw2."""
    if f1.space is not f2.space:
        raise ValueError("forms live in different spaces")
    out = f1.space.zero()
    for n1 in f1.degrees():
        c1 = f1.component(n1)
        term = graded_mul(c1, f2)
        corr = graded_mul(d(c1), d(f2))
        out = (out + term - corr) if n1 % 2 == 0 else (out + term + corr)
    out.lossy = out.lossy or f1.lossy or f2.lossy
    return out


# ---------------------------------------------------------------------------
# cyclic spectral projection
# ---------------------------------------------------------------------------


def _operator_columns(space, n, op):
    cols = {}
    for w in space.basis_words(n):
        cols[w] = op(Form(space, {w: ONE})).coeffs
    return cols


def _compose_columns(cols_a, cols_b):
    """Columns of A after B (A o B)."""
    out = {}
    for w, vec in cols_b.items():
        img = {}
        for v, c in vec.items():
            vec_axpy(img, c, cols_a.get(v, {}))
        out[w] = img
    return out


def cyclic_projection(space, n):
    """Projection onto the generalized 1-eigenspace of kappa^2 on degree n.

    The exponent is allowed to reach dim of the degree-n space; kernels of
    the iterated powers stabilize long before that, and the computation stops
    exactly at stabilization, which yields the same subspace.
    """
    if n > space.max_degree:
        raise ValueError("degree %d exceeds max_degree %d" % (n, space.max_degree))
    if n in space._proj_cache:
        return space._proj_cache[n]
    words = space.basis_words(n)
    k2 = _operator_columns(space, n, lambda f: kappa(kappa(f)))
    m = {w: dict(vec) for w, vec in k2.items()}
    for w in words:
        dd = m[w].get(w, ZERO) - ONE
        if dd:
            m[w][w] = dd
        elif w in m[w]:
            del m[w][w]
    # iterate powers of (kappa^2 - 1) until the kernel stabilizes
    power = m
    prev_rank = None
    while True:
        img = Span(power.values())
        if img.dim == prev_rank:
            break
        prev_rank = img.dim
        power = _compose_columns(m, power)
    image_span = Span(power.values())
    kernel = _nullspace_of_columns(power, words)
    # assemble the projector: write each unit vector as k + w, keep k
    mixed = list(kernel) + list(image_span.basis())
    keep = len(kernel)
    prov = Span(mixed, track=True)
    proj = {}
    for w in words:
        co = prov.coordinates({w: ONE})
        if co is None:
            raise ValueError("kernel and image do not span degree %d" % n)
        img = {}
        for idx, cf in co.items():
            if idx < keep and cf:
                vec_axpy(img, cf, mixed[idx])
        proj[w] = img
    space._proj_cache[n] = proj
    return proj


def _nullspace_of_columns(cols, domain_words):
    """Kernel of the linear map with the given columns, as coefficient dicts
    over domain words."""
    rows = {}
    for w in domain_words:
        for lab, c in cols.get(w, {}).items():
            rows.setdefault(lab, {})[w] = c
    span = Span(rows.values())
    pivots = set(span.rows.keys())
    kernel = []
    for w in domain_words:
        if w in pivots:
            continue
        vec = {w: ONE}
        for p, row in span.rows.items():
            c = row.get(w)
            if c:
                vec[p] = -c
        kernel.append(vec)
    return kernel


def apply_columns(cols, vec):
    out = {}
    for w, c in vec.items():
        vec_axpy(out, c, cols.get(w, {}))
    return out
