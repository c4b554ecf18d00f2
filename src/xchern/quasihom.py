"""Finite-matrix quasihomomorphisms and invertible extensions with their
bivariant characters.

A quasihomomorphism is a pair of representations into N x N matrices over
the unitalized target whose difference lands in a declared matrix ideal
(None means the full matrix algebra: at finite size every operator is
summable to every order).  The even character is the composite
trace . X(lift) . gamma^{2n}; the odd one carries the supertrace and the
Bott normalization.
"""

from .scalars import ZERO, ONE, HALF, bott_constant
from .linalg import vec_axpy, Span
from . import tensoralg as T
from .xcomplex import (ChainMap, XGenerated, TensorAlg, TableAlg,
                       MatrixAlg, x_of_hom,
                       x_of_tensor_algebra)
from .chern import (gamma_even, gamma_odd, trace_map, mat_mul, mat_sub,
                    mat_unit, mat_is_zero)


class Quasihomomorphism:
    """rho_plus, rho_minus: A -> M_N(B~); the difference sits in the ideal.

    Matrices are lists of lists of dicts keyed by None (the adjoined unit)
    or basis indices of B."""

    def __init__(self, base, target, nsize, rho_plus, rho_minus, ideal=None,
                 name="phi", check=True):
        self.base = base
        self.target = target
        self.nsize = nsize
        self.rho_plus = rho_plus
        self.rho_minus = rho_minus
        self.ideal = ideal  # None = the full matrix ideal
        self.name = name
        if check:
            self._check()

    def _check(self):
        for rho in (self.rho_plus, self.rho_minus):
            if len(rho) != self.base.dim:
                raise ValueError("one matrix per basis element required")
        for rho in (self.rho_plus, self.rho_minus):
            defect = _defect_table(self.base, self.target, rho, self.nsize)
            if not all(mat_is_zero(m) for m in defect.values()):
                raise ValueError("representation is not multiplicative")
        if self.ideal is not None:
            for i in range(self.base.dim):
                diff = mat_sub(self.rho_plus[i], self.rho_minus[i])
                for r in range(self.nsize):
                    for c in range(self.nsize):
                        for key, coeff in diff[r][c].items():
                            if not self.ideal((r, c, key)):
                                raise ValueError(
                                    "difference leaves the declared ideal")

    def is_degenerate(self):
        for i in range(self.base.dim):
            if not mat_is_zero(mat_sub(self.rho_plus[i], self.rho_minus[i])):
                return False
        return True

    def swap(self):
        return Quasihomomorphism(self.base, self.target, self.nsize,
                                 self.rho_minus, self.rho_plus, self.ideal,
                                 name=self.name + ".swap", check=False)

    def direct_sum(self, other):
        assert self.base is other.base and self.target is other.target
        n1, n2 = self.nsize, other.nsize
        def block(m1, m2):
            n = n1 + n2
            out = [[{} for _ in range(n)] for _ in range(n)]
            for r in range(n1):
                for c in range(n1):
                    out[r][c] = dict(m1[r][c])
            for r in range(n2):
                for c in range(n2):
                    out[n1 + r][n1 + c] = dict(m2[r][c])
            return out
        rp = [block(self.rho_plus[i], other.rho_plus[i])
              for i in range(self.base.dim)]
        rm = [block(self.rho_minus[i], other.rho_minus[i])
              for i in range(self.base.dim)]
        return Quasihomomorphism(self.base, self.target, n1 + n2, rp, rm,
                                 None, name=self.name + "+" + other.name,
                                 check=False)


def _defect_table(base, target, table, nsize):
    """sum_k c_ij^k table[k] - table[i] table[j] for every basis pair (i, j)
    of base, where table lists nsize x nsize matrices over the
    unitalized target."""
    talg = TableAlg(target)
    rows = {}
    for i in range(base.dim):
        for j in range(base.dim):
            prod, _ = mat_mul(talg, table[i], table[j])
            expect = [[{} for _ in range(nsize)] for _ in range(nsize)]
            for k, c in base.product_basis(i, j).items():
                for r in range(nsize):
                    for cc in range(nsize):
                        vec_axpy(expect[r][cc], c, table[k][r][cc])
            rows[(i, j)] = mat_sub(expect, prod)
    return rows


def hom_quasi(base, target, nsize, rho, name="rho*0"):
    """The quasihomomorphism rho * 0 of a plain representation."""
    zero = [[[{} for _ in range(nsize)] for _ in range(nsize)]
            for _ in range(base.dim)]
    return Quasihomomorphism(base, target, nsize, rho, zero, None, name=name)


class InvertibleExtension:
    """alpha: A -> M_2(M_N(B~)) with off-diagonal blocks in the ideal and
    the symmetry X = diag(1, -1); stored as 2N x 2N matrices."""

    def __init__(self, base, target, nsize, alpha, ideal=None, name="ext",
                 check=True):
        self.base = base
        self.target = target
        self.nsize = nsize       # block size N; matrices are 2N x 2N
        self.alpha = alpha
        self.ideal = ideal
        self.name = name
        if check:
            self._check()

    def _check(self):
        two = 2 * self.nsize
        defect = _defect_table(self.base, self.target, self.alpha, two)
        if not all(mat_is_zero(m) for m in defect.values()):
            raise ValueError("alpha is not multiplicative")
        if self.ideal is not None:
            for i in range(self.base.dim):
                for r in range(two):
                    for c in range(two):
                        off = (r < self.nsize) != (c < self.nsize)
                        if off:
                            for key in self.alpha[i][r][c]:
                                if not self.ideal((r, c, key)):
                                    raise ValueError(
                                        "off-diagonal block leaves the ideal")

    def symmetry(self):
        two = 2 * self.nsize
        out = [[{} for _ in range(two)] for _ in range(two)]
        for k in range(two):
            out[k][k] = {None: ONE if k < self.nsize else -ONE}
        return out

    def conjugate_by_x(self, mat):
        two = 2 * self.nsize
        out = [[dict(mat[r][c]) for c in range(two)] for r in range(two)]
        for r in range(two):
            for c in range(two):
                if (r < self.nsize) != (c < self.nsize):
                    out[r][c] = {k: -v for k, v in out[r][c].items()}
        return out

    def is_degenerate(self):
        for i in range(self.base.dim):
            for r in range(2 * self.nsize):
                for c in range(2 * self.nsize):
                    if (r < self.nsize) != (c < self.nsize):
                        if self.alpha[i][r][c]:
                            return False
        return True


def busby(ext):
    """Compression P alpha P with the defect table of multiplicativity.

    Returns a report dict; the defect entries are certified to lie in the
    declared ideal, and the complementary compression has the same defect
    ideal."""
    n = ext.nsize
    two = 2 * n
    def compress(mat, lower):
        out = [[{} for _ in range(two)] for _ in range(two)]
        rng = range(n, two) if lower else range(n)
        for r in rng:
            for c in rng:
                out[r][c] = dict(mat[r][c])
        return out
    sigma = [compress(ext.alpha[i], False) for i in range(ext.base.dim)]
    sigma_inv = [compress(ext.alpha[i], True) for i in range(ext.base.dim)]
    d1 = _defect_table(ext.base, ext.target, sigma, two)
    d2 = _defect_table(ext.base, ext.target, sigma_inv, two)
    def in_ideal(rows):
        if ext.ideal is None:
            return True
        for mat in rows.values():
            for r in range(two):
                for c in range(two):
                    for key in mat[r][c]:
                        if not ext.ideal((r, c, key)):
                            return False
        return True
    return {
        "defect": d1,
        "inverse_defect": d2,
        "defect_in_ideal": in_ideal(d1),
        "inverse_defect_in_ideal": in_ideal(d2),
        "zero_defect": all(mat_is_zero(m) for m in d1.values()),
    }


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def _rep_on_window_word(plus, minus, word, talg, nsize):
    """Free-product representation on a window form word over A: a letter
    a acts by (plus(a) + minus(a))/2 and da by (plus(a) - minus(a))/2."""
    acc = mat_unit(nsize)
    factors = []
    if word[0] != 0:
        factors.append((HALF, word[0] - 1))
    for j in word[1:]:
        factors.append((-HALF, j))
    for s, j in factors:
        mat = [[{} for _ in range(nsize)] for _ in range(nsize)]
        for r in range(nsize):
            for c in range(nsize):
                vec_axpy(mat[r][c], HALF, plus[j][r][c])
                vec_axpy(mat[r][c], s, minus[j][r][c])
        acc, _ = mat_mul(talg, acc, mat)
    return acc


def _traced_lift(src_cx, letters, nsize, target, max_len_src, out_len, name,
                 graded=False, half=1):
    """X(lift) of matrix letters into X(M_N(T B~)) and the (super)trace
    back to X(T B~); returns (X(lift), trace, matrix complex, X(T B~))."""
    tb = TensorAlg(TableAlg(target), out_len, unital=True)
    xmat = XGenerated(MatrixAlg(tb, nsize, graded=graded, half=half),
                      graded=graded)
    xtb = XGenerated(tb)
    lift = T.LiftedHom(src_cx.alg, letters, nsize, max_len_src, out_len)

    def lift_img(word):
        mat, loss = lift.on_word(word)
        return lift.flatten(mat), loss

    xlift = x_of_hom(src_cx, xmat, lift_img, name=name)
    tr = trace_map(xmat, xtb, nsize, graded=graded, half=half)
    return xlift, tr, xmat, xtb


def ch_even(quasi, n, windows, return_parts=False):
    """Bivariant even character: trace . X(lift) . gamma^{2n}."""
    W = windows
    gamma, parts = gamma_even(quasi.base, n, W)
    talg = TableAlg(quasi.target)

    def rep(word):
        return _rep_on_window_word(quasi.rho_plus, quasi.rho_minus, word,
                                   talg, quasi.nsize)

    Xlift, tr, xmat, xtb = _traced_lift(parts["xtq"], rep, quasi.nsize,
                                        quasi.target, W.out_len, W.out_len,
                                        "X(lift)")
    ch = ChainMap.compose(tr, ChainMap.compose(Xlift, gamma),
                          name="ch%d(%s)" % (2 * n, quasi.name))
    if return_parts:
        parts.update({"xmat": xmat, "xtb": xtb, "lift": Xlift})
        return ch, parts
    return ch


def x_of_t_rho(quasi, windows, branch="plus"):
    """X(T rho) for one branch of the pair, in the same target complex
    conventions as ch_even (unit letters merge)."""
    W = windows
    xt = x_of_tensor_algebra(quasi.base, W.src_len)
    rho = quasi.rho_plus if branch == "plus" else quasi.rho_minus
    Xl, tr, _, xtb = _traced_lift(xt, rho, quasi.nsize, quasi.target,
                                  W.src_len, W.out_len, "X(T%s)" % branch)
    return ChainMap.compose(tr, Xl, name="trX(T%s)" % branch), xt, xtb


def ch_odd(ext, n, windows, return_parts=False):
    """Bivariant odd character: sqrt(2 pi i) supertrace . X(lift) .
    gamma^{2n+1}."""
    W = windows
    gamma, parts = gamma_odd(ext.base, n, W)
    talg = TableAlg(ext.target)
    two = 2 * ext.nsize
    xax = [ext.conjugate_by_x(al) for al in ext.alpha]

    def rep(word):
        """phi^s on a window form word: iota -> alpha, bar -> X alpha X."""
        return _rep_on_window_word(ext.alpha, xax, word, talg, two)

    Xlift, tr, xmat, xtb = _traced_lift(parts["xtq"], rep, two, ext.target,
                                        W.out_len, W.out_len, "X(lift_s)",
                                        graded=True, half=ext.nsize)
    ch = ChainMap.compose(tr, ChainMap.compose(Xlift, gamma)) \
        .scale(bott_constant(), name="ch%d(%s)" % (2 * n + 1, ext.name))
    if return_parts:
        parts.update({"xmat": xmat, "xtb": xtb})
        return ch, parts
    return ch


def compose_quasihom(psi_plus, psi_minus, quasi2, base, target2, n1, window_deg):
    """Kasparov-style composition through a declared lift.

    psi_plus/minus: lists over base basis of N1 x N1 matrices whose entries
    are window forms over quasi2.base (dicts keyed by form words or None),
    representing the lift into matrices over the unitalized free product.
    quasi2 is then applied letterwise through its free-product form.
    """
    talg2 = TableAlg(quasi2.target)
    n2 = quasi2.nsize

    def expand(entry_mat):
        """Matrix over Q~B -> matrix over M_{n2}(C~) via the free product."""
        n = n1 * n2
        out = [[{} for _ in range(n)] for _ in range(n)]
        for r in range(n1):
            for c in range(n1):
                for key, coeff in entry_mat[r][c].items():
                    if key is None:
                        block = mat_unit(n2)
                    else:
                        block = _rep_on_window_word(
                            quasi2.rho_plus, quasi2.rho_minus, key, talg2, n2)
                    for rr in range(n2):
                        for cc in range(n2):
                            vec_axpy(out[r * n2 + rr][c * n2 + cc], coeff,
                                     block[rr][cc])
        return out

    rp = [expand(psi_plus[i]) for i in range(base.dim)]
    rm = [expand(psi_minus[i]) for i in range(base.dim)]
    return Quasihomomorphism(base, quasi2.target, n1 * n2, rp, rm, None,
                             name="composite")


# ---------------------------------------------------------------------------
# index pairing against the brute-force kernel/cokernel oracle
# ---------------------------------------------------------------------------

# calibration constants for the pairing, fixed once against the oracle on
# rank-one reference modules (tests recompute and assert them)
PAIRING_CONSTANTS = {0: ONE}


def _rank(vectors):
    s = Span()
    for v in vectors:
        s.add(v)
    return s.dim


def fredholm_index_oracle(M, e_matrix, k):
    """dim ker - dim coker of the compression of F to the range of the
    idempotent action, computed by exact rank arithmetic.

    M must be an even bimodule over the scalar target (entries of rho and F
    have only None keys); e_matrix is a k x k idempotent over the
    unitalization of the base."""
    n2 = 2 * M.nsize
    def scal(entry):
        # scalar target: the formal unit and the basis unit both count
        return entry.get(None, ZERO) + entry.get(0, ZERO)
    # amplified idempotent action P on C^k (x) C^(2N), rows indexed (i, v)
    dim = k * n2
    P = {}
    for i in range(k):
        for j in range(k):
            s, body = e_matrix[i][j]
            block = [[(s if r == c else ZERO) for c in range(n2)]
                     for r in range(n2)]
            for bidx, coeff in body.items():
                rho = M.rho[bidx]
                for r in range(n2):
                    for c in range(n2):
                        block[r][c] = block[r][c] + coeff * scal(rho[r][c])
            for r in range(n2):
                for c in range(n2):
                    if block[r][c]:
                        P[(i, r), (j, c)] = block[r][c]
    fm = [[scal(M.fmat[r][c]) for c in range(n2)] for r in range(n2)]
    half = M.nsize

    def apply_P(vec):
        out = {}
        for ((i, r), (j, c)), val in P.items():
            cc = vec.get((j, c))
            if cc:
                out[(i, r)] = out.get((i, r), ZERO) + val * cc
        return {kk: v for kk, v in out.items() if v}

    def apply_F(vec):
        out = {}
        for (j, c), cc in vec.items():
            for r in range(n2):
                if fm[r][c]:
                    out[(j, r)] = out.get((j, r), ZERO) + fm[r][c] * cc
        return {kk: v for kk, v in out.items() if v}

    # basis of e H+ and e H-: P applied to unit vectors, split by grading
    plus_rows = []
    minus_rows = []
    for i in range(k):
        for r in range(n2):
            img = apply_P({(i, r): ONE})
            if not img:
                continue
            if r < half:
                plus_rows.append(img)
            else:
                minus_rows.append(img)
    plus_span = Span(plus_rows)
    minus_span = Span(minus_rows)
    dim_plus = plus_span.dim
    dim_minus = minus_span.dim
    # W: e H+ -> e H-, v -> P F v
    images = []
    for row in plus_span.basis():
        images.append(apply_P(apply_F(row)))
    rank = _rank(images)
    ker = dim_plus - rank
    coker = dim_minus - rank
    return ker - coker


def index_pairing(M, e_matrix, k, n=0):
    """Pairing of the retracted character with an idempotent over the
    unitalized base; exact, integer-valued, cross-checked by the oracle.

    e_matrix entries are pairs (scalar part, body dict over base indices)."""
    # verify idempotency over the unitalization
    for i in range(k):
        for j in range(k):
            acc_s = ZERO
            acc_b = {}
            for l in range(k):
                s1, b1 = e_matrix[i][l]
                s2, b2 = e_matrix[l][j]
                acc_s = acc_s + s1 * s2
                for bi, c in b1.items():
                    vec_axpy(acc_b, c * s2, {bi: ONE})
                for bi, c in b2.items():
                    vec_axpy(acc_b, c * s1, {bi: ONE})
                for bi, c1 in b1.items():
                    for bj, c2 in b2.items():
                        vec_axpy(acc_b, c1 * c2,
                                 M.base.product_basis(bi, bj))
            s, b = e_matrix[i][j]
            diff = dict(acc_b)
            vec_axpy(diff, -ONE, b)
            if acc_s - s or diff:
                raise ValueError("matrix is not idempotent")
    if M.parity != 0:
        raise ValueError("index pairing needs an even bimodule")
    if n != 0:
        raise ValueError("only the base constant is calibrated")
    # degree-0 pairing: the supertraced commutator formula on tr(e)
    total = ZERO
    for i in range(k):
        _, body = e_matrix[i][i]
        for bidx, coeff in body.items():
            comm, _ = M.commutator(bidx)
            word, _ = mat_mul(M.alg, M.fmat, comm)
            def scal(entry):
                return entry.get(None, ZERO) + entry.get(0, ZERO)
            tr = ZERO
            for r in range(M.nsize):
                tr = tr + scal(word[r][r])
            for r in range(M.nsize, 2 * M.nsize):
                tr = tr - scal(word[r][r])
            total = total + coeff * HALF * tr
    total = total * PAIRING_CONSTANTS[0]
    if not total.is_rational():
        raise ValueError("pairing value is not rational")
    return total
