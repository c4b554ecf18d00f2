"""Finite-matrix quasihomomorphisms and their bivariant characters.

A quasihomomorphism is a pair of representations into N x N matrices over
the unitalized target; at finite size every operator is summable to every
order, so no ideal is declared for the difference.  An invertible
extension alpha: A -> M_2(M_N(B~)), graded by X = diag(1, -1), is the pair
(alpha, X alpha X) of size 2N.  One call, character(pair, n, windows,
odd), gives both bivariant characters: the even one is the composite
trace . X(lift) . gamma^{2n}; the odd one, of an extension, carries the
supertrace over the blocks of X and the Bott normalization.
"""

from .scalars import ZERO, ONE, HALF, bott_constant, is_rational
from .linalg import Span, vec_axpy
from .xcomplex import ChainMap, XGenerated, TensorAlg, x_of_tensor_algebra
from .chern import (gamma_composite, is_multiplicative, mat_mul,
                    mat_sub, mat_unit, mat_is_zero, mat_zero, mat_axpy,
                    _trace, _trace_entries)


class Quasihomomorphism:
    """rho_plus, rho_minus: A -> M_N(B~), both multiplicative.

    Matrices are lists of lists of dicts keyed by None (the adjoined unit)
    or basis indices of B."""

    def __init__(self, base, target, nsize, rho_plus, rho_minus):
        self.base = base
        self.target = target
        self.nsize = nsize
        self.rho_plus = rho_plus
        self.rho_minus = rho_minus
        for rho in (rho_plus, rho_minus):
            if len(rho) != self.base.dim:
                raise ValueError("one matrix per basis element required")
            if not is_multiplicative(self.base, self.target, rho):
                raise ValueError("representation is not multiplicative")

    def is_degenerate(self):
        for i in range(self.base.dim):
            if not mat_is_zero(mat_sub(self.rho_plus[i], self.rho_minus[i])):
                return False
        return True

    def swap(self):
        return Quasihomomorphism(self.base, self.target, self.nsize,
                                 self.rho_minus, self.rho_plus)

    def direct_sum(self, other):
        assert self.base is other.base and self.target is other.target
        n1, n2 = self.nsize, other.nsize
        def block(m1, m2):
            out = mat_zero(n1 + n2)
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
        return Quasihomomorphism(self.base, self.target, n1 + n2, rp, rm)


def hom_quasi(base, target, nsize, rho):
    """The quasihomomorphism rho * 0 of a plain representation."""
    zero = [mat_zero(nsize) for _ in range(base.dim)]
    return Quasihomomorphism(base, target, nsize, rho, zero)


def invertible_extension(base, target, nsize, alpha):
    """The invertible extension alpha: A -> M_2(M_N(B~)), stored as 2N x 2N
    matrices, as the quasihomomorphism (alpha, X alpha X) of size 2N.

    Conjugating by X = diag(1, -1) negates the off-diagonal blocks, so
    alpha - X alpha X is twice the odd part of alpha: the pair is
    degenerate exactly when alpha is even."""
    xax = [[[{k: -v for k, v in entry.items()}
             if (r < nsize) != (c < nsize) else entry
             for c, entry in enumerate(row)] for r, row in enumerate(mat)]
           for mat in alpha]
    return Quasihomomorphism(base, target, 2 * nsize, alpha, xax)


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
        mat = mat_axpy(mat_axpy(mat_zero(nsize), HALF, plus[j]), s, minus[j])
        acc, _ = mat_mul(talg, acc, mat)
    return acc


def lift_words(letters, tb):
    """Word-level lift of matrix letters into M_N(tb): matrix letters
    multiply, target letters stay tensored.

    letters(i) is the N x N matrix of source letter i, with entries over
    B~ keys (None = adjoined unit, k = basis of B); tb is the unital
    truncated tensor algebra over B, whose keys are tuples of B basis
    indices with () the unit.  Returns lift(word) -> (matrix over the
    words of tb, loss); each letter and each word is lifted once."""
    embedded = {}
    lifts = {}

    def letter(i):
        hit = embedded.get(i)
        if hit is None:
            hit = embedded[i] = [[{() if key is None else (key,): coeff
                                   for key, coeff in entry.items() if coeff}
                                  for entry in row] for row in letters(i)]
        return hit

    def lift(word):
        hit = lifts.get(word)
        if hit is None:
            acc, loss = letter(word[0]), False
            for i in word[1:]:
                acc, l = mat_mul(tb, acc, letter(i))
                loss = loss or l
            hit = lifts[word] = (acc, loss)
        return hit
    return lift


def _traced_lift(src_cx, letters, nsize, target, out_len, half=None):
    """trace . X(lift) of matrix letters, as one chain map from src_cx to
    X(T B~), with the supertrace of blocks of size half when half is given.

    An odd source label (z, g) pairs a lift with the lift of the one
    letter g, whose entries are single letters or the unit word, so the
    trace of its class is sum_{r,c} s_r class(lift(z)[r][c].d
    lift(g)[c][r]); a unit word in lift(g) contributes d(1) = 0."""
    tb = TensorAlg(target, out_len, unital=True)
    xtb = XGenerated(tb)
    lift = lift_words(letters, tb)
    signs = [-ONE if half and (r // half) % 2 else ONE
             for r in range(nsize)]

    def efn(word):
        mat, loss = lift(word)
        out = {}
        for r, s in enumerate(signs):
            vec_axpy(out, s, mat[r][r])
        return out, loss

    def ofn(lab):
        z, g = lab
        gmat, loss = lift(g)
        out = {}
        if z is None:
            # the unit word () is no generator: its class d(1) is zero
            for r, s in enumerate(signs):
                vec_axpy(out, s, {(None, gb): c
                                  for gb, c in gmat[r][r].items() if gb})
            return out, loss
        zmat, l = lift(z)
        loss = loss or l
        for r, s in enumerate(signs):
            for c in range(nsize):
                vec, l = xtb.omega1_vec(zmat[r][c], gmat[c][r])
                loss = loss or l
                vec_axpy(out, s, vec)
        return out, loss
    return ChainMap(src_cx, xtb, 0, efn, ofn)


def character(quasi, n, windows, odd):
    """Bivariant character trace . X(lift) . gamma^{2n} of the pair; when
    odd, of an extension (alpha, X alpha X): gamma^{2n+1}, the supertrace
    over the two halves and the Bott scale sqrt(2 pi i)."""
    gamma = gamma_composite(quasi.base, n, windows, odd)

    def rep(word):
        return _rep_on_window_word(quasi.rho_plus, quasi.rho_minus, word,
                                   quasi.target, quasi.nsize)

    trlift = _traced_lift(gamma.target, rep, quasi.nsize, quasi.target,
                          windows.out_len, quasi.nsize // 2 if odd else None)
    ch = ChainMap.compose(trlift, gamma)
    return ch.scale(bott_constant()) if odd else ch


def x_of_t_rho(quasi, windows):
    """X(T rho_plus), in the same target complex conventions as the even
    character (unit letters merge)."""
    W = windows
    return _traced_lift(x_of_tensor_algebra(quasi.base, W.src_len),
                        quasi.rho_plus.__getitem__, quasi.nsize, quasi.target,
                        W.out_len)


# ---------------------------------------------------------------------------
# index pairing against the brute-force kernel/cokernel oracle
# ---------------------------------------------------------------------------

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
    rank = Span([apply_P(apply_F(row)) for row in plus_span.basis()]).dim
    ker = dim_plus - rank
    coker = dim_minus - rank
    return ker - coker


def is_idempotent(base, e_matrix):
    """Whether e_matrix, a square matrix of (scalar part, body dict over
    base indices) pairs over the unitalized base, squares to itself."""
    E = [[{key: c for key, c in [(None, s), *body.items()] if c}
          for s, body in row] for row in e_matrix]
    EE, _ = mat_mul(base, E, E)
    return mat_is_zero(mat_sub(EE, E))


def index_pairing(M, e_matrix, k):
    """Pairing of the retracted character with an idempotent over the
    unitalized base; exact, integer-valued, cross-checked by the oracle.

    e_matrix entries are pairs (scalar part, body dict over base indices)."""
    if not is_idempotent(M.base, e_matrix):
        raise ValueError("matrix is not idempotent")
    if M.parity != 0:
        raise ValueError("index pairing needs an even bimodule")
    # degree-0 pairing: the supertraced commutator formula on tr(e)
    total = ZERO
    for i in range(k):
        _, body = e_matrix[i][i]
        for bidx, coeff in body.items():
            comm, _ = M.commutator(bidx)
            word, _ = mat_mul(M.alg, M.fmat, comm)
            st = _trace(_trace_entries(0, M.nsize), word)
            tr = st.get(None, ZERO) + st.get(0, ZERO)
            total = total + coeff * HALF * tr
    if not is_rational(total):
        raise ValueError("pairing value is not rational")
    return total
