"""Universal and retracted Chern cocycles.

The retraction formulas evaluate words of the shape
F [F, rho(a_0)] ... [F, rho(a_n)] under a graded trace, with cyclic sums
running over rotations (the cyclic group, signs (-1)^{j(k-1)} for a j-step
rotation of k letters).  Bimodules of both parities are 2N x 2N block
matrices.  Even ones use the supertrace of the block grading; odd ones are
stored in the doubled picture, whose off-diagonal block carries the
Clifford generator, and the odd trace picks its coefficient with the
factor sqrt(2i).  Both traces read one list of (row, col, sign) entries.

The universal cocycles read a source label of X(T A) as its form in
Omega A (tensoralg.to_forms, xcomplex.xt_odd_to_form); the composite
cocycles multiply words through the product of the target TensorAlg.
"""

import math
from fractions import Fraction

from .scalars import ONE, HALF, gamma_half, inv, SQRT_2I
from .linalg import vec_add, vec_axpy, vec_scale
from . import forms as F
from . import tensoralg as T
from .qalgebra import eta_even, eta_odd
from .algebra import dict_product
from .xcomplex import (ChainMap, XGenerated, FedosovAlg, ZekriAlg,
                       TensorAlg, kappa_map, x_of_hom,
                       x_of_tensor_algebra, xt_odd_to_form)


def retraction_constant(n):
    """Gamma(n/2 + 1) / (n + 1)! * 1/2: the normalization of the degree-n
    retracted cocycle before its sign and the odd factor sqrt(2i)."""
    return gamma_half(n + 2) * inv(math.factorial(n + 1)) * HALF


def _rot_sign(j, k):
    """Sign of the j-step rotation of k letters."""
    return ONE if (j * (k - 1)) % 2 == 0 else -ONE


# ---------------------------------------------------------------------------
# matrices over a labelled algebra; entries are dicts with the key None for
# the adjoined unit.
# ---------------------------------------------------------------------------


def mat_zero(n):
    return [[{} for _ in range(n)] for _ in range(n)]


def mat_axpy(out, c, A):
    """In place: out += c * A; returns out."""
    for orow, arow in zip(out, A):
        for acc, entry in zip(orow, arow):
            vec_axpy(acc, c, entry)
    return out


def mat_mul(alg, A, B):
    n = len(A)
    out = mat_zero(n)
    loss = False
    for r in range(n):
        for c in range(n):
            acc = out[r][c]
            for k in range(n):
                if A[r][k] and B[k][c]:
                    prod, l = dict_product(alg, A[r][k], B[k][c])
                    loss = loss or l
                    vec_axpy(acc, ONE, prod)
    return out, loss


def mat_sub(A, B):
    return mat_axpy([[dict(e) for e in row] for row in A], -ONE, B)


def mat_unit(n):
    return [[({None: ONE} if r == c else {}) for c in range(n)]
            for r in range(n)]


def mat_unit_alg(alg, n):
    """Identity matrix using the algebra's own unit when it has one."""
    ud = alg.unit_dict()
    if not ud:
        return mat_unit(n)
    return [[(dict(ud) if r == c else {}) for c in range(n)]
            for r in range(n)]


def mat_is_zero(A):
    return all(not e for row in A for e in row)


def is_multiplicative(base, alg, mats):
    """Whether the matrices mats over the unitalized alg, one per basis
    element of base, satisfy mats[i] mats[j] = sum_k c_ij^k mats[k]."""
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            defect, _ = mat_mul(alg, mi, mj)
            for k, c in base.product_basis(i, j).items():
                mat_axpy(defect, -c, mats[k])
            if not mat_is_zero(defect):
                return False
    return True


def _doubled(x, y):
    """x + y*eps as the 2N x 2N matrix [[x, y], [y, x]]; eps is the odd
    Clifford generator."""
    return [[dict(e) for e in rx + ry] for rx, ry in zip(x, y)] + \
        [[dict(e) for e in ry + rx] for rx, ry in zip(x, y)]


class FredholmBimodule:
    """rho and an odd symmetry F with F^2 = 1 over a matrix algebra, stored
    as 2N x 2N matrices: rho(a) block diagonal, F block off-diagonal.

    parity 0: rho and F are given at size 2N.
    parity 1: rho is given through N x N matrices alpha and F through an
    N x N matrix f; the doubled picture rho = diag(alpha, alpha),
    F = offdiag(f, f) is stored, and F^2 is compared to the target
    algebra's own unit when it has one.
    """

    def __init__(self, base, alg, parity, rho, fmat, nsize):
        self.base = base          # source Algebra
        self.alg = alg            # target algebra protocol object
        self.parity = parity
        self.nsize = nsize        # N as above
        if parity:
            zero = mat_zero(nsize)
            rho = [_doubled(m, zero) for m in rho]
            fmat = _doubled(zero, fmat)
        self.rho = rho            # list over base basis of matrices
        self.fmat = fmat
        self._check()

    def _check(self):
        n = self.nsize
        unit = mat_unit_alg(self.alg, 2 * n) if self.parity else \
            mat_unit(2 * n)
        f2, _ = mat_mul(self.alg, self.fmat, self.fmat)
        if not mat_is_zero(mat_sub(f2, unit)):
            raise ValueError("F^2 is not the identity")
        if not is_multiplicative(self.base, self.alg, self.rho):
            raise ValueError("rho is not multiplicative")
        for r in range(2 * n):
            for c in range(2 * n):
                on_diag = (r < n) == (c < n)
                if on_diag and self.fmat[r][c]:
                    raise ValueError("F has even-degree components")
                for m in self.rho:
                    if not on_diag and m[r][c]:
                        raise ValueError("rho has odd-degree components")

    def commutator(self, i):
        """[F, rho(a_i)]."""
        fr, l1 = mat_mul(self.alg, self.fmat, self.rho[i])
        rf, l2 = mat_mul(self.alg, self.rho[i], self.fmat)
        return mat_sub(fr, rf), (l1 or l2)

    def is_degenerate(self):
        return all(mat_is_zero(self.commutator(i)[0])
                   for i in range(self.base.dim))


def _trace_entries(parity, nsize):
    """The (row, col, sign) entries of a 2N x 2N matrix that its trace
    reads: the supertrace of the block grading for parity 0; for parity 1
    the diagonal of the top-right block, the trace of the eps coefficient
    y of x + y*eps in the doubled picture."""
    if parity:
        return [(k, nsize + k, ONE) for k in range(nsize)]
    return [(k, k, ONE if k < nsize else -ONE) for k in range(2 * nsize)]


def _trace(entries, A):
    out = {}
    for r, c, sign in entries:
        vec_axpy(out, sign, A[r][c])
    return out


def _drop_unit(vec):
    return {k: c for k, c in vec.items() if k is not None}


def _trace_d(tgt, entries, A, B):
    """(class, loss) of the trace of A . d(B) in the target X-complex; d
    kills unit components of B.  The (z, y) pairs of the traced entries
    are summed first, and each pair is then reduced once."""
    pairs = {}
    for r, c, sign in entries:
        for k, row in enumerate(B):
            for zk, c1 in A[r][k].items():
                for yk, c2 in row[c].items():
                    if yk is not None:
                        vec_axpy(pairs, sign * c1 * c2, {(zk, yk): ONE})
    out = {}
    loss = False
    for (zk, yk), c in pairs.items():
        vec, l = tgt.omega1_vec({zk: ONE}, {yk: ONE})
        loss = loss or l
        vec_axpy(out, c, vec)
    return out, loss


def retracted_cocycle(M, n, src, tgt):
    """The degree-n retracted cocycle of a Fredholm bimodule as a chain map
    from the (b + B)-complex window to the X-complex of the target.

    Both parities run through the same words of 2N x 2N matrices.  The
    trace is the supertrace for parity 0 and, for parity 1, the trace of
    the eps coefficient times sqrt(2i); the odd trace anticommutes with the
    one-form differential, which flips the unit-slot and d(F) groups.
    Nonzero only on degrees n and n+1; requires n = parity mod 2."""
    if n % 2 != M.parity:
        raise ValueError("degree parity must match the bimodule parity")
    if n < 0:
        raise ValueError("negative degree")
    alg = M.alg
    nsize = M.nsize
    entries = _trace_entries(M.parity, nsize)
    dsign = -ONE if M.parity else ONE
    coef = retraction_constant(n)
    if n % 2 == 1:
        coef = -coef
    if M.parity:
        coef = coef * SQRT_2I

    comms = []
    for i in range(M.base.dim):
        c, _ = M.commutator(i)
        comms.append(c)

    def word_value(indices):
        """F [F, rho(i_0)] ... [F, rho(i_k)]."""
        acc = M.fmat
        loss = False
        for i in indices:
            acc, l = mat_mul(alg, acc, comms[i])
            loss = loss or l
        return acc, loss

    def value_deg_n(word):
        """Slot at degree n: the cyclic graded-trace formula."""
        u = word[0]
        letters = word[1:]
        if u == 0:
            return {}, False
        tup = (u - 1,) + letters
        out = {}
        loss = False
        for j in range(n + 1):
            rot = tup[j:] + tup[:j]
            val, l = word_value(rot)
            loss = loss or l
            vec_axpy(out, _rot_sign(j, n + 1), _trace(entries, val))
        return vec_scale(_drop_unit(out), coef), loss

    def value_deg_n1(word):
        """Slot at degree n+1: the three graded-trace groups."""
        u = word[0]
        letters = word[1:]
        # group 1: d(rho(a0~) F [F, rho(a1)] ... [F, rho(a_{n+1})])
        tail, l1 = word_value(letters)
        rho_u = M.rho[u - 1] if u else mat_unit(2 * nsize)
        w, l2 = mat_mul(alg, rho_u, tail)
        loss = l1 or l2
        out, l = tgt.omega1_vec({None: ONE}, _drop_unit(_trace(entries, w)))
        loss = loss or l
        out = vec_scale(out, dsign)
        # groups 2 and 3: cyclic sums with d(rho) and d(F)
        if u != 0:
            tup = (u - 1,) + letters
            k = n + 2
            for j in range(k):
                rot = tup[j:] + tup[:j]
                s = _rot_sign(j, k)
                head, l = word_value(rot[:-1])
                loss = loss or l
                vec, l = _trace_d(tgt, entries, head, M.rho[rot[-1]])
                loss = loss or l
                vec_axpy(out, s, vec)
                full, l = word_value(rot)
                loss = loss or l
                vec, l = _trace_d(tgt, entries, full, M.fmat)
                loss = loss or l
                vec_axpy(out, -s * HALF * dsign, vec)
        return vec_scale(out, coef), loss

    def col(word):
        deg = len(word) - 1
        if deg == n:
            return value_deg_n(word)
        if deg == n + 1:
            return value_deg_n1(word)
        return {}, False

    return ChainMap(src, tgt, M.parity, col, col)


# ---------------------------------------------------------------------------
# universal bimodules
# ---------------------------------------------------------------------------


def universal_bimodule_even(algebra, space):
    """rho = diag(iota, iotabar) over the window Fedosov algebra, with the
    flip symmetry."""
    qalg = FedosovAlg(space)
    rho = []
    for i in range(algebra.dim):
        io = {(i + 1,): ONE, (0, i): ONE}
        iob = {(i + 1,): ONE, (0, i): -ONE}
        rho.append([[io, {}], [{}, iob]])
    fmat = [[{}, {None: ONE}], [{None: ONE}, {}]]
    return FredholmBimodule(algebra, qalg, 0, rho, fmat, 1)


def universal_bimodule_odd(algebra, space):
    """alpha = the canonical copy of A inside the crossed product, f = X."""
    ealg = ZekriAlg(space)
    rho = [[[{(0, (i + 1,)): ONE, (0, (0, i)): ONE}]]
           for i in range(algebra.dim)]
    fmat = [[{(1, ()): ONE}]]
    return FredholmBimodule(algebra, ealg, 1, rho, fmat, 1)


# ---------------------------------------------------------------------------
# universal cocycles
# ---------------------------------------------------------------------------


def universal_ch_even(algebra, n, src, tgt):
    """Even universal cocycle from the tensor-algebra X-complex to the
    X-complex of the Fedosov algebra window.

    Degree-2n chains map to (n!)^2/(2n)! q(a0~) q(a1) ... q(a2n); the odd
    slot keeps the two free-product branches with opposite signs."""
    coef = Fraction(math.factorial(n) ** 2, math.factorial(2 * n))
    # a tensor word of length L is a form of degree at most 2(L - 1), and
    # z.da one more: every source label reads its form here without loss
    space = F.FormSpace(algebra, 2 * src.alg.max_len)

    def times_q(acc, letters):
        """acc q(a1) ... q(ak) over the labels of the Fedosov algebra, with
        q(a) = 2 da; the key None of acc is the adjoined unit."""
        loss = False
        for i in letters:
            acc, l = dict_product(tgt.alg, acc, {(0, i): 2})
            loss = loss or l
        return acc, loss

    def branch_from_word(word, sign):
        """iota(a0~) q(a1) ... q(a2n) (sign +1) or the bar branch (-1)."""
        if word[0] == 0:
            return times_q({None: ONE}, word[1:])
        i = word[0] - 1
        return times_q({(i + 1,): ONE, (0, i): sign}, word[1:])

    def efn(w):
        form, loss = T.to_forms({w: ONE}, space)
        out = {}
        for word, c in form.items():
            if len(word) != 2 * n + 1 or word[0] == 0:
                continue  # off degree 2n, or q kills the unit
            qq, l = times_q({(0, word[0] - 1): 2}, word[1:])
            loss = loss or l
            vec_axpy(out, c * coef, qq)
        return out, loss

    def ofn(lab):
        form, loss = xt_odd_to_form({lab: ONE}, space)
        out = {}
        for full, c in form.items():
            if len(full) != 2 * n + 2:
                continue
            word, a = full[:-1], full[-1]
            up, lp = branch_from_word(word, ONE)
            um, lm = branch_from_word(word, -ONE)
            v1, l1 = tgt.omega1_vec(vec_add(up, vec_scale(um, -ONE)),
                                    {(a + 1,): ONE})
            v2, l2 = tgt.omega1_vec(vec_add(up, um), {(0, a): ONE})
            loss = loss or lp or lm or l1 or l2
            vec_axpy(out, c * coef, v1)
            vec_axpy(out, c * coef, v2)
        return out, loss

    return ChainMap(src, tgt, 0, efn, ofn)


def d_chain_map(xqs):
    """The form differential as a chain map on the super X-complex."""
    qspace = xqs.alg.space

    def efn(w):
        return F.d(qspace, {w: ONE})

    def ofn(lab):
        z, g = lab
        out = {}
        loss = False
        if z is not None:
            dz, loss = F.d(qspace, {z: ONE})
            v, l = xqs.omega1_vec(dz, {g: ONE})
            loss = loss or l
            vec_axpy(out, ONE, v)
            pz = (len(z) - 1) % 2
        else:
            pz = 0
        dg, l = F.d(qspace, {g: ONE})
        loss = loss or l
        if dg:
            v, l = xqs.omega1_vec({z: ONE}, dg)
            loss = loss or l
            vec_axpy(out, ONE if pz == 0 else -ONE, v)
        return out, loss

    return ChainMap(xqs, xqs, 0, efn, ofn)


def universal_ch_odd(algebra, n, src, tgt):
    """Odd universal cocycle into the super Fedosov window.

    The odd slot of a (2n+1)-chain maps to d(a0~ da1 ... da_{2n+1}); the
    even slot of a (2n+2)-chain to -d of the alternating one-form sum."""
    qspace = tgt.alg.space
    space = F.FormSpace(algebra, 2 * src.alg.max_len)
    dmap = d_chain_map(tgt)

    def ofn(lab):
        form, loss = xt_odd_to_form({lab: ONE}, space)
        out = {}
        for full, c in form.items():
            if len(full) != 2 * n + 2:
                continue
            df, l = F.d(qspace, {full: ONE})
            loss = loss or l
            vec_axpy(out, c, df)
        return out, loss

    def efn(w):
        form, loss = T.to_forms({w: ONE}, space)
        out = {}
        for word, c in form.items():
            if len(word) != 2 * n + 3:
                continue
            for i in range(1, n + 2):
                left = word[:2 * i]           # a0~ da1 ... da_{2i-1}
                mid = word[2 * i]             # the d-slot letter
                right = word[2 * i + 1:]      # da_{2i+1} ... da_{2n+2}
                if right:
                    prod, l = tgt.alg.product_flag((0,) + right, left)
                else:
                    prod, l = {left: ONE}, False
                loss = loss or l
                v, l = tgt.omega1_vec(prod, {(mid + 1,): ONE})
                loss = loss or l
                dv, ld = dmap.apply_odd(v)
                loss = loss or ld
                vec_axpy(out, -c, dv)
        return out, loss

    return ChainMap(src, tgt, 1, efn, ofn)


def kappa_power_sum(xt, space, top):
    """1 + kappa + ... + kappa^top on the tensor-algebra X-complex."""
    km = kappa_map(xt, space)
    total = identity_map(xt)
    acc = identity_map(xt)
    for _ in range(top):
        acc = ChainMap.compose(km, acc)
        total = total.add(acc)
    return total


def identity_map(cx):
    return ChainMap(cx, cx, 0,
                    lambda lab: ({lab: ONE}, False),
                    lambda lab: ({lab: ONE}, False))


def eta_chain_map(xe, xqs):
    """The case-table map from the crossed-product X-complex to the super
    one, as a chain map on canonical labels."""
    def efn(lab):
        return eta_even({lab: ONE}), False

    def ofn(lab):
        return xqs.canonical_odd(eta_odd({lab: ONE})), False

    return ChainMap(xe, xqs, 0, efn, ofn)


# ---------------------------------------------------------------------------
# composite cocycles through the tensor algebra of the free product
# ---------------------------------------------------------------------------


def _branch_word_expansion(word, sign, talg):
    """Image of a tensor word under the letterwise iota branch: a dict over
    the words of the TensorAlg talg, whose letters are window form-words."""
    out = {(): ONE}
    loss = False
    for i in word:
        out, l = dict_product(talg, out, {((i + 1,),): ONE, ((0, i),): sign})
        loss = loss or l
    return out, loss


def x_of_t_branch(xt, xtq, sign):
    """X of the letterwise homomorphism a -> iota(a) (or the bar copy)."""
    def img(word):
        return _branch_word_expansion(tuple(word), sign, xtq.alg)

    return x_of_hom(xt, xtq, img)


class GammaWindows:
    """Window bookkeeping for the composite cocycles: source tensor length,
    doubled tensor length, the form window over the inner tensor algebra,
    the letter window of the free-product coefficients and the outer word
    length of the final target."""

    def __init__(self, src_len, mid_len, q_inner_deg, q_letter_deg, out_len):
        self.src_len = src_len
        self.mid_len = mid_len
        self.q_inner_deg = q_inner_deg
        self.q_letter_deg = q_letter_deg
        self.out_len = out_len


def gamma_composite(algebra, n, windows, odd=False):
    """X(T A) -> X(T Q A) through the lifted universal cocycle.

    Returns (chain map, {"xt": its source, "xtq": its target})."""
    W = windows
    U = T.truncated_tensor_algebra(algebra, W.src_len)
    _, _, uindex, uwords = U.tensor_info
    xt = x_of_tensor_algebra(algebra, W.src_len)
    xtu = XGenerated(TensorAlg(U, W.mid_len))

    def v_img(word):
        if len(word) > W.mid_len:
            return {}, True
        return {tuple(uindex[(i,)] for i in word): ONE}, False

    Xv = x_of_hom(xt, xtu, v_img)

    qu_space = F.FormSpace(U, W.q_inner_deg)
    xqu = XGenerated(FedosovAlg(qu_space, graded=odd))
    if odd:
        ch = universal_ch_odd(U, n, xtu, xqu)
    else:
        ch = universal_ch_even(U, n, xtu, xqu)

    qa_space = F.FormSpace(algebra, W.q_letter_deg)
    xtq = XGenerated(TensorAlg(FedosovAlg(qa_space, graded=odd), W.out_len))

    def phi_factor(uword, sign):
        """Word over Q-letters for the branch image of a U basis element."""
        return _branch_word_expansion(uwords[uword], sign, xtq.alg)

    def phi_img(quword):
        """Classifying map on a form word over U."""
        out = {(): ONE}
        loss = False
        factors = []
        if quword[0] != 0:
            factors.append(("elem", quword[0] - 1))
        for j in quword[1:]:
            factors.append(("diff", j))
        for kind, j in factors:
            plus, l1 = phi_factor(j, ONE)
            minus, l2 = phi_factor(j, -ONE)
            comb = vec_scale(plus, HALF)
            vec_axpy(comb, HALF if kind == "elem" else -HALF, minus)
            out, l = dict_product(xtq.alg, out, comb)
            loss = loss or l1 or l2 or l
        if () in out:
            raise ValueError("empty classifying image")
        return out, loss

    Xphi = x_of_hom(xqu, xtq, phi_img)
    gamma = ChainMap.compose(Xphi, ChainMap.compose(ch, Xv))
    return gamma, {"xt": xt, "xtq": xtq}


def gamma_even(algebra, n, windows):
    return gamma_composite(algebra, n, windows, odd=False)


def gamma_odd(algebra, n, windows):
    return gamma_composite(algebra, n, windows, odd=True)
