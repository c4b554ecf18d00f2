"""Universal and retracted Chern cocycles.

The retraction formulas evaluate words of the shape
F [F, rho(a_0)] ... [F, rho(a_n)] under a graded trace, with cyclic sums
running over rotations (the cyclic group, signs (-1)^{j(k-1)} for a j-step
rotation of k letters).  Even bimodules use the supertrace of the 2N x 2N
block grading; odd ones carry a Clifford generator in the off-diagonal
block and the odd trace picks its coefficient with the factor sqrt(2i).
"""

from .scalars import Scalar, ZERO, ONE, HALF, gamma_half, SQRT_2I
from .linalg import vec_axpy, vec_scale
from . import forms as F
from . import tensoralg as T
from .qalgebra import UnitalForm
from .xcomplex import (ChainMap, XGenerated, FedosovAlg, ZekriAlg,
                       TensorAlg, TableAlg, kappa_map)


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def _rot_sign(j, k):
    """Sign of the j-step rotation of k letters."""
    return ONE if (j * (k - 1)) % 2 == 0 else -ONE


# ---------------------------------------------------------------------------
# matrices over a labelled algebra; entries are dicts with the key None for
# the adjoined unit.  Odd-parity bimodules store pairs (x, y) for x + y*eps.
# ---------------------------------------------------------------------------


def _entry_mul(alg, u, v):
    out = {}
    loss = False
    for k1, c1 in u.items():
        for k2, c2 in v.items():
            if k1 is None:
                vec_axpy(out, c1 * c2, {k2: ONE})
            elif k2 is None:
                vec_axpy(out, c1 * c2, {k1: ONE})
            else:
                prod, l = alg.product_flag(k1, k2)
                loss = loss or l
                vec_axpy(out, c1 * c2, prod)
    return out, loss


def mat_mul(alg, A, B):
    n = len(A)
    out = [[{} for _ in range(n)] for _ in range(n)]
    loss = False
    for r in range(n):
        for c in range(n):
            acc = out[r][c]
            for k in range(n):
                if A[r][k] and B[k][c]:
                    prod, l = _entry_mul(alg, A[r][k], B[k][c])
                    loss = loss or l
                    vec_axpy(acc, ONE, prod)
    return out, loss


def mat_sub(A, B):
    n = len(A)
    out = [[dict(A[r][c]) for c in range(n)] for r in range(n)]
    for r in range(n):
        for c in range(n):
            vec_axpy(out[r][c], -ONE, B[r][c])
    return out


def mat_unit(n):
    return [[({None: ONE} if r == c else {}) for c in range(n)]
            for r in range(n)]


def mat_unit_alg(alg, n):
    """Identity matrix using the algebra's own unit when it has one."""
    ud = alg.unit_dict() if hasattr(alg, "unit_dict") else None
    if not ud:
        return mat_unit(n)
    return [[(dict(ud) if r == c else {}) for c in range(n)]
            for r in range(n)]


def mat_scale(A, s):
    return [[vec_scale(e, s) for e in row] for row in A]


def mat_is_zero(A):
    return all(not e for row in A for e in row)


class PairMat:
    """x + y*eps over N x N matrices; eps is the odd Clifford generator."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def mul(self, other, alg):
        x1, l1 = mat_mul(alg, self.x, other.x)
        x2, l2 = mat_mul(alg, self.y, other.y)
        y1, l3 = mat_mul(alg, self.x, other.y)
        y2, l4 = mat_mul(alg, self.y, other.x)
        loss = l1 or l2 or l3 or l4
        n = len(x1)
        for r in range(n):
            for c in range(n):
                vec_axpy(x1[r][c], ONE, x2[r][c])
                vec_axpy(y1[r][c], ONE, y2[r][c])
        return PairMat(x1, y1), loss

    def sub(self, other):
        return PairMat(mat_sub(self.x, other.x), mat_sub(self.y, other.y))

    def is_zero(self):
        return mat_is_zero(self.x) and mat_is_zero(self.y)


class FredholmBimodule:
    """rho and an odd symmetry F with F^2 = 1 over a matrix algebra.

    parity 0: rho(a) = diag blocks (even), F purely off-diagonal, size 2N.
    parity 1: the doubled picture rho = diag(alpha, alpha), F = offdiag(f, f)
    is stored through alpha and f directly (N x N), with f^2 = 1.
    """

    def __init__(self, base, alg, parity, rho, fmat, nsize, name="bimodule"):
        self.base = base          # source Algebra
        self.alg = alg            # target algebra protocol object
        self.parity = parity
        self.rho = rho            # list over base basis of matrices
        self.fmat = fmat
        self.nsize = nsize        # N as above
        self.name = name
        self._check()

    def _check(self):
        if self.parity == 0:
            f2, _ = mat_mul(self.alg, self.fmat, self.fmat)
            if not mat_is_zero(mat_sub(f2, mat_unit(2 * self.nsize))):
                raise ValueError("F^2 is not the identity")
            n = self.nsize
            for r in range(2 * n):
                for c in range(2 * n):
                    on_diag = (r < n) == (c < n)
                    if on_diag and self.fmat[r][c]:
                        raise ValueError("F has even-degree components")
                    for m in self.rho:
                        if not on_diag and m[r][c]:
                            raise ValueError("rho has odd-degree components")
        else:
            f2, _ = mat_mul(self.alg, self.fmat, self.fmat)
            diff = mat_sub(f2, mat_unit_alg(self.alg, self.nsize))
            if not mat_is_zero(diff):
                raise ValueError("F^2 is not the identity")

    def commutator(self, i):
        """[F, rho(a_i)]; for parity 1 this is the eps coefficient
        f alpha - alpha f of the doubled picture."""
        if self.parity == 0:
            fr, l1 = mat_mul(self.alg, self.fmat, self.rho[i])
            rf, l2 = mat_mul(self.alg, self.rho[i], self.fmat)
            return mat_sub(fr, rf), (l1 or l2)
        alpha = self.rho[i].x
        fa, l1 = mat_mul(self.alg, self.fmat, alpha)
        af, l2 = mat_mul(self.alg, alpha, self.fmat)
        return mat_sub(fa, af), (l1 or l2)

    def is_degenerate(self):
        return all(mat_is_zero(self.commutator(i)[0])
                   for i in range(self.base.dim))


def _supertrace(mats, nsize):
    out = {}
    for k in range(nsize):
        vec_axpy(out, ONE, mats[k][k])
    for k in range(nsize, 2 * nsize):
        vec_axpy(out, -ONE, mats[k][k])
    return out


def _plain_trace(mats, nsize):
    out = {}
    for k in range(nsize):
        vec_axpy(out, ONE, mats[k][k])
    return out


def _drop_unit(vec):
    return {k: c for k, c in vec.items() if k is not None}


def _mat_d(A, B, n):
    """A . d(B) as a matrix of one-forms, entries over (zkey, ykey); d
    kills unit components of B."""
    out = [[{} for _ in range(n)] for _ in range(n)]
    for r in range(n):
        for c in range(n):
            acc = out[r][c]
            for k in range(n):
                for zk, c1 in A[r][k].items():
                    for yk, c2 in B[k][c].items():
                        if yk is None:
                            continue
                        vec_axpy(acc, c1 * c2, {(zk, yk): ONE})
    return out


def _natural_of_pairs(tgt, pairs):
    """Map a dict over (zkey, ykey) through the target one-form reduction."""
    out = {}
    loss = False
    for (zk, yk), c in pairs.items():
        vec, l = tgt.omega1_vec({zk: ONE}, {yk: ONE})
        loss = loss or l
        vec_axpy(out, c, vec)
    return out, loss


def retracted_cocycle(M, n, src, tgt, name=None):
    """The degree-n retracted cocycle of a Fredholm bimodule as a chain map
    from the (b + B)-complex window to the X-complex of the target.

    Nonzero only on degrees n and n+1; requires n = parity mod 2."""
    if n % 2 != M.parity:
        raise ValueError("degree parity must match the bimodule parity")
    if n < 0:
        raise ValueError("negative degree")
    alg = M.alg
    parity = M.parity
    nsize = M.nsize
    twoN = 2 * nsize if parity == 0 else nsize
    coef = gamma_half(n + 2) / Scalar.from_int(_factorial(n + 1))
    coef = coef * HALF
    if n % 2 == 1:
        coef = -coef

    comms = []
    for i in range(M.base.dim):
        c, _ = M.commutator(i)
        comms.append(c)

    def word_value(indices):
        """F [F, rho(i_0)] ... [F, rho(i_k)] as a matrix (parity 0) or
        PairMat (parity 1)."""
        if parity == 0:
            acc = M.fmat
            loss = False
            for i in indices:
                acc, l = mat_mul(alg, acc, comms[i])
                loss = loss or l
            return acc, loss
        def zeros():
            return [[{} for _ in range(nsize)] for _ in range(nsize)]
        acc = PairMat(zeros(), M.fmat)  # F = f * eps
        loss = False
        for i in indices:
            step = PairMat(zeros(), comms[i])  # [F, rho(a)] carries eps
            acc, l = acc.mul(step, alg)
            loss = loss or l
        return acc, loss

    def tau(mat_or_pair):
        if parity == 0:
            return _supertrace(mat_or_pair, nsize)
        return vec_scale(_plain_trace(mat_or_pair.y, nsize), SQRT_2I)

    def value_deg_n(word):
        """Slot at degree n: the cyclic supertrace formula."""
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
            vec_axpy(out, _rot_sign(j, n + 1), tau(val))
        return vec_scale(_drop_unit(out), coef), loss

    def rho_tilde(u):
        """Matrix of rho extended to the unitalization slot."""
        if parity == 0:
            if u == 0:
                return mat_unit(2 * nsize)
            return M.rho[u - 1]
        if u == 0:
            return PairMat(mat_unit(nsize),
                           [[{} for _ in range(nsize)] for _ in range(nsize)])
        return M.rho[u - 1]

    def value_deg_n1(word):
        """Slot at degree n+1: the three graded-trace groups."""
        u = word[0]
        letters = word[1:]
        out = {}
        loss = False
        # group 1: d(rho(a0~) F [F, rho(a1)] ... [F, rho(a_{n+1})])
        tail, l = word_value(letters)
        loss = loss or l
        if parity == 0:
            w, l2 = mat_mul(alg, rho_tilde(u), tail)
            loss = loss or l2
            body = _drop_unit(_supertrace(w, nsize))
            vec, l3 = tgt.omega1_vec({None: ONE}, body)
            loss = loss or l3
            vec_axpy(out, ONE, vec)
        else:
            w, l2 = rho_tilde(u).mul(tail, alg)
            loss = loss or l2
            body = _drop_unit(_plain_trace(w.y, nsize))
            vec, l3 = tgt.omega1_vec({None: ONE}, body)
            loss = loss or l3
            # the odd trace anticommutes with the one-form differential
            vec_axpy(out, -SQRT_2I, vec)
        # groups 2 and 3: cyclic sums with d(rho) and d(F)
        if u != 0:
            tup = (u - 1,) + letters
            k = n + 2
            for j in range(k):
                rot = tup[j:] + tup[:j]
                s = _rot_sign(j, k)
                head, l4 = word_value(rot[:-1])
                loss = loss or l4
                if parity == 0:
                    of = _mat_d(head, M.rho[rot[-1]], 2 * nsize)
                    tr = _supertrace(of, nsize)
                    vec, l5 = _natural_of_pairs(tgt, tr)
                    loss = loss or l5
                    vec_axpy(out, s, vec)
                    full, l6 = word_value(rot)
                    loss = loss or l6
                    of2 = _mat_d(full, M.fmat, 2 * nsize)
                    tr2 = _supertrace(of2, nsize)
                    vec2, l7 = _natural_of_pairs(tgt, tr2)
                    loss = loss or l7
                    vec_axpy(out, -s * HALF, vec2)
                else:
                    of = _mat_d(head.y, M.rho[rot[-1]].x
                                if isinstance(M.rho[rot[-1]], PairMat)
                                else M.rho[rot[-1]], nsize)
                    tr = _plain_trace(of, nsize)
                    vec, l5 = _natural_of_pairs(tgt, tr)
                    loss = loss or l5
                    vec_axpy(out, s * SQRT_2I, vec)
                    full, l6 = word_value(rot)
                    loss = loss or l6
                    of2 = _mat_d(full.x, M.fmat, nsize)
                    tr2 = _plain_trace(of2, nsize)
                    vec2, l7 = _natural_of_pairs(tgt, tr2)
                    loss = loss or l7
                    vec_axpy(out, s * HALF * SQRT_2I, vec2)
        return vec_scale(out, coef), loss

    def col(word):
        deg = len(word) - 1
        if deg == n:
            return value_deg_n(word)
        if deg == n + 1:
            return value_deg_n1(word)
        return {}, False

    return ChainMap(src, tgt, parity, col, col,
                    name=name or ("chi%d(%s)" % (n, M.name)))


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
    return FredholmBimodule(algebra, qalg, 0, rho, fmat, 1, name="u0")


def universal_bimodule_odd(algebra, space):
    """alpha = the canonical copy of A inside the crossed product, f = X."""
    ealg = ZekriAlg(space)
    rho = []
    for i in range(algebra.dim):
        io = {(0, (i + 1,)): ONE, (0, (0, i)): ONE}
        rho.append(PairMat([[io]], [[{}]]))
    fmat = [[{(1, ()): ONE}]]
    return FredholmBimodule(algebra, ealg, 1, rho, fmat, 1, name="u1")


# ---------------------------------------------------------------------------
# universal cocycles
# ---------------------------------------------------------------------------


def universal_ch_even(algebra, n, src, tgt, conv_space=None):
    """Even universal cocycle from the tensor-algebra X-complex to the
    X-complex of the Fedosov algebra window.

    Degree-2n chains map to (n!)^2/(2n)! q(a0~) q(a1) ... q(a2n); the odd
    slot keeps the two free-product branches with opposite signs."""
    qspace = tgt.alg.space
    coef = Scalar.rational(_factorial(n) ** 2, _factorial(2 * n))
    if conv_space is None:
        conv_space = F.FormSpace(algebra, max(2 * n + 2, 2 * (src.alg.max_len)))

    def q_of(i):
        return F.Form(qspace, {(0, i): Scalar.from_int(2)})

    def qprod_from_word(word):
        """q(a0~) q(a1) ... q(a2n) for a degree-2n word; zero on the unit."""
        if word[0] == 0:
            return None
        acc = F.Form(qspace, {(0, word[0] - 1): Scalar.from_int(2)})
        for i in word[1:]:
            acc = F.fedosov_full(acc, q_of(i))
        return acc

    def branch_from_word(word, sign):
        """iota(a0~) q(a1) ... q(a2n) (sign +1) or the bar branch (-1)."""
        if word[0] == 0:
            acc = UnitalForm.unit(qspace)
        else:
            i = word[0] - 1
            body = F.Form(qspace, {(i + 1,): ONE, (0, i): sign})
            acc = UnitalForm(ZERO, body)
        for i in word[1:]:
            acc = acc.fedosov(UnitalForm(ZERO, q_of(i)))
        return acc

    def efn(w):
        flat = tuple(w)
        x = T.TensorElement(algebra, {flat: ONE}, len(flat))
        form = T.to_forms(x, conv_space)
        out = {}
        loss = form.lossy
        for word, c in form.component(2 * n).coeffs.items():
            qq = qprod_from_word(word)
            if qq is None:
                continue
            loss = loss or qq.lossy
            vec_axpy(out, c * coef, qq.coeffs)
        return out, loss

    def ofn(lab):
        z, g = lab
        a = g[0]
        if z is None:
            form = F.Form(conv_space, {}) if n > 0 else None
            comps = {(0,): ONE} if n == 0 else {}
            lossz = False
        else:
            x = T.TensorElement(algebra, {tuple(z): ONE}, len(z))
            formz = T.to_forms(x, conv_space)
            lossz = formz.lossy
            comps = formz.component(2 * n).coeffs
        out = {}
        loss = lossz
        for word, c in comps.items():
            up = branch_from_word(word, ONE)
            um = branch_from_word(word, -ONE)
            loss = loss or up.body.lossy or um.body.lossy
            diff = up - um
            tot = up + um
            zdiff = dict(diff.body.coeffs)
            if diff.scalar:
                zdiff[None] = diff.scalar
            ztot = dict(tot.body.coeffs)
            if tot.scalar:
                ztot[None] = tot.scalar
            v1, l1 = tgt.omega1_vec(zdiff, {(a + 1,): ONE})
            v2, l2 = tgt.omega1_vec(ztot, {(0, a): ONE})
            loss = loss or l1 or l2
            vec_axpy(out, c * coef, v1)
            vec_axpy(out, c * coef, v2)
        return out, loss

    return ChainMap(src, tgt, 0, efn, ofn, name="ch%d" % (2 * n))


def d_chain_map(xqs):
    """The form differential as a chain map on the super X-complex."""
    qspace = xqs.alg.space

    def efn(w):
        out = F.d(F.Form(qspace, {w: ONE}))
        return dict(out.coeffs), out.lossy

    def ofn(lab):
        z, g = lab
        out = {}
        loss = False
        if z is not None:
            dz = F.d(F.Form(qspace, {z: ONE}))
            loss = loss or dz.lossy
            v, l = xqs.omega1_vec(dz.coeffs, {g: ONE})
            loss = loss or l
            vec_axpy(out, ONE, v)
            pz = (len(z) - 1) % 2
        else:
            pz = 0
        dg = F.d(F.Form(qspace, {g: ONE}))
        loss = loss or dg.lossy
        if dg.coeffs:
            zvec = {z: ONE} if z is not None else {None: ONE}
            v, l = xqs.omega1_vec(zvec, dg.coeffs)
            loss = loss or l
            vec_axpy(out, ONE if pz == 0 else -ONE, v)
        return out, loss

    return ChainMap(xqs, xqs, 0, efn, ofn, name="d")


def universal_ch_odd(algebra, n, src, tgt, conv_space=None):
    """Odd universal cocycle into the super Fedosov window.

    The odd slot of a (2n+1)-chain maps to d(a0~ da1 ... da_{2n+1}); the
    even slot of a (2n+2)-chain to -d of the alternating one-form sum."""
    qspace = tgt.alg.space
    if conv_space is None:
        conv_space = F.FormSpace(algebra, max(2 * n + 4, 2 * (src.alg.max_len)))
    dmap = d_chain_map(tgt)

    def ofn(lab):
        z, g = lab
        a = g[0]
        if z is None:
            comps = {(0,): ONE} if n == 0 else {}
            lossz = False
        else:
            x = T.TensorElement(algebra, {tuple(z): ONE}, len(z))
            formz = T.to_forms(x, conv_space)
            lossz = formz.lossy
            comps = formz.component(2 * n).coeffs
        out = {}
        loss = lossz
        for word, c in comps.items():
            if word == (0,):
                full = (0, a)
            else:
                full = word + (a,)
            df = F.d(F.Form(qspace, {full: ONE}))
            loss = loss or df.lossy
            vec_axpy(out, c, df.coeffs)
        return out, loss

    def efn(w):
        flat = tuple(w)
        x = T.TensorElement(algebra, {flat: ONE}, len(flat))
        form = T.to_forms(x, conv_space)
        out = {}
        loss = form.lossy
        for word, c in form.component(2 * n + 2).coeffs.items():
            for i in range(1, n + 2):
                left = word[:2 * i]           # a0~ da1 ... da_{2i-1}
                mid = word[2 * i]             # the d-slot letter
                right = word[2 * i + 1:]      # da_{2i+1} ... da_{2n+2}
                if right:
                    rword = (0,) + right
                    prod = F.fedosov_full(F.Form(qspace, {rword: ONE}),
                                          F.Form(qspace, {left: ONE}))
                else:
                    prod = F.Form(qspace, {left: ONE})
                loss = loss or prod.lossy
                zvec = dict(prod.coeffs)
                v, l = tgt.omega1_vec(zvec, {(mid + 1,): ONE})
                loss = loss or l
                dv, ld = dmap.apply_odd(v)
                loss = loss or ld
                vec_axpy(out, -c, dv)
        return out, loss

    return ChainMap(src, tgt, 1, efn, ofn, name="ch%d" % (2 * n + 1))


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
                    lambda lab: ({lab: ONE}, False), name="id")


def eta_chain_map(xe, xqs):
    """The case-table map from the crossed-product X-complex to the super
    one, as a chain map on canonical labels."""
    from .qalgebra import eta_even, eta_odd

    def efn(lab):
        return eta_even({lab: ONE}), False

    def ofn(lab):
        return xqs.canonical_odd(eta_odd({lab: ONE})), False

    return ChainMap(xe, xqs, 0, efn, ofn, name="eta")


# ---------------------------------------------------------------------------
# composite cocycles through the tensor algebra of the free product
# ---------------------------------------------------------------------------


def ideal_power_like(alg, generators, n):
    """Ideal power spans for a labelled algebra object."""
    def product(u, v):
        out = {}
        for k1, c1 in u.items():
            for k2, c2 in v.items():
                prod, _ = alg.product_flag(k1, k2)
                vec_axpy(out, c1 * c2, prod)
        return out
    return T.ideal_power(alg, generators, n, product=product,
                         basis=alg.basis())


def _branch_word_expansion(word, sign, max_len):
    """Image of a tensor word under the letterwise iota branch: a dict over
    words whose letters are window form-words."""
    out = {(): ONE}
    loss = False
    for i in word:
        lett = {(i + 1,): ONE, (0, i): sign}
        nxt = {}
        for w, c in out.items():
            if len(w) + 1 > max_len:
                loss = True
                continue
            for l, cl in lett.items():
                vec_axpy(nxt, c * cl, {w + (l,): ONE})
        out = nxt
    return out, loss


def x_of_t_branch(xt, xtq, sign, name):
    """X of the letterwise homomorphism a -> iota(a) (or the bar copy)."""
    max_len = xtq.alg.max_len

    def img(word):
        return _branch_word_expansion(tuple(word), sign, max_len)

    from .xcomplex import x_of_hom
    return x_of_hom(xt, xtq, img, name=name)


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

    Returns (chain map, dict of the complexes involved)."""
    from .xcomplex import x_of_hom, x_of_tensor_algebra
    W = windows
    U = T.truncated_tensor_algebra(algebra, W.src_len)
    _, _, uindex, uwords = U.tensor_info
    xt = x_of_tensor_algebra(algebra, W.src_len)
    xtu = XGenerated(TensorAlg(TableAlg(U), W.mid_len))

    def v_img(word):
        if len(word) > W.mid_len:
            return {}, True
        return {tuple(uindex[(i,)] for i in word): ONE}, False

    Xv = x_of_hom(xt, xtu, v_img, name="X(v)")

    qu_space = F.FormSpace(U, W.q_inner_deg)
    xqu = XGenerated(FedosovAlg(qu_space, graded=odd), graded=odd)
    conv = F.FormSpace(U, max(2 * W.mid_len, W.q_inner_deg + 2))
    if odd:
        ch = universal_ch_odd(U, n, xtu, xqu, conv_space=conv)
    else:
        ch = universal_ch_even(U, n, xtu, xqu, conv_space=conv)

    qa_space = F.FormSpace(algebra, W.q_letter_deg)
    qcoeff = FedosovAlg(qa_space, graded=odd)
    xtq = XGenerated(TensorAlg(qcoeff, W.out_len), graded=odd)

    def phi_factor(uword, sign):
        """Word over Q-letters for the branch image of a U basis element."""
        return _branch_word_expansion(uwords[uword], sign, W.out_len)

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
            loss = loss or l1 or l2
            half = HALF
            comb = {}
            for w, c in plus.items():
                vec_axpy(comb, c * half, {w: ONE})
            s = half if kind == "elem" else -half
            for w, c in minus.items():
                vec_axpy(comb, c * s, {w: ONE})
            nxt = {}
            for w1, c1 in out.items():
                for w2, c2 in comb.items():
                    if len(w1) + len(w2) > W.out_len:
                        loss = True
                        continue
                    vec_axpy(nxt, c1 * c2, {w1 + w2: ONE})
            out = nxt
        if () in out:
            raise ValueError("empty classifying image")
        return out, loss

    Xphi = x_of_hom(xqu, xtq, phi_img, name="X(phi)")
    gamma = ChainMap.compose(Xphi, ChainMap.compose(ch, Xv),
                             name="gamma%d" % (2 * n + (1 if odd else 0)))
    return gamma, {"xt": xt, "xtu": xtu, "xqu": xqu, "xtq": xtq,
                   "U": U, "qcoeff": qcoeff}


def gamma_even(algebra, n, windows):
    return gamma_composite(algebra, n, windows, odd=False)


def gamma_odd(algebra, n, windows):
    return gamma_composite(algebra, n, windows, odd=True)


# ---------------------------------------------------------------------------
# trace maps from matrix X-complexes
# ---------------------------------------------------------------------------


def trace_map(x_mat, x_base, nsize, graded=False, half=1):
    """X(M_N(R)) -> X(R): multiplication over the matrix factor followed by
    its (super)trace; half is the block size of the grading."""
    def efn(lab):
        r, c, l = lab
        if r != c:
            return {}, False
        sign = -ONE if (graded and (r // half) % 2) else ONE
        return {l: sign}, False

    def ofn(lab):
        z, g = lab
        p, q, gb = g
        if z is None:
            if p != q:
                return {}, False
            sign = -ONE if (graded and (p // half) % 2) else ONE
            return {(None, gb): sign}, False
        r, c, l = z
        if c != p or q != r:
            return {}, False
        sign = -ONE if (graded and (r // half) % 2) else ONE
        vec, loss = x_base.omega1_vec({l: ONE}, {gb: ONE})
        return vec_scale(vec, sign), loss

    return ChainMap(x_mat, x_base, 0, efn, ofn,
                    name="tr%s" % ("s" if graded else ""))
