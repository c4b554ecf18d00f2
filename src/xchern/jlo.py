"""Heat-kernel cochains for scalar-target spectral data, in floating point.

chi^n(t) integrates supertraced words rho(a0~) e^{-s0 t^2 D^2} [D, rho(a1)]
... over the fundamental simplex; cs^n carries one extra insertion of D
(the dt-partner of the rescaled Dirac family t -> tD).  Global signs are
pinned by the transgression identity and by matching the exact retraction
formulas in the t -> infinity limit; both are enforced in the test suite.
"""

import math
import numpy as np


def gauss_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


class SpectralTriple:
    """Graded 2m-dimensional space, even representation matrices, odd
    self-adjoint D."""

    def __init__(self, base_dim, rho, D, tol=1e-12):
        self.rho = [np.asarray(m, dtype=complex) for m in rho]
        self.D = np.asarray(D, dtype=complex)
        n = self.D.shape[0]
        if n % 2:
            raise ValueError("graded dimension must be even")
        self.half = n // 2
        self.dim = n
        self.base_dim = base_dim
        g = np.diag([1.0] * self.half + [-1.0] * self.half)
        self.gamma = g
        if np.linalg.norm(self.D - self.D.conj().T) > tol:
            raise ValueError("D is not self-adjoint")
        if np.linalg.norm(g @ self.D + self.D @ g) > tol:
            raise ValueError("D is not odd")
        for m in self.rho:
            if np.linalg.norm(g @ m - m @ g) > tol:
                raise ValueError("rho is not even")
        evals, vecs = np.linalg.eigh(self.D)
        self.evals = evals
        self.vecs = vecs
        self.invertible_square = bool(np.min(np.abs(evals)) > 1e-10)

    def rho_tilde(self, slot):
        """slot = (scalar, index or None) for the unitalization."""
        s, idx = slot
        out = s * np.eye(self.dim, dtype=complex)
        if idx is not None:
            out = out + self.rho[idx]
        return out

    def bracket(self, idx):
        return self.D @ self.rho[idx] - self.rho[idx] @ self.D

    def heat(self, s_array, t2):
        """exp(-s * t^2 * D^2) for an array of s values; (K, dim, dim)."""
        w = self.evals ** 2 * t2
        ee = np.exp(-np.outer(s_array, w))
        return np.einsum("ij,kj,lj->kil", self.vecs, ee, self.vecs.conj())

    def supertrace(self, mats):
        half = self.half
        return np.trace(self.gamma @ mats) if mats.ndim == 2 else \
            (mats[..., range(half), range(half)].sum(axis=-1)
             - mats[..., range(half, 2 * half), range(half, 2 * half)]
             .sum(axis=-1))


_GRID_MEMO = {}


def _simplex_grid(n, order):
    """Cached stick-breaking grid: simplex coordinates, combined weight."""
    key = (n, order)
    hit = _GRID_MEMO.get(key)
    if hit is not None:
        return hit
    nodes, weights = gauss_nodes(order)
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    wgrids = np.meshgrid(*([weights] * n), indexing="ij")
    xs = [g.reshape(-1) for g in grids]
    wtot = np.ones_like(xs[0])
    for wg in wgrids:
        wtot = wtot * wg.reshape(-1)
    jac = np.ones_like(xs[0])
    for i in range(1, n):
        jac = jac * xs[i - 1] ** (n - i)
    s_list = []
    prod = np.ones_like(xs[0])
    for i in range(n):
        s_list.append(prod * (1.0 - xs[i]))
        prod = prod * xs[i]
    s_list.append(prod)
    hit = (np.stack(s_list, axis=0), wtot * jac)
    _GRID_MEMO[key] = hit
    return hit


def simplex_integral(triple, lead, insertions, t2, order=24, chunk=200000):
    """Integral over the n-simplex of Str(lead e^{-s0 A} M1 e^{-s1 A} ...),
    A = t^2 D^2, via the stick-breaking map with Gauss-Legendre nodes.

    An odd number of odd insertions makes the word odd and the supertrace
    vanishes identically, so those integrals are skipped."""
    n = len(insertions)
    if n % 2 == 1:
        return 0.0 + 0.0j
    if n == 0:
        s = np.array([1.0])
        E = triple.heat(s, t2)[0]
        return complex(np.trace(triple.gamma @ lead @ E))
    s_all, weight = _simplex_grid(n, order)
    total = 0.0 + 0.0j
    K = weight.shape[0]
    for start in range(0, K, chunk):
        sl = slice(start, min(K, start + chunk))
        E = triple.heat(s_all[0][sl], t2)
        acc = np.einsum("ij,kjl->kil", lead, E)
        for i, M in enumerate(insertions):
            Ei = triple.heat(s_all[i + 1][sl], t2)
            acc = np.einsum("kij,jl,klm->kim", acc, M, Ei)
        vals = triple.supertrace(acc)
        total += np.sum(vals * weight[sl])
    return complex(total)


def jlo_component(triple, n, t, tup, order=24):
    """Degree-n heat cochain at parameter t on a tuple (slot0, i1, ..., in);
    slot0 is (scalar, index or None)."""
    if t <= 0:
        raise ValueError("t must be positive")
    lead = triple.rho_tilde(tup[0])
    ins = [triple.bracket(i) for i in tup[1:]]
    assert len(ins) == n
    val = simplex_integral(triple, lead, ins, t * t, order=order)
    return ((-1) ** n) * (t ** n) * val


def cs_component(triple, n, t, tup, order=24):
    """Transgression cochain: one insertion of D among the brackets, with
    the alternating sign of moving the odd dt past each odd bracket."""
    if t <= 0:
        raise ValueError("t must be positive")
    lead = triple.rho_tilde(tup[0])
    brackets = [triple.bracket(i) for i in tup[1:]]
    assert len(brackets) == n
    total = 0.0 + 0.0j
    for j in range(n + 1):
        ins = brackets[:j] + [triple.D] + brackets[j:]
        total += ((-1) ** j) * simplex_integral(triple, lead, ins, t * t,
                                                order=order)
    return ((-1) ** n) * (t ** n) * total


# ---------------------------------------------------------------------------
# tuple calculus for b and B (arguments are algebra basis tuples)
# ---------------------------------------------------------------------------


def tuple_b(algebra, tup):
    """Hochschild boundary on a tuple; returns [(coeff, tuple)]."""
    n = len(tup) - 1
    if n == 0:
        return []
    out = []
    s0, i0 = tup[0]
    letters = tup[1:]
    # merge of the zero slot with the first letter
    if s0:
        out.append((complex(s0), ((0.0, letters[0]),) + letters[1:]))
    if i0 is not None:
        for k, c in algebra.product_basis(i0, letters[0]).items():
            out.append((complex(c.to_complex()), ((0.0, k),) + letters[1:]))
    # interior merges
    for i in range(1, n):
        sign = (-1) ** i
        for k, c in algebra.product_basis(letters[i - 1], letters[i]).items():
            newt = (tup[0],) + letters[:i - 1] + (k,) + letters[i + 1:]
            out.append((sign * complex(c.to_complex()), newt))
    # wrap-around merge of the last letter into the zero slot
    sign = (-1) ** n
    if s0:
        out.append((sign * complex(s0), ((0.0, letters[-1]),) + letters[:-1]))
    if i0 is not None:
        for k, c in algebra.product_basis(letters[-1], i0).items():
            out.append((sign * complex(c.to_complex()),
                        ((0.0, k),) + letters[:-1]))
    return out


def tuple_B(tup):
    """Connes boundary on a tuple: signed cyclic rotations led by the
    formal unit (the scalar part of slot zero dies under d)."""
    s0, i0 = tup[0]
    if i0 is None:
        return []
    letters = (i0,) + tup[1:]
    n = len(tup) - 1
    out = []
    for j in range(n + 1):
        rot = letters[j:] + letters[:j]
        out.append((float((-1) ** (n * j)), ((1.0, None),) + rot))
    return out


# ---------------------------------------------------------------------------
# t-integration and the retraction
# ---------------------------------------------------------------------------


def cs_values_over_ts(triple, m, tup, ts, order, chunk=600000):
    """cs^m(t)(tup) for every t in ts, as one batched quadrature.

    All insertion positions of D share their heat factors; prefix and
    suffix products are accumulated once per chunk."""
    lead = triple.rho_tilde(tup[0])
    brackets = [triple.bracket(i) for i in tup[1:]]
    assert len(brackets) == m
    ts = np.asarray(ts, dtype=float)
    Tn = len(ts)
    if m % 2 == 0:
        # m + 1 odd insertions: the supertraced word is odd and vanishes
        return np.zeros(Tn, dtype=complex)
    s_all, weight = _simplex_grid(m + 1, order)
    K = weight.shape[0]
    w2 = triple.evals ** 2
    total = np.zeros(Tn, dtype=complex)
    step = max(1, chunk // max(1, Tn))
    for start in range(0, K, step):
        sl = slice(start, min(K, start + step))
        kk = sl.stop - sl.start
        Es = []
        for i in range(m + 2):
            sflat = np.outer(ts * ts, s_all[i][sl]).reshape(-1)
            ee = np.exp(-np.outer(sflat, w2))
            Es.append(np.einsum("ij,kj,lj->kil", triple.vecs, ee,
                                triple.vecs.conj()))
        # suffixes U_j = E_j B_j U_{j+1}, U_{m+1} = E_{m+1}
        U = [None] * (m + 2)
        U[m + 1] = Es[m + 1]
        for j in range(m, 0, -1):
            U[j] = Es[j] @ (brackets[j - 1] @ U[j + 1])
        # prefixes P_j = lead E_0 B_1 E_1 ... B_j E_j
        pref = lead @ Es[0]
        acc = np.zeros((Es[0].shape[0], triple.dim, triple.dim),
                       dtype=complex)
        for j in range(m + 1):
            word = (pref @ triple.D) @ U[j + 1]
            if j % 2 == 0:
                acc += word
            else:
                acc -= word
            if j < m:
                pref = (pref @ brackets[j]) @ Es[j + 1]
        vals = triple.supertrace(acc).reshape(Tn, kk)
        total += vals @ weight[sl]
    return ((-1) ** m) * ts ** m * total


def chi_hat_T(triple, algebra, n, t_big, tup, order=24, t_order=40):
    """The degree-n retraction at finite time on a tuple of degree <= n+1."""
    k = len(tup) - 1
    if k > n + 1:
        return 0.0 + 0.0j
    val = jlo_component(triple, k, t_big, tup, order=order)
    if k in (n, n + 1):
        terms = tuple_B(tup)
        if terms:
            m = k + 1
            nodes, weights = gauss_nodes(t_order)
            cut = min(1.0, t_big)
            tail = 0.0 + 0.0j
            for a, b in ((0.0, cut), (cut, t_big)):
                if b <= a:
                    continue
                ts = a + (b - a) * nodes
                acc = np.zeros(len(ts), dtype=complex)
                for c, tt in terms:
                    acc += c * cs_values_over_ts(triple, m, tt, ts, order)
                tail += (b - a) * np.sum(weights * acc)
            # even bimodule: the retraction subtracts the transgressed tail
            val = val - tail
    return val


def retract_T(triple, algebra, n, t_max, tuples, order=24, t_order=40):
    """The degree-n retraction evaluated on a batch of tuples; returns a
    table tuple -> value covering all degrees up to n + 1."""
    out = {}
    for tup in tuples:
        out[tup] = chi_hat_T(triple, algebra, n, t_max, tup, order=order,
                             t_order=t_order)
    return out


def chi_hat_infty_exact(triple, n, tup):
    """The closed retraction formula for F = D with F^2 = 1 (numeric).

    Only the degree-n slot survives for a scalar target; degree n+1 pairs
    into the trivial odd part and is zero."""
    k = len(tup) - 1
    if k != n:
        return 0.0 + 0.0j
    s0, i0 = tup[0]
    if i0 is None:
        return 0.0 + 0.0j
    F = triple.D
    letters = (i0,) + tup[1:]
    total = 0.0 + 0.0j
    m = n + 1
    for j in range(m):
        rot = letters[j:] + letters[:j]
        word = F.copy()
        for idx in rot:
            word = word @ triple.bracket(idx)
        total += ((-1) ** (j * n)) * np.trace(triple.gamma @ word)
    coef = ((-1) ** n) * math.gamma(1 + n / 2.0) / math.factorial(n + 1) * 0.5
    return coef * total


def interpolate_Du(triple, u):
    """D |D|^{-u} by the spectral calculus; requires invertible D^2."""
    if not 0 <= u <= 1:
        raise ValueError("u must lie in [0, 1]")
    if u > 0 and not triple.invertible_square:
        raise ValueError("D^2 is not invertible")
    if u == 0:
        return triple
    d = triple.evals
    scaled = np.sign(d) * np.abs(d) ** (1.0 - u)
    Du = triple.vecs @ np.diag(scaled) @ triple.vecs.conj().T
    return SpectralTriple(triple.base_dim, triple.rho, Du)


def weight_integral_check(dsq, u, order=80):
    """Quadrature check of |D|^{-u} = C(u/2) int lambda^{-u/2}/(lambda+D^2)
    on one eigenvalue dsq = d^2; returns the quadrature value of |d|^{-u}."""
    a = u / 2.0
    nodes, weights = gauss_nodes(order)
    # piece [0, 1] with the substitution lambda = sigma^{1/(1-a)}
    total = 0.0
    for s, w in zip(nodes, weights):
        lam = s ** (1.0 / (1.0 - a))
        total += w * (1.0 / (1.0 - a)) / (lam + dsq)
    # piece [1, inf): lambda = 1/s, then s = sigma^{1/a} to kill the
    # endpoint singularity
    for s, w in zip(nodes, weights):
        total += w * (1.0 / a) / (1.0 + dsq * s ** (1.0 / a))
    # normalization C(a) = sin(pi a)/pi
    return math.sin(math.pi * a) / math.pi * total


def c_normalization(u, order=200):
    """C(u)^{-1} = (1-u)^{-1} int_0^inf dlambda/(1+lambda^{1/(1-u)})."""
    b = 1.0 - u
    nodes, weights = gauss_nodes(order)
    total = 0.0
    # lambda in [0, 1]
    for s, w in zip(nodes, weights):
        total += w / (1.0 + s ** (1.0 / b))
    # lambda in [1, inf): lambda = 1/s then s = sigma^{b/(1-b)} when the
    # endpoint is singular
    if b > 0.5:
        for s, w in zip(nodes, weights):
            total += w * (b / (1.0 - b)) / (1.0 + s ** (1.0 / (1.0 - b)))
    else:
        for s, w in zip(nodes, weights):
            total += w * s ** (1.0 / b - 2.0) / (1.0 + s ** (1.0 / b))
    return total / b


def limits_report(triple, algebra, p, n_range, t_grid, order=12):
    """Empirical decay tables with fitted rates for the summability and
    invertibility conditions."""
    report = {"conditions": [], "tables": {}}
    tuples = {}
    for n in n_range:
        letters = tuple((i % triple.base_dim) for i in range(n))
        tuples[n] = ((0.0, 0),) + letters
    for n, tup in tuples.items():
        rows = []
        for t in t_grid:
            v = jlo_component(triple, n, t, tup, order=order)
            rows.append((t, abs(v)))
        report["tables"][n] = rows
        small = [r for r in rows if r[0] <= 0.5 and r[1] > 1e-300]
        if len(small) >= 2:
            (t1, v1), (t2, v2) = small[0], small[-1]
            rate = (math.log(v2) - math.log(v1)) / (math.log(t2) - math.log(t1)) \
                if v1 > 0 and v2 > 0 else float("nan")
        else:
            rate = float("nan")
        big = [r for r in rows if r[0] >= 2.0]
        decay_ok = all(b[1] <= 1e-3 for b in big[-1:]) if big else False
        report["conditions"].append({
            "degree": n,
            "small_t_rate": rate,
            "small_t_pass": bool(rate != rate or n == 0 or rate > n - 0.5),
            "large_t_pass": bool(decay_ok or not triple.invertible_square),
        })
    report["all_pass"] = all(c["small_t_pass"] and c["large_t_pass"]
                             for c in report["conditions"])
    return report
