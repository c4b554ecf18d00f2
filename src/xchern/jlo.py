"""Heat-kernel cochains for scalar-target spectral data, in floating point.

chi^n(t) integrates supertraced words rho(a0~) e^{-s0 t^2 D^2} [D, rho(a1)]
... over the fundamental simplex; cs^n carries one extra insertion of D
(the dt-partner of the rescaled Dirac family t -> tD).  Global signs are
pinned by the transgression identity and by matching the exact retraction
formulas in the t -> infinity limit; both are enforced in the test suite.

cochain_values is the one evaluator: it returns chi^n or cs^n on a tuple
for every t of a grid.  jlo_component and cs_component are its readings
at one t, and chi_hat_T reads cs on the Gauss-Legendre t-grid (of order
t_order) of the finite-time retraction.  The simplex integrals are exact
up to rounding: in the eigenbasis of D a word is a finite sum of its
matrix entries times divided differences of exp at the eigenvalues of
t^2 D^2 (Hermite-Genocchi), computed from the bidiagonal Opitz matrix
exponential.  jlo_component and cs_component accept an `order` keyword
(the CLI's --quad-order) that has no effect.

Each SpectralTriple memoizes its heat tables (one per node count and t^2
grid) and its multiset folds (one per word length) in its own dict, so a
table is evaluated once per triple however many tuples read it; entries are
read-only arrays and die with the triple.
"""

import itertools
import math

import numpy as np

from .scalars import to_complex


class SpectralTriple:
    """Graded 2m-dimensional space, even representation matrices, odd
    self-adjoint D."""

    def __init__(self, rho, D):
        tol = 1e-12
        self.rho = [np.asarray(m, dtype=complex) for m in rho]
        self.D = np.asarray(D, dtype=complex)
        n = self.D.shape[0]
        if n % 2:
            raise ValueError("graded dimension must be even")
        self.dim = n
        g = np.diag([1.0] * (n // 2) + [-1.0] * (n // 2))
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
        # heat tables and multiset folds, filled by _heat_table and
        # _folded_word; both depend only on D and the key
        self._memo = {}

    def rho_tilde(self, slot):
        """slot = (scalar, index or None) for the unitalization."""
        s, idx = slot
        out = s * np.eye(self.dim, dtype=complex)
        if idx is not None:
            out = out + self.rho[idx]
        return out

    def bracket(self, idx):
        return self.D @ self.rho[idx] - self.rho[idx] @ self.D


def _frozen(array):
    array.flags.writeable = False
    return array


def _multisets(dim, size):
    """The sorted index tuples of the given size over range(dim), in
    lexicographic order, and for every index tuple (row-major) the row of
    its sorted form among them."""
    combos = np.array(list(itertools.combinations_with_replacement(
        range(dim), size)), dtype=int)
    place = dim ** np.arange(size - 1, -1, -1)
    tuples = np.indices((dim,) * size).reshape(size, -1).T
    return combos, np.searchsorted(combos @ place,
                                   np.sort(tuples, axis=1) @ place)


# the most bytes one fold may allocate; see fold_fits
FOLD_CAP_BYTES = 2 ** 27


def fold_fits(dim, size):
    """Whether folding a word of size - 1 insertions on a triple of
    dimension dim stays under FOLD_CAP_BYTES: _folded_word multiplies out
    dim^(size + 1) complex entries, and _multisets holds two int tables of
    size x dim^size (the index tuples and their sorted copy).  dim >= 2,
    so no size past 24 fits; those are refused before the power is taken."""
    return size <= 24 and (16 * dim ** (size + 1)
                           + 16 * size * dim ** size) <= FOLD_CAP_BYTES


def _simplex_exp(x):
    """Integral over the standard n-simplex of exp(-sum_i s_i x_i) for
    every node row x[..., :] of length n + 1.

    By Hermite-Genocchi this is (-1)^n exp(-.)[x_0, ..., x_n], read off
    as the corner entry of exp(N) with N upper bidiagonal, diagonal -x and
    ones above it (Opitz; McCurdy-Ng-Parlett 1984).  Confluent and nearly
    confluent nodes need no special case.  Each N is scaled by its own
    power of two to 1-norm <= 1/2, exponentiated by its degree-16 Taylor
    polynomial (remainder below 1e-19) and squared back; N is Metzler, so
    the squarings add no cancellation."""
    size = x.shape[-1]
    diag = np.arange(size)
    N = np.zeros(x.shape + (size,))
    N[..., diag, diag] = -x
    N[..., diag[:-1], diag[1:]] = 1.0
    norm = 1.0 + np.max(np.abs(x), axis=-1)
    squarings = np.ceil(np.log2(2.0 * norm)).astype(int)
    N = N / (2.0 ** squarings)[..., None, None]
    eye = np.eye(size)
    E = eye
    for k in range(16, 0, -1):
        E = eye + N @ E / k
    for j in range(int(np.max(squarings, initial=0))):
        E = np.where((squarings > j)[..., None, None], E @ E, E)
    return E[..., 0, -1]


def _folded_word(triple, lead, insertions):
    """Entries of the supertraced word Str(lead E M_1 E ... M_n E) in the
    eigenbasis of D, W[k0..kn] = (gamma lead)[kn, k0] prod M_i[k_{i-1},
    k_i], summed over index tuples with the same multiset (the simplex
    integral is symmetric in its nodes); returns (multisets, sums)."""
    V = triple.vecs
    Vh = V.conj().T
    acc = (Vh @ triple.gamma @ lead @ V).T       # [k0, closing index]
    for M in insertions:
        acc = acc[..., :, None, :] * (Vh @ M @ V)[:, :, None]
    word = np.diagonal(acc, axis1=-2, axis2=-1).reshape(-1)
    size = len(insertions) + 1
    key = ("multisets", size)
    if key not in triple._memo:
        triple._memo[key] = tuple(map(_frozen, _multisets(triple.dim, size)))
    combos, where = triple._memo[key]
    folded = np.zeros(len(combos), dtype=complex)
    np.add.at(folded, where, word)
    return combos, folded


def _heat_table(triple, combos, t2):
    """Simplex integrals of the heat factors at nodes t^2 lambda_k, one row
    per t^2 in t2 and one column per multiset; combos are the triple's own
    multisets of their size, so the node count and the exact t^2 values
    (shape included) name the table."""
    grid = np.asarray(t2, dtype=float)
    key = ("heat", combos.shape[1], grid.shape, grid.tobytes())
    if key not in triple._memo:
        # a copy, so the memo does not keep the whole exponential alive
        table = _simplex_exp(np.multiply.outer(t2, triple.evals[combos] ** 2))
        triple._memo[key] = _frozen(table.copy())
    return triple._memo[key]


def cochain_values(triple, tup, ts, transgression=False):
    """chi^n(t), or cs^n(t) with transgression, on a tuple (slot0, i1, ...,
    in) for every t in ts; slot0 is (scalar, index or None).

    chi^n has one word, the n brackets; cs^n has n + 1, one insertion of D
    at each position j with the sign (-1)^j of moving the odd dt past j odd
    brackets.  All words of a cochain carry the same number of insertions,
    so their eigenbasis folds share one multiset table: the folds are summed
    and one heat table, with a row per t, is applied.  An odd number of odd
    insertions makes the supertraced word odd, and the cochain vanishes."""
    lead = triple.rho_tilde(tup[0])
    brackets = [triple.bracket(i) for i in tup[1:]]
    n = len(brackets)
    ts = np.asarray(ts, dtype=float)
    if transgression:
        words = [((-1) ** j, brackets[:j] + [triple.D] + brackets[j:])
                 for j in range(n + 1)]
    else:
        words = [(1, brackets)]
    if len(words[0][1]) % 2:
        return np.zeros(len(ts), dtype=complex)
    total = 0.0
    for sign, insertions in words:
        combos, folded = _folded_word(triple, lead, insertions)
        total = total + sign * folded
    return ((-1) ** n) * ts ** n * (_heat_table(triple, combos, ts * ts)
                                    @ total)


def jlo_component(triple, n, t, tup, order=24):
    """chi^n(t) on a tuple of n letters; order is accepted and ignored."""
    if t <= 0:
        raise ValueError("t must be positive")
    assert len(tup) == n + 1
    return complex(cochain_values(triple, tup, [t])[0])


def cs_component(triple, n, t, tup, order=24):
    """cs^n(t) on a tuple of n letters; order is accepted and ignored."""
    if t <= 0:
        raise ValueError("t must be positive")
    assert len(tup) == n + 1
    return complex(cochain_values(triple, tup, [t], transgression=True)[0])


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
            out.append((to_complex(c), ((0.0, k),) + letters[1:]))
    # interior merges
    for i in range(1, n):
        sign = (-1) ** i
        for k, c in algebra.product_basis(letters[i - 1], letters[i]).items():
            newt = (tup[0],) + letters[:i - 1] + (k,) + letters[i + 1:]
            out.append((sign * to_complex(c), newt))
    # wrap-around merge of the last letter into the zero slot
    sign = (-1) ** n
    if s0:
        out.append((sign * complex(s0), ((0.0, letters[-1]),) + letters[:-1]))
    if i0 is not None:
        for k, c in algebra.product_basis(letters[-1], i0).items():
            out.append((sign * to_complex(c),
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


def chi_hat_T(triple, algebra, n, t_big, tup, t_order=40):
    """The degree-n retraction at finite time on a tuple of degree <= n+1."""
    k = len(tup) - 1
    if k > n + 1:
        return 0.0 + 0.0j
    val = jlo_component(triple, k, t_big, tup)
    if k in (n, n + 1):
        terms = tuple_B(tup)
        if terms:
            x, w = np.polynomial.legendre.leggauss(t_order)
            nodes, weights = 0.5 * (x + 1.0), 0.5 * w
            # Gauss-Legendre on [0, min(1, T)] and on [min(1, T), T]
            cut = min(1.0, t_big)
            ts = np.concatenate([cut * nodes, cut + (t_big - cut) * nodes])
            ws = np.concatenate([cut * weights, (t_big - cut) * weights])
            acc = np.zeros(len(ts), dtype=complex)
            for c, tt in terms:
                acc += c * cochain_values(triple, tt, ts,
                                          transgression=True)
            # even bimodule: the retraction subtracts the transgressed tail
            val = val - ws @ acc
    return val


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
    return SpectralTriple(triple.rho, Du)
