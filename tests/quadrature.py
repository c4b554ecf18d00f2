"""Gauss-Legendre quadrature over the simplex for the heat cochains.

An independent oracle for the closed form in `xchern.jlo`: the simplex is
parametrized by stick-breaking, each coordinate gets `order` Gauss-Legendre
nodes, and the heat factors are formed as matrices from their own
eigendecomposition of D.  The cost grows as order^n, so keep n and order
small.
"""

import numpy as np


def simplex_grid(n, order):
    """Stick-breaking grid on the n-simplex: coordinates s_0..s_n, shape
    (n + 1, order^n), and the combined weight, which sums to 1/n!."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    xs = [g.reshape(-1) for g in np.meshgrid(*([nodes] * n), indexing="ij")]
    wgrids = np.meshgrid(*([weights] * n), indexing="ij")
    weight = np.ones(order ** n)
    for wg in wgrids:
        weight = weight * wg.reshape(-1)
    for i in range(1, n):
        weight = weight * xs[i - 1] ** (n - i)
    s_list = []
    prod = np.ones(order ** n)
    for i in range(n):
        s_list.append(prod * (1.0 - xs[i]))
        prod = prod * xs[i]
    s_list.append(prod)
    return np.stack(s_list, axis=0), weight


def heat(triple, s, t2):
    """exp(-s t^2 D^2) for each s in the array s; shape (K, dim, dim)."""
    evals, vecs = np.linalg.eigh(triple.D)
    ee = np.exp(-np.outer(s, evals ** 2 * t2))
    return (vecs * ee[:, None, :]) @ vecs.conj().T


def simplex_integral(triple, lead, insertions, t2, order):
    """Integral over the n-simplex of Str(lead e^{-s0 A} M1 e^{-s1 A} ...),
    A = t^2 D^2."""
    n = len(insertions)
    if n == 0:
        E = heat(triple, np.array([1.0]), t2)[0]
        return complex(np.trace(triple.gamma @ lead @ E))
    s_all, weight = simplex_grid(n, order)
    acc = lead @ heat(triple, s_all[0], t2)
    for i, M in enumerate(insertions):
        acc = acc @ M @ heat(triple, s_all[i + 1], t2)
    vals = np.einsum("ii,kii->k", triple.gamma, acc)
    return complex(np.sum(vals * weight))


def jlo_component(triple, n, t, tup, order):
    lead = triple.rho_tilde(tup[0])
    ins = [triple.bracket(i) for i in tup[1:]]
    assert len(ins) == n
    return ((-1) ** n) * t ** n * simplex_integral(triple, lead, ins, t * t,
                                                   order)


def cs_component(triple, n, t, tup, order):
    lead = triple.rho_tilde(tup[0])
    brackets = [triple.bracket(i) for i in tup[1:]]
    assert len(brackets) == n
    total = 0.0 + 0.0j
    for j in range(n + 1):
        ins = brackets[:j] + [triple.D] + brackets[j:]
        total += ((-1) ** j) * simplex_integral(triple, lead, ins, t * t,
                                                order)
    return ((-1) ** n) * t ** n * total
