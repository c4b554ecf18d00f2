"""Seeded inputs for the benchmark workloads.

Everything here is pure Python (fractions, cmath, random) and independent of
xchern, so a defect in the program cannot hide in the inputs.  The same seed
gives the same spec files byte for byte.
"""

import cmath
import json
import math
import os
import random
from fractions import Fraction

# Corpus algebras by structure constants: basis names, {(i, j): {k: c}},
# unit coefficients.  These mirror the builtins dual, z2, qq and m2.
CORPUS = {
    "dual": (["1", "eps"],
             {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
             {0: 1}),
    "z2": (["1", "g"],
           {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}},
           {0: 1}),
    "qq": (["e1", "e2"], {(0, 0): {0: 1}, (1, 1): {1: 1}}, {0: 1, 1: 1}),
    "m2": (["e11", "e12", "e21", "e22"],
           {(2 * i + j, 2 * j + l): {2 * i + l: 1}
            for i in range(2) for j in range(2) for l in range(2)},
           {0: 1, 3: 1}),
}

SMALL = [Fraction(n, d) for n in (-2, -1, 1, 2) for d in (1, 2, 3)]


def render(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else \
        "%d/%d" % (q.numerator, q.denominator)


def invertible_matrix(rng, n):
    """P = L U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, so det P = prod diag U != 0.  Small rational entries;
    every off-diagonal entry of L and U is nonzero so P is dense."""
    L = [[Fraction(int(i == j)) if i <= j else rng.choice(SMALL)
          for j in range(n)] for i in range(n)]
    U = [[rng.choice(SMALL) if i <= j else Fraction(0) for j in range(n)]
         for i in range(n)]
    return [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def inverse(P):
    n = len(P)
    A = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(P)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col])
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def rebase(mul, unit, P):
    """Structure constants and unit in the basis f_a = sum_i P[a][i] e_i.

    f_a f_b = sum_ij P_ai P_bj e_i e_j, and e_k = sum_c Q_kc f_c with
    Q = P^-1, so the new constant on f_c is sum_k (...)_k Q_kc."""
    n = len(P)
    Q = inverse(P)
    new = {}
    for a in range(n):
        for b in range(n):
            in_e = [Fraction(0)] * n
            for (i, j), vec in mul.items():
                w = P[a][i] * P[b][j]
                if w:
                    for k, c in vec.items():
                        in_e[k] += w * c
            out = {c: sum(in_e[k] * Q[k][c] for k in range(n))
                   for c in range(n)}
            out = {c: v for c, v in out.items() if v}
            if out:
                new[(a, b)] = out
    new_unit = {c: sum(Fraction(unit.get(k, 0)) * Q[k][c] for k in range(n))
                for c in range(n)}
    return new, {c: v for c, v in new_unit.items() if v}


def algebra_spec(name, basis, mul, unit):
    return {
        "kind": "algebra",
        "name": name,
        "basis": list(basis),
        "unit": {basis[k]: render(c) for k, c in sorted(unit.items())},
        "products": {"%s*%s" % (basis[i], basis[j]):
                     {basis[k]: render(c) for k, c in sorted(vec.items())}
                     for (i, j), vec in sorted(mul.items())},
    }


def rebased_spec(rng, corpus_name):
    """A seeded change of basis whose table is denser than the original and
    has a non-integer constant; draws repeat until one qualifies."""
    basis, mul, unit = CORPUS[corpus_name]
    nonzero = sum(len(v) for v in mul.values())
    while True:
        P = invertible_matrix(rng, len(basis))
        new, new_unit = rebase(mul, unit, P)
        coeffs = [c for vec in new.values() for c in vec.values()]
        if len(coeffs) > nonzero and any(c.denominator > 1 for c in coeffs):
            break
    names = ["f%d" % i for i in range(len(basis))]
    return algebra_spec("%s-rebased" % corpus_name, names, new, new_unit)


def nonassociative_spec(rng):
    """Unit 1 and letters a, b with a*a = b, b*a = r.1 (r != 0) and
    a*b = 0, so (a*a)*a = r.1 differs from a*(a*a) = 0."""
    r = rng.choice(SMALL)
    one = {0: Fraction(1)}
    mul = {(0, 0): one, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1},
           (2, 0): {2: 1}, (1, 1): {2: 1}, (2, 1): {0: r}}
    return algebra_spec("nonassociative", ["1", "a", "b"], mul, one)


# ---------------------------------------------------------------------------
# spectral triples
# ---------------------------------------------------------------------------


def unitary2(rng):
    """Haar-like 2x2 unitary e^{i phi} [[a, -conj b], [b, conj a]]."""
    theta = math.acos(math.sqrt(rng.random()))
    alpha, beta, phi = (rng.uniform(0, 2 * math.pi) for _ in range(3))
    a = cmath.exp(1j * alpha) * math.cos(theta)
    b = cmath.exp(1j * beta) * math.sin(theta)
    g = cmath.exp(1j * phi)
    return [[g * a, -g * b.conjugate()], [g * b, g * a.conjugate()]]


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def adjoint(A):
    return [[A[j][i].conjugate() for j in range(len(A))]
            for i in range(len(A[0]))]


def block(A, B, C, D):
    return [ra + rb for ra, rb in zip(A, B)] + \
        [rc + rd for rc, rd in zip(C, D)]


def _pairs(M):
    return [[[complex(x).real, complex(x).imag] for x in row] for row in M]


def triple_matrices(rng):
    """D = [[0, W*], [W, 0]] with W = U diag(sigma) V, sigma in [1, 2], so
    D^2 = diag(W*W, WW*) has spectrum in [1, 4] and is invertible.  The
    representation of qq sends e1, e2 to a pair of complementary even
    projections, conjugated by a random even unitary."""
    U, V = unitary2(rng), unitary2(rng)
    sigma = [rng.uniform(1.0, 2.0) for _ in range(2)]
    W = matmul(matmul(U, [[sigma[0], 0], [0, sigma[1]]]), V)
    z = [[0j, 0j], [0j, 0j]]
    D = block(z, adjoint(W), W, z)
    G1, G2 = unitary2(rng), unitary2(rng)
    rho = []
    for k in range(2):
        P = [[complex(i == j == k) for j in range(2)] for i in range(2)]
        top = matmul(matmul(G1, P), adjoint(G1))
        bot = matmul(matmul(G2, P), adjoint(G2))
        rho.append(block(top, z, z, bot))
    return rho, D, sigma


def triple_spec(rho, D):
    return {"kind": "spectral_triple", "base": "qq",
            "rho": [_pairs(m) for m in rho], "D": _pairs(D)}


def toy4_spec():
    """The 4x4 triple of the jlo test suite: W = [[2, 1/2], [0, 1]]."""
    W = [[2.0, 0.5], [0.0, 1.0]]
    z = [[0.0, 0.0], [0.0, 0.0]]
    D = block(z, adjoint([[complex(x) for x in r] for r in W]), W, z)
    p = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]
    rho = [block(q, z, z, q) for q in p]
    return triple_spec(rho, D)


# ---------------------------------------------------------------------------
# per-workload inputs
# ---------------------------------------------------------------------------


def _dump(directory, name, spec):
    path = os.path.join(directory, name + ".json")
    with open(path, "w") as fh:
        json.dump(spec, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def generate(workload, seed, directory, specs_dir):
    """Write the workload's generated spec files into directory and return
    its manifest: spec paths, control parameters and sample choices."""
    rng = random.Random("%s:%d" % (workload, seed))
    man = {"workload": workload, "seed": seed, "specs": {}, "controls": {}}
    specs = man["specs"]
    for name in ("dual", "fredholm", "idqh", "triple2x2"):
        specs[name] = os.path.join(specs_dir, name + ".json")
    for name in ("qq", "m2", "z2"):
        specs[name] = _dump(directory, name,
                            {"kind": "algebra", "builtin": name})
    if workload == "cocycles":
        # window below 2n + parity + 2 must be rejected with exit 3
        n, parity = rng.choice([(0, "even"), (1, "even"), (0, "odd"),
                                (1, "odd")])
        man["controls"]["short_window"] = {
            "algebra": rng.choice(["dual", "qq"]), "n": n, "parity": parity,
            "window": 2 * n + (parity == "odd") + 1}
        # perturbed chain map: one seeded column gets c * t added, where t
        # is a target label with a nonzero boundary
        man["controls"]["perturbed_map"] = {
            "column": rng.randrange(1 << 16), "target": rng.randrange(1 << 16),
            "coeff": render(rng.choice(SMALL))}
    elif workload == "dga":
        for name in ("dual", "z2", "qq", "m2"):
            specs[name + "-rebased"] = _dump(
                directory, name + "-rebased", rebased_spec(rng, name))
        specs["nonassociative"] = _dump(directory, "nonassociative",
                                        nonassociative_spec(rng))
    elif workload == "heat":
        specs["toy4"] = _dump(directory, "toy4", toy4_spec())
        rho, D, sigma = triple_matrices(rng)
        specs["seeded4"] = _dump(directory, "seeded4", triple_spec(rho, D))
        man["sigma"] = sigma
        # tuple letters of the degree-3 and degree-4 cocycle identities
        man["letters"] = [rng.randrange(2) for _ in range(5)]
        man["controls"]["flipped_transgression"] = {
            "triple": rng.choice(["triple2x2", "toy4", "seeded4"]),
            "slot": rng.randrange(2)}
    else:
        raise ValueError("unknown workload %r" % workload)
    return man
