import filecmp
import os
import random
from fractions import Fraction

import numpy as np
import pytest

import generators as G

SPECS = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "specs")


@pytest.mark.parametrize("workload", ["cocycles", "dga", "heat"])
def test_same_seed_same_inputs(tmp_path, workload):
    a, b, c = (tmp_path / x for x in "abc")
    for d in (a, b, c):
        d.mkdir()
    ma = G.generate(workload, 7, str(a), SPECS)
    mb = G.generate(workload, 7, str(b), SPECS)
    mc = G.generate(workload, 8, str(c), SPECS)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []
    def controls(m):
        return {k: v for k, v in m.items() if k not in ("specs", "seed")}
    assert controls(ma) == controls(mb)
    # another seed changes the generated inputs or the controls
    assert controls(ma) != controls(mc) or any(
        (a / n).read_bytes() != (c / n).read_bytes() for n in names)


def is_associative(n, mul):
    """Reference check of (e_i e_j) e_k = e_i (e_j e_k) in Fractions."""
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = {}
                for l, c in mul.get((i, j), {}).items():
                    for m, d in mul.get((l, k), {}).items():
                        left[m] = left.get(m, 0) + c * d
                right = {}
                for l, c in mul.get((j, k), {}).items():
                    for m, d in mul.get((i, l), {}).items():
                        right[m] = right.get(m, 0) + c * d
                if {m: v for m, v in left.items() if v} != \
                        {m: v for m, v in right.items() if v}:
                    return False
    return True


def _parse(spec):
    names = spec["basis"]
    idx = {n: i for i, n in enumerate(names)}
    mul = {}
    for key, vec in spec["products"].items():
        x, y = key.split("*")
        mul[(idx[x], idx[y])] = {idx[k]: Fraction(v) for k, v in vec.items()}
    unit = {idx[k]: Fraction(v) for k, v in spec["unit"].items()}
    return len(names), mul, unit


def _product(mul, u, v):
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            for k, c in mul.get((i, j), {}).items():
                out[k] = out.get(k, 0) + a * b * c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("name", ["dual", "z2", "qq", "m2"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rebased_tables_are_dense_unital_algebras(name, seed):
    spec = G.rebased_spec(random.Random(seed), name)
    n, mul, unit = _parse(spec)
    assert is_associative(n, mul)
    for i in range(n):
        e = {i: Fraction(1)}
        assert _product(mul, unit, e) == e and _product(mul, e, unit) == e
    coeffs = [c for vec in mul.values() for c in vec.values()]
    assert any(c.denominator > 1 for c in coeffs)
    assert len(coeffs) > sum(len(v) for v in G.CORPUS[name][1].values())


def test_rebase_inverts():
    rng = random.Random(5)
    P = G.invertible_matrix(rng, 4)
    Q = G.inverse(P)
    ident = [[sum(P[i][k] * Q[k][j] for k in range(4)) for j in range(4)]
             for i in range(4)]
    assert ident == [[int(i == j) for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("seed", range(5))
def test_nonassociative_spec_is_not_associative(seed):
    n, mul, _ = _parse(G.nonassociative_spec(random.Random(seed)))
    assert not is_associative(n, mul)


@pytest.mark.parametrize("seed", range(5))
def test_seeded_triple_has_invertible_square(seed):
    rho, D, sigma = G.triple_matrices(random.Random(seed))
    D = np.array(D)
    g = np.diag([1, 1, -1, -1])
    assert np.allclose(D, D.conj().T) and np.allclose(g @ D, -D @ g)
    ev = np.linalg.eigvalsh(D @ D)
    assert ev.min() >= 1 - 1e-12 and ev.max() <= 4 + 1e-12
    assert np.allclose(sorted(ev), sorted([s * s for s in sigma] * 2))
    r0, r1 = (np.array(m) for m in rho)
    for r in (r0, r1):
        assert np.allclose(r @ r, r) and np.allclose(g @ r, r @ g)
    assert np.allclose(r0 @ r1, 0) and np.allclose(r0 + r1, np.eye(4))
