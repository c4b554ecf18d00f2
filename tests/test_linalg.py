"""Properties of the echelon kernel (Span) and of solve built on it."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from xchern.scalars import Scalar, ZERO, ONE
from xchern.linalg import Span, label_key, solve, vec_add, vec_axpy, vec_scale

# derandomized with few examples, so the suite stays deterministic and fast
kernel = settings(derandomize=True, max_examples=30, deadline=None,
                  database=None)

LABELS = [None, 0, 1, 2, "a", "b", (0,), (0, 1), (1, "a"), ((0,), None),
          (("b",), (2, (0,)))]

coeffs = st.builds(Scalar.rational,
                   st.integers(-3, 3).filter(bool), st.integers(1, 3))
vectors = st.dictionaries(st.sampled_from(LABELS), coeffs, max_size=4)
families = st.lists(vectors, max_size=6)


def combine(weights, vecs):
    out = {}
    for w, v in zip(weights, vecs):
        vec_axpy(out, w, v)
    return out


def dot(eq, x):
    acc = ZERO
    for k, c in eq.items():
        acc = acc + c * x.get(k, ZERO)
    return acc


@kernel
@given(families, vectors)
def test_residual_is_free_of_pivots_and_differs_by_the_span(vecs, v):
    span = Span(vecs)
    r = span.reduce(v)
    assert not set(r) & set(span.rows)
    assert span.contains(vec_add(v, vec_scale(r, -ONE)))


@kernel
@given(families, st.lists(vectors, max_size=3))
def test_echelon_form_ignores_insertion_order(vecs, probes):
    forward, backward = Span(vecs), Span(vecs[::-1])
    rotated = Span(vecs[1:] + vecs[:1])
    assert forward.rows == backward.rows == rotated.rows
    for v in probes + vecs:
        assert forward.reduce(v) == backward.reduce(v) == rotated.reduce(v)


@kernel
@given(families)
def test_rows_are_reduced(vecs):
    span = Span(vecs)
    for p, row in span.rows.items():
        assert min(row, key=label_key) == p and row[p] == ONE
        others = set(span.rows) - {p}
        assert not others & set(row)


@kernel
@given(st.lists(vectors, min_size=1, max_size=6),
       st.dictionaries(st.sampled_from(LABELS), coeffs, max_size=5))
def test_solution_satisfies_every_equation(eqs, x):
    rhs = [dot(eq, x) for eq in eqs]
    sol, witness = solve(eqs, rhs)
    assert witness is None
    for eq, b in zip(eqs, rhs):
        assert dot(eq, sol) == b


def _inconsistent(eqs, x, extra):
    """eqs with a consistent right-hand side, then one combination of them
    whose right-hand side is shifted by extra != 0."""
    rhs = [dot(eq, x) for eq in eqs]
    return eqs + [combine([ONE] * len(eqs), eqs)], rhs + [sum(rhs, extra)]


@kernel
@given(st.lists(vectors, min_size=1, max_size=5),
       st.dictionaries(st.sampled_from(LABELS), coeffs, max_size=5), coeffs)
def test_witness_combines_to_zero_equals_nonzero(eqs, x, extra):
    eqs, rhs = _inconsistent(eqs, x, extra)
    sol, witness = solve(eqs, rhs, track_witness=True)
    assert sol is None
    weights = [witness.get(i, ZERO) for i in range(len(eqs))]
    assert combine(weights, eqs) == {}
    assert sum((w * b for w, b in zip(weights, rhs)), ZERO)


@kernel
@given(st.lists(vectors, min_size=1, max_size=5),
       st.dictionaries(st.sampled_from(LABELS), coeffs, max_size=5), coeffs,
       st.lists(vectors, max_size=3))
def test_untracked_solve_names_the_first_inconsistent_equation(
        eqs, x, extra, tail):
    eqs, rhs = _inconsistent(eqs, x, extra)
    eqs, rhs = eqs + tail, rhs + [ONE] * len(tail)
    sol, idx = solve(eqs, rhs)
    assert sol is None
    assert solve(eqs[:idx], rhs[:idx])[0] is not None
    assert solve(eqs[:idx + 1], rhs[:idx + 1])[0] is None


def test_vec_axpy_stores_integer_valued_fractions_as_ints():
    half, third = Fraction(1, 2), Fraction(1, 3)
    out = {"a": half, "b": third}
    vec_axpy(out, ONE, {"a": half, "b": third, "c": 2})
    assert out == {"a": 1, "b": Fraction(2, 3), "c": 2}
    assert type(out["a"]) is int and type(out["c"]) is int
    # a product that is an integer, first stored and then summed
    out = vec_axpy({}, half, {"a": 4, "b": 3})
    vec_axpy(out, third, {"b": Fraction(3, 2)})
    assert out == {"a": 2, "b": 2}
    assert all(type(c) is int for c in out.values())
    vec_axpy(out, -2, {"a": 1})
    assert out == {"b": 2}
