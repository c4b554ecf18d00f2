"""The coefficient tower int < Fraction < Scalar and its promotion rule.

Rational values live as plain ints and Fractions; a value is a Scalar only
when it is not rational.  Mixed arithmetic must agree with the same
computation on Scalars alone, and the exact layers must never store a
float or a rational Scalar.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from xchern.scalars import (Scalar, GaussianRational, SQRT_PI, I, HALF,
                            coerce, inv, is_rational, to_complex, gamma_half,
                            parse, render)
from xchern.forms import FormSpace
from xchern.linalg import solve
from xchern.xcomplex import (XGenerated, FedosovAlg, x_of_tensor_algebra,
                             homotopy_solve)
from xchern import chern as C

# derandomized with few examples, so the suite stays deterministic and fast
tower = settings(derandomize=True, max_examples=60, deadline=None,
                 database=None)

ints = st.integers(-6, 6)
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussians = st.builds(Scalar.gaussian, fractions, fractions)
sqrt_pi = st.builds(lambda q, k: q * SQRT_PI ** k, fractions,
                    st.integers(-2, 2))
quotients = st.builds(lambda a, b: (a + SQRT_PI) / (b + I), fractions,
                      fractions)
values = st.one_of(ints, fractions, gaussians, sqrt_pi, quotients)


def lifted(x):
    """The same value as a Scalar, rational or not."""
    if isinstance(x, Scalar):
        return x
    return Scalar((GaussianRational(x),) if x else ())


def assert_promoted(x):
    """x is an int, a non-integer Fraction or a non-rational Scalar."""
    assert not isinstance(x, (bool, float, complex))
    if isinstance(x, Fraction):
        assert x.denominator != 1
    elif isinstance(x, Scalar):
        assert not is_rational(x)
    else:
        assert type(x) is int


def assert_stored(x):
    """A stored coefficient: an int, a Fraction or a non-rational Scalar."""
    assert type(x) in (int, Fraction, Scalar), repr(x)
    if isinstance(x, Scalar):
        assert not is_rational(x)


@tower
@given(values, values,
       st.sampled_from([operator.add, operator.sub, operator.mul]))
def test_mixed_ring_operations_match_scalar_arithmetic(x, y, op):
    mixed, pure = op(x, y), op(lifted(x), lifted(y))
    assert mixed == pure and pure == mixed
    assert hash(mixed) == hash(pure)
    assert_promoted(pure)
    assert_stored(mixed)


@tower
@given(values, values)
def test_inverse_and_division_match_scalar_arithmetic(x, y):
    if not y:
        with pytest.raises(ZeroDivisionError):
            inv(y)
        return
    assert inv(y) == inv(lifted(y)) == 1 / lifted(y)
    assert_promoted(inv(y))
    quotient = lifted(x) / lifted(y)
    assert x * inv(y) == quotient
    assert_promoted(quotient)


@tower
@given(values)
def test_equal_values_hash_equal_across_the_tower(x):
    promoted = coerce(lifted(x))
    assert lifted(x) == x == promoted
    assert hash(lifted(x)) == hash(x) == hash(promoted)
    assert_promoted(promoted)
    assert is_rational(x) == (not isinstance(promoted, Scalar))
    assert to_complex(x) == to_complex(lifted(x))
    text = render(x)
    assert text == render(lifted(x))
    back = parse(text)
    assert back == x and type(back) is type(promoted)


def test_constructor_trims_zero_leading_coefficients():
    zero = GaussianRational(0)
    assert Scalar((zero,)) == 0 and not Scalar((zero,))
    assert Scalar((GaussianRational(2), zero)) == 2
    assert Scalar((GaussianRational(1),), (GaussianRational(3), zero)) == \
        Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        Scalar((GaussianRational(1),), (zero,))


def test_coerce_rejects_inexact_numbers():
    for bad in (0.5, True, 1j):
        with pytest.raises(TypeError):
            coerce(bad)


def test_rational_constants_are_plain_numbers():
    assert type(gamma_half(6)) is int and gamma_half(6) == 2
    assert HALF == Fraction(1, 2) and type(HALF) is Fraction
    assert isinstance(gamma_half(5), Scalar)
    assert type(Scalar.from_int(3)) is int
    assert type(Scalar.rational(4, 2)) is int
    assert type(Scalar.gaussian(Fraction(1, 3), 0)) is Fraction


# the degree-n retraction constant Gamma(n/2 + 1) / (n + 1)! * 1/2
RETRACTION_CONSTANTS = ["1/2", "1/8*sqrt(pi)", "1/12", "1/64*sqrt(pi)"]


@pytest.mark.parametrize("n", range(4))
def test_retraction_constant_is_exact(n):
    gamma = lifted(gamma_half(n + 2))
    fact = lifted(1)
    for k in range(2, n + 2):
        fact = fact * lifted(k)
    all_scalar = gamma / lifted(fact) * lifted(HALF)
    value = C.retraction_constant(n)
    assert_stored(value)
    assert value == all_scalar == parse(RETRACTION_CONSTANTS[n])


def test_exact_side_stores_no_float(dual):
    """The commutator quotient, universal cocycle columns and a solve keep
    every coefficient an int, a Fraction or a non-rational Scalar."""
    xq3 = XGenerated(FedosovAlg(FormSpace(dual, 3)), exact_quotient=True)
    rows = xq3.relations().rows
    assert rows
    for row in rows.values():
        for c in row.values():
            assert_stored(c)

    xt = x_of_tensor_algebra(dual, 2)
    xq = XGenerated(FedosovAlg(FormSpace(dual, 2)), exact_quotient=True)
    ch0 = C.universal_ch_even(dual, 0, xt, xq)
    ch1 = C.universal_ch_even(dual, 1, xt, xq)
    seen = 0
    for get, labels in ((ch0.even_col, xt.even_basis()),
                        (ch0.odd_col, xt.odd_basis())):
        for lab in labels:
            col, _ = get(lab)
            seen += len(col)
            for c in col.values():
                assert_stored(c)
    assert seen

    h, _ = homotopy_solve(ch1.sub(ch0))
    assert h is not None
    for get, labels in ((h.even_col, xt.even_basis()),
                        (h.odd_col, xt.odd_basis())):
        for lab in labels:
            for c in get(lab)[0].values():
                assert_stored(c)

    # a system whose pivots are not units, so the solution has fractions
    sol, witness = solve([{"x": 2, "y": 1}, {"y": 3}], [1, SQRT_PI])
    assert witness is None
    assert sol == {"x": Fraction(1, 2) - SQRT_PI / 6, "y": SQRT_PI / 3}
    for c in sol.values():
        assert_stored(c)
