import random

import pytest

from xchern.scalars import (Scalar, ZERO, ONE, I, SQRT_PI, GaussianRational,
                            gamma_half, bott_constant, inv, parse, render)


def test_gamma_half_values():
    assert gamma_half(2) == ONE
    assert gamma_half(1) == SQRT_PI
    assert gamma_half(5) == Scalar.rational(3, 4) * SQRT_PI
    assert gamma_half(4) == Scalar.from_int(1)
    assert gamma_half(6) == Scalar.from_int(2)


def test_gamma_half_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_half(0)
    with pytest.raises(ValueError):
        gamma_half(-3)


def test_gamma_recursion():
    for n in range(1, 21):
        assert gamma_half(n + 2) == Scalar.rational(n, 2) * gamma_half(n)


def test_bott_constant():
    b = bott_constant()
    assert b == Scalar.gaussian(1, 1) * SQRT_PI
    assert b * b == Scalar.gaussian(0, 2) * SQRT_PI * SQRT_PI
    assert b / gamma_half(1) == Scalar.gaussian(1, 1)


def test_render_parse_roundtrip():
    vals = [ZERO, ONE, I, -I, SQRT_PI, bott_constant(), gamma_half(7),
            (ONE + I) / (SQRT_PI + Scalar.from_int(3)),
            (SQRT_PI ** 3 - I) / (SQRT_PI * Scalar.rational(2, 7) + ONE),
            Scalar.gaussian(0, -2) * SQRT_PI,
            Scalar.rational(-7, 3)]
    for v in vals:
        assert parse(render(v)) == v


def _random_scalar(rng):
    num = tuple(GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))
                for _ in range(rng.randint(1, 3)))
    den = tuple(GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))
                for _ in range(rng.randint(1, 2)))
    try:
        return Scalar(num, den)
    except ZeroDivisionError:
        return ONE


def test_field_axioms_randomized():
    rng = random.Random(0)
    for _ in range(300):
        x, y, z = (_random_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if x:
            assert x * inv(x) == ONE
        assert parse(render(x)) == x


def test_canonical_form_unique():
    a = Scalar.rational(2, 4)
    b = Scalar.rational(1, 2)
    assert a == b and hash(a) == hash(b)
    # monic denominator: (1+p)/(2+2p) reduces to 1/2
    two = Scalar.from_int(2)
    assert (ONE + SQRT_PI) / (two + two * SQRT_PI) == Scalar.rational(1, 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        inv(ZERO)
