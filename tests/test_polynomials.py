"""Sparse multivariate polynomial basics."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bermoments.polynomials import MPoly

x = MPoly.var("x")
y = MPoly.var("y")


def poly_st():
    mono = st.tuples(st.integers(0, 3), st.integers(0, 3))
    term = st.tuples(mono, st.fractions(min_value=-5, max_value=5, max_denominator=4))
    return st.lists(term, max_size=5).map(
        lambda ts: MPoly.from_terms(
            ((("x", a), ("y", b)), c) for (a, b), c in ts
        )
    )


def test_construction_and_terms():
    p = 2 * x**2 * y - F(1, 3)
    assert p.coefficient({"x": 2, "y": 1}) == 2
    assert p.coefficient({}) == F(-1, 3)
    assert p.coefficient({"x": 1}) == 0
    assert p.degree("x") == 2 and p.degree("y") == 1 and p.degree("z") == 0


def test_str_writes_signs_and_constants():
    assert str(MPoly.from_terms([])) == "0"
    assert str(MPoly.from_terms([((), F(-2, 3))])) == "-2/3"
    assert str(x - 1) == "-1 + x"
    assert str(1 - x * y) == "1 - x*y"
    assert str(F(3, 2) * x**2 - 2 * y) == "-2*y + 3/2*x^2"


def test_zero_terms_are_dropped():
    p = x - x
    assert p.is_zero
    assert not p
    assert p == 0
    assert p.terms() == []


def test_scalar_mixing():
    assert 1 + x - 1 == x
    assert (x + F(1, 2)) * 2 == 2 * x + 1
    assert x / 2 == F(1, 2) * x
    assert -(x - y) == y - x


def test_pow():
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1
    assert x**0 == 1
    with pytest.raises(ValueError):
        x ** (-1)


def test_subs_with_scalars_and_polys():
    p = x**2 + y
    assert p.subs({"x": F(1, 2)}) == y + F(1, 4)
    assert p.subs({"x": y}) == y**2 + y
    assert p.subs({"x": x + 1}) == x**2 + 2 * x + 1 + y
    assert p.eval({"x": 2, "y": F(1, 3)}) == F(13, 3)


def test_value_requires_constant():
    assert (x - x).value() == 0
    assert MPoly.const(F(7, 2)).value() == F(7, 2)
    with pytest.raises(ValueError):
        x.value()


def test_derivative():
    p = x**3 * y + 2 * x
    assert p.derivative("x") == 3 * x**2 * y + 2
    assert p.derivative("y") == x**3
    assert p.derivative("z") == 0


def test_float_rejected():
    with pytest.raises(TypeError):
        MPoly.const(0.5)
    with pytest.raises(TypeError):
        x + 0.5


@given(a=poly_st(), b=poly_st(), c=poly_st())
@settings(max_examples=40, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero
