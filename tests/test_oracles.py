"""sympy as an independent oracle for the Bernoulli core.

sympy's Bernoulli numbers and polynomials and its series expansion share no
code with the package's recursions, so exact agreement here pins the table,
the centered polynomials and the theta series from outside.
"""

from fractions import Fraction as F

import pytest

from bermoments import bernoulli_numbers, centered_bernoulli_poly, theta_series
from bermoments.polynomials import MPoly

sympy = pytest.importorskip("sympy")


def as_fraction(value) -> F:
    value = sympy.Rational(value)
    return F(int(value.p), int(value.q))


def test_bernoulli_numbers_through_400():
    ours = bernoulli_numbers(401)
    # sympy follows the B_1 = +1/2 convention; this package uses -1/2
    expected = [as_fraction(sympy.bernoulli(n)) for n in range(401)]
    expected[1] = -expected[1]
    assert ours == expected


def test_bernoulli_table_grows_consistently():
    # a short request after a long one, and a long one after a short one,
    # both read the same table
    assert bernoulli_numbers(7) == bernoulli_numbers(401)[:7]
    assert bernoulli_numbers(403)[:401] == bernoulli_numbers(401)


@pytest.mark.parametrize("k", range(31))
def test_bernoulli_polynomials_are_shifted_centered_polynomials(k):
    x = sympy.Symbol("x")
    expected = sympy.Poly(sympy.bernoulli(k, x), x).all_coeffs()[::-1]
    ours = centered_bernoulli_poly(k).subs({"nu": 1, "x": MPoly.var("x") - F(1, 2)})
    assert [ours.coefficient({"x": e}) for e in range(k + 1)] == [
        as_fraction(c) for c in expected
    ]


def test_theta_series_exponentiates_to_half_t_over_sinh():
    t = sympy.Symbol("t")
    expansion = sympy.series((t / 2) / sympy.sinh(t / 2), t, 0, 31).removeO()
    expected = [as_fraction(expansion.coeff(t, k)) for k in range(31)]
    assert list(theta_series(30).exp().coeffs) == expected
