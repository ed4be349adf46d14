"""Generalized Bernoulli polynomials: values, identities, asymptotics."""

import math
import random
from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bermoments import (
    TruncatedSeries,
    bernoulli_numbers,
    centered_bernoulli_at_zero,
    centered_bernoulli_poly,
    centered_bernoulli_value,
    cos_scaled_value,
    fourier_partial_sum,
    generalized_bernoulli_value,
    periodize,
    sin_scaled_value,
    theta_series,
    verify_multiplication_formula,
)
from bermoments.bernpoly import _exp_zero_values, _from_zero_values, _zero_values
from bermoments.kernels import _scaled_zero_values
from bermoments.polynomials import MPoly

from helpers import random_fraction

x = MPoly.var("x")
nu = MPoly.var("nu")


def subs_poly(k: int, **kw) -> MPoly:
    return centered_bernoulli_poly(k).subs({name: val for name, val in kw.items()})


class TestGeneration:
    def test_first_values_at_zero(self):
        assert centered_bernoulli_poly(0) == 1
        assert centered_bernoulli_at_zero(2) == -nu / 12
        assert centered_bernoulli_at_zero(4) == nu / 120 + nu**2 / 48
        assert centered_bernoulli_at_zero(6) == -(nu / 252 + nu**2 / 96 + 5 * nu**3 / 576)

    def test_binomial_assembly_matches_bivariate_expansion(self):
        # independent route: expand e^(x t) * exp(nu * theta) with both
        # variables symbolic and read off the factorial-normalized coefficients
        order = 10
        e_x = TruncatedSeries(tuple(x**k / factorial(k) for k in range(order + 1)))
        e_nu = theta_series(order).scale(nu).exp()
        product = e_x * e_nu
        for k in range(order + 1):
            assert product.moment(k) == centered_bernoulli_poly(k)

    def test_value_route_agrees_with_polynomial_route(self):
        rng = random.Random(41)
        for k in range(13):
            for _ in range(3):
                xv, nv = random_fraction(rng), random_fraction(rng)
                assert centered_bernoulli_value(k, xv, nv) == centered_bernoulli_poly(
                    k
                ).eval({"x": xv, "nu": nv})

    @given(
        k=st.integers(0, 80),
        x=st.one_of(st.just(F(0)), st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**30))),
        nu=st.one_of(st.just(F(0)), st.builds(F, st.integers(-40, 40), st.integers(1, 50))),
    )
    # the README's apoly rows at the bits cap, at a small k
    @example(k=9, x=F(1, 2**1021 + 1), nu=F(1, 3))
    @example(k=10, x=F(1, 3), nu=F(1, 2**1021 + 1))
    @settings(max_examples=100, deadline=None)
    def test_integer_value_route_matches_binomial_sum(self, k, x, nu):
        assert centered_bernoulli_value(k, x, nu) == _from_zero_values(k, x, _zero_values(k, nu))

    def test_point_values(self):
        assert centered_bernoulli_value(2, F(1, 2), 3) == 0
        assert centered_bernoulli_value(4, 0, 1) == F(7, 240)
        assert subs_poly(2, nu=3) == (x + F(1, 2)) * (x - F(1, 2))


class TestIdentities:
    def test_nu_zero_collapses_to_powers(self):
        for k in range(13):
            assert subs_poly(k, nu=0) == x**k

    def test_odd_values_at_zero_vanish(self):
        for k in range(7):
            assert centered_bernoulli_at_zero(2 * k + 1) == 0

    def test_sign_law_and_nu_degree_at_zero(self):
        for k in range(1, 9):
            poly = (-1) ** k * centered_bernoulli_at_zero(2 * k)
            assert all(c >= 0 for _, c in poly.terms())
            assert poly.degree("nu") == k

    def test_addition_theorem_at_random_points(self):
        rng = random.Random(42)
        for _ in range(5):
            x1, x2 = random_fraction(rng), random_fraction(rng)
            n1, n2 = random_fraction(rng), random_fraction(rng)
            for k in range(9):
                lhs = centered_bernoulli_value(k, x1 + x2, n1 + n2)
                rhs = sum(
                    comb(k, j)
                    * centered_bernoulli_value(j, x1, n1)
                    * centered_bernoulli_value(k - j, x2, n2)
                    for j in range(k + 1)
                )
                assert lhs == rhs

    def test_parity(self):
        for k in range(13):
            assert subs_poly(k, x=-x) == (-1) ** k * centered_bernoulli_poly(k)

    def test_x_derivative(self):
        for k in range(1, 13):
            assert centered_bernoulli_poly(k).derivative("x") == k * centered_bernoulli_poly(k - 1)

    def test_nu_derivative(self):
        bern = bernoulli_numbers(11)
        for k in range(1, 11):
            expected = MPoly()
            for j in range(1, k // 2 + 1):
                expected = expected + comb(k, 2 * j) * F(-1, 2 * j) * bern[
                    2 * j
                ] * centered_bernoulli_poly(k - 2 * j)
            assert centered_bernoulli_poly(k).derivative("nu") == expected

    def test_difference_identity(self):
        half = F(1, 2)
        for k in range(1, 11):
            lhs = subs_poly(k, x=x + half, nu=nu + 1) - subs_poly(k, x=x - half, nu=nu + 1)
            assert lhs == k * centered_bernoulli_poly(k - 1)

    def test_three_term_relation_at_random_points(self):
        rng = random.Random(43)
        for k in range(1, 11):
            for _ in range(3):
                xv, nv = random_fraction(rng), random_fraction(rng)
                for sign in (1, -1):
                    lhs = nv * centered_bernoulli_value(k, xv + sign * F(1, 2), nv + 1)
                    rhs = (nv - k) * centered_bernoulli_value(k, xv, nv) + k * (
                        xv + sign * nv / 2
                    ) * centered_bernoulli_value(k - 1, xv, nv)
                    assert lhs == rhs

    def test_factorization_at_nu_k_plus_one(self):
        for k in range(9):
            product = MPoly.const(1)
            for j in range(k):
                product = product * (x + F(k - 1, 2) - j)
            assert subs_poly(k, nu=k + 1) == product

    def test_derivative_collapse_for_large_integer_nu(self):
        for k, n in [(2, 4), (3, 5), (2, 6)]:
            target = subs_poly(n - 1, nu=n)
            for _ in range(n - 1 - k):
                target = target.derivative("x")
            # the constant k!/(nu-1)! follows from iterating the x-derivative
            # rule; the reciprocal normalization does not close
            target = F(factorial(k), factorial(n - 1)) * target
            assert subs_poly(k, nu=n) == target


class TestNorlundForm:
    def test_order_one_gives_bernoulli_numbers(self):
        bern = bernoulli_numbers(13)
        for k in range(13):
            assert generalized_bernoulli_value(k, 1, 0) == bern[k]

    def test_order_two_value(self):
        assert generalized_bernoulli_value(2, 2, 0) == F(5, 6)

    def test_falling_factorial_form(self):
        assert generalized_bernoulli_value(3, 4, 0) == -6
        for n in range(1, 6):
            for xv in (F(0), F(1, 2), F(7, 3)):
                product = F(1)
                for j in range(1, n + 1):
                    product *= xv - j
                assert generalized_bernoulli_value(n, n + 1, xv) == product


class TestMultiplicationFormula:
    @pytest.mark.parametrize("k,order", [(4, 2), (6, 3), (2, 2), (5, 3), (7, 2)])
    def test_holds(self, k, order):
        assert verify_multiplication_formula(k, order)

    def test_shifted_variants_hold(self):
        for shift in range(3):
            assert verify_multiplication_formula(6, 3, shift=shift)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_multiplication_formula(2, 3)
        with pytest.raises(ValueError):
            verify_multiplication_formula(4, 0)
        with pytest.raises(ValueError):
            verify_multiplication_formula(4, 2, shift=2)


class TestAsymptotics:
    def test_even_normalization_near_cosine(self):
        assert abs(cos_scaled_value(30, 0, 1) - 1.0) < 0.05
        errs = [abs(cos_scaled_value(k, F(1, 2), 3) + 1.0) for k in (20, 30, 40, 50)]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.2

    def test_odd_normalization_vanishes_at_zero(self):
        for k in (3, 10, 25):
            assert sin_scaled_value(k, 0, 2) == 0.0

    @pytest.mark.parametrize("nu", [F(-1, 2), F(-3, 2)])
    def test_negative_nu_takes_the_sign_of_gamma(self, nu):
        # Gamma(-1/2) < 0 < Gamma(-3/2): the log-domain scaling keeps the sign
        for k, x in ((1, 0), (2, F(1, 3)), (3, F(1, 4))):
            exact = centered_bernoulli_value(2 * k, x, nu)
            plain = (
                (-1) ** k * float(exact) * (2 * math.pi) ** (2 * k) * math.gamma(nu)
                / (2 * factorial(2 * k) * (2 * k) ** (float(nu) - 1))
            )
            assert exact != 0
            assert cos_scaled_value(k, x, nu) == pytest.approx(plain, rel=1e-12)

    def test_nonpositive_integer_nu_rejected(self):
        for bad in (0, -1, -3):
            with pytest.raises(ValueError):
                cos_scaled_value(5, 0, bad)

    def test_odd_normalization_near_sine(self):
        assert abs(sin_scaled_value(30, F(1, 4), 1) - 1.0) < 0.05


class TestFourier:
    def test_odd_series_vanishes_at_zero(self):
        assert fourier_partial_sum(3, 0.0, 100) == 0.0

    def test_matches_exact_polynomial(self):
        exact2 = float(centered_bernoulli_value(2, 0, 1))
        assert abs(fourier_partial_sum(2, 0.0, 10**4) - exact2) < 1e-6
        exact4 = float(centered_bernoulli_value(4, F(1, 4), 1))
        assert abs(fourier_partial_sum(4, 0.25, 10**3) - exact4) < 1e-6

    def test_periodicity_of_target(self):
        # the sum approximates the periodized polynomial, so shifting x by
        # an integer must not change it
        a = fourier_partial_sum(3, 0.3, 500)
        b = fourier_partial_sum(3, 1.3, 500)
        assert abs(a - b) < 1e-9

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fourier_partial_sum(0, 0.0, 10)
        with pytest.raises(ValueError):
            fourier_partial_sum(2, 0.0, 0)


class TestPeriodize:
    def test_exact_reduction(self):
        assert periodize(F(7, 10)) == F(-3, 10)
        assert periodize(F(-7, 10)) == F(3, 10)
        assert periodize(F(5, 2)) == F(1, 2)

    def test_boundary_maps_to_plus_half(self):
        assert periodize(F(1, 2)) == F(1, 2)
        assert periodize(F(-1, 2)) == F(1, 2)
        assert periodize(F(3, 2)) == F(1, 2)

    def test_float_path(self):
        assert abs(periodize(0.7) - (-0.3)) < 1e-12


class TestZeroValues:
    """A_2j(0, nu) from the power recurrence and the even-value exp against TruncatedSeries.exp."""

    @given(
        p=st.one_of(st.just(0), st.integers(-10**30, 10**30)),
        q=st.one_of(st.just(1), st.integers(1, 10**30)),
        order=st.integers(0, 80),
        cut=st.integers(0, 80),
    )
    @example(p=0, q=1, order=80, cut=0)
    @example(p=-3, q=10**30, order=80, cut=41)
    @example(p=10**30 - 1, q=7, order=80, cut=80)
    @settings(max_examples=40, deadline=None)
    def test_power_recurrence_matches_the_exp_route(self, p, q, order, cut):
        # Miller's recurrence for s^(-p/q) gives q^j A_2j(0, p/q), and the exp
        # of nu theta_2j at nu = p/q gives A_2j(0, p/q); a lower order gives a prefix
        numerators, common = _scaled_zero_values(order, p, q)
        table = tuple(F(h, common * 4**j) for j, h in enumerate(numerators))
        assert table == tuple(q**j * a for j, a in enumerate(_exp_zero_values(order, F(p, q))))
        assert len(table) == order // 2 + 1
        low, low_common = _scaled_zero_values(min(cut, order), p, q)
        assert tuple(F(h, low_common * 4**j) for j, h in enumerate(low)) == table[: len(low)]

    @given(
        nu_value=st.fractions(min_value=-4, max_value=4, max_denominator=6),
        order=st.integers(0, 24),
    )
    @settings(max_examples=60, deadline=None)
    def test_rational_nu_matches_series_exp(self, nu_value, order):
        expanded = theta_series(order).scale(nu_value).exp()
        expected = tuple(expanded.moment(two_k) for two_k in range(0, order + 1, 2))
        assert _zero_values(order, nu_value) == expected

    @given(
        nu_value=st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
        order=st.integers(0, 24),
    )
    @settings(max_examples=40, deadline=None)
    def test_large_denominators_match_series_exp(self, nu_value, order):
        # nu = p/q runs as q^j A_2j(0, p/q), divided by q^j at the end
        expanded = theta_series(order).scale(nu_value).exp()
        expected = tuple(expanded.moment(two_k) for two_k in range(0, order + 1, 2))
        assert _zero_values(order, nu_value) == expected

    def test_symbolic_nu_matches_series_exp(self):
        expanded = theta_series(16).scale(nu).exp()
        zeros = _zero_values(16, nu)
        assert zeros == tuple(expanded.moment(two_k) for two_k in range(0, 17, 2))
        assert all(isinstance(z, MPoly) for z in zeros)
        odd = centered_bernoulli_at_zero(5)
        assert odd == 0 and isinstance(odd, MPoly)

    def test_one_table_serves_every_order(self):
        # a table built to one order holds every lower order's table as a
        # prefix, so a caller that reads many orders at one nu builds it once
        value = F(7, 3)
        low = _zero_values(6, value)
        high = _zero_values(31, value)
        assert high[: len(low)] == low and len(low) == 4 and len(high) == 16
        assert _zero_values(11, value) == high[:6]
        symbolic = _zero_values(31, nu)
        assert _zero_values(11, nu) == symbolic[:6]
        assert tuple(z.eval({"nu": value}) for z in symbolic) == high
