"""Series engine, Bernoulli numbers, and the theta series."""

import importlib
import pkgutil
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bermoments
from bermoments import (
    TruncatedSeries,
    bernoulli_numbers,
    exp_linear,
    sinhc_half,
    theta_series,
)
from bermoments.polynomials import MPoly
from bermoments.series import _dot, _even_exp, _even_mul, _even_series, _theta_values

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series_st(order: int, constant=None):
    inner = st.lists(fractions_st, min_size=order + 1, max_size=order + 1)
    if constant is None:
        return inner.map(lambda cs: TruncatedSeries(tuple(cs)))
    return inner.map(lambda cs: TruncatedSeries((F(constant),) + tuple(cs[1:])))


class TestArithmetic:
    def test_add_cancellation(self):
        a = TruncatedSeries.from_coeffs([1, 1], order=4)
        b = TruncatedSeries.from_coeffs([1, -1], order=4)
        assert a + b == TruncatedSeries.from_coeffs([2], order=4)

    def test_add_identity(self):
        a = TruncatedSeries.from_coeffs([F(2, 3), 5, F(-1, 7)], order=5)
        assert a + TruncatedSeries.zero(5) == a

    def test_add_exact_fractions(self):
        a = TruncatedSeries.from_coeffs([0, 0, F(1, 2)], order=2)
        b = TruncatedSeries.from_coeffs([0, 0, F(1, 3)], order=2)
        assert (a + b).coeff(2) == F(5, 6)

    def test_mul_difference_of_squares(self):
        a = TruncatedSeries.from_coeffs([1, 1], order=2)
        b = TruncatedSeries.from_coeffs([1, -1], order=2)
        assert a * b == TruncatedSeries.from_coeffs([1, 0, -1], order=2)

    def test_scalar_times_series_from_both_sides(self):
        a = TruncatedSeries.from_coeffs([1, F(-1, 2), 3], order=3)
        expected = TruncatedSeries.from_coeffs([F(2, 3), F(-1, 3), 2], order=3)
        assert a * F(2, 3) == expected
        assert F(2, 3) * a == expected
        assert 2 * a == a * 2 == a + a

    def test_mul_identity(self):
        a = TruncatedSeries.from_coeffs([F(3, 5), 0, 7, F(2, 9)], order=6)
        assert a * TruncatedSeries.one(6) == a

    def test_mul_exp_inverses(self):
        for order in (3, 6, 11):
            assert exp_linear(1, order) * exp_linear(-1, order) == TruncatedSeries.one(order)

    def test_order_mismatch_is_an_error(self):
        a = TruncatedSeries.zero(3)
        b = TruncatedSeries.zero(4)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            TruncatedSeries((0.5, 1))

    @given(a=series_st(6), b=series_st(6), c=series_st(6))
    @settings(max_examples=40, deadline=None)
    def test_mul_commutative_associative(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    def test_moment_is_factorial_normalized(self):
        s = TruncatedSeries.from_coeffs([1, F(1, 2), F(1, 6)], order=2)
        assert s.moment(2) == F(1, 3)


class TestExpLog:
    def test_exp_of_zero(self):
        assert TruncatedSeries.zero(5).exp() == TruncatedSeries.one(5)

    def test_exp_of_t_gives_inverse_factorials(self):
        t = TruncatedSeries.from_coeffs([0, 1], order=8)
        assert t.exp() == exp_linear(1, 8)

    def test_exp_log_inverse_pair(self):
        one_plus_t = TruncatedSeries.from_coeffs([1, 1], order=8)
        assert one_plus_t.log().exp() == one_plus_t
        t_sq = TruncatedSeries.from_coeffs([0, 0, 1], order=8)
        assert t_sq.exp().log() == t_sq

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(4).exp()

    def test_log_requires_unit_constant(self):
        with pytest.raises(ValueError):
            TruncatedSeries.zero(4).log()

    @given(s=series_st(8, constant=0))
    @settings(max_examples=40, deadline=None)
    def test_log_of_exp_roundtrip(self, s):
        assert s.exp().log() == s

    @given(s=series_st(8, constant=1))
    @settings(max_examples=40, deadline=None)
    def test_exp_of_log_roundtrip(self, s):
        assert s.log().exp() == s


class TestScaleArg:
    def test_scale_by_one_is_identity(self):
        s = TruncatedSeries.from_coeffs([3, F(1, 5), 2], order=4)
        assert s.scale_arg(1) == s

    def test_scale_by_zero_keeps_constant_only(self):
        s = TruncatedSeries.from_coeffs([3, F(1, 5), 2], order=4)
        assert s.scale_arg(0) == TruncatedSeries.from_coeffs([3], order=4)

    def test_scale_exp_argument(self):
        assert exp_linear(1, 6).scale_arg(2) == exp_linear(2, 6)
        assert exp_linear(1, 6).scale_arg(2).coeff(2) == 2


class TestExpLinear:
    def test_zero_argument(self):
        assert exp_linear(0, 5) == TruncatedSeries.one(5)

    def test_sixth_squared_over_two(self):
        assert exp_linear(F(1, 6), 4).coeff(2) == F(1, 72)

    def test_inverse_product_at_every_order(self):
        for order in range(1, 12):
            product = exp_linear(F(-1, 2), order) * exp_linear(F(1, 2), order)
            assert product == TruncatedSeries.one(order)


class TestBernoulli:
    def test_small_values(self):
        b = bernoulli_numbers(4)
        assert b == [F(1), F(-1, 2), F(1, 6), F(0)]

    def test_even_table(self):
        b = bernoulli_numbers(17)
        expected = [
            F(1, 6), F(-1, 30), F(1, 42), F(-1, 30),
            F(5, 66), F(-691, 2730), F(7, 6), F(-3617, 510),
        ]
        assert [b[2 * k] for k in range(1, 9)] == expected

    def test_odd_values_vanish(self):
        b = bernoulli_numbers(21)
        assert all(b[2 * k + 1] == 0 for k in range(1, 10))

    def test_binomial_recursion_holds_exactly(self):
        count = 25
        b = bernoulli_numbers(count)
        for k in range(2, count):
            assert sum(comb(k, j) * b[j] for j in range(k)) == 0

    def test_sign_law(self):
        b = bernoulli_numbers(41)
        for k in range(1, 21):
            assert b[2 * k] * (-1) ** (k - 1) > 0

    def test_against_generating_function(self):
        # independent oracle: k! times the coefficients of t/(e^t - 1),
        # computed as exp(-log((e^t - 1)/t))
        order = 16
        egf = TruncatedSeries.from_coeffs(
            [F(1, __import__("math").factorial(k + 1)) for k in range(order + 1)]
        )
        inverse = egf.log().scale(-1).exp()
        assert bernoulli_numbers(order + 1) == [inverse.moment(k) for k in range(order + 1)]

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            bernoulli_numbers(0)


class TestTheta:
    def test_even_with_zero_constant(self):
        th = theta_series(9)
        assert th.coeff(0) == 0
        assert all(th.coeff(k) == 0 for k in range(1, 10, 2))

    def test_leading_coefficients(self):
        th = theta_series(4)
        assert th.coeff(2) == F(-1, 24)
        assert th.coeff(4) == F(1, 2880)

    def test_moments_are_scaled_bernoulli(self):
        th = theta_series(20)
        b = bernoulli_numbers(21)
        for k in range(1, 11):
            assert th.moment(2 * k) == F(-1, 2 * k) * b[2 * k]

    def test_is_minus_log_of_sinhc(self):
        # cross-check against the independent closed coefficients of
        # sinh(t/2)/(t/2)
        order = 14
        assert theta_series(order) == sinhc_half(order).log().scale(-1)
        assert sinhc_half(order).coeff(2) == F(1, 24)


def even_values_st(count: int, constant=None):
    """Factorial-normalized even values with small numerators and denominators."""
    value = st.fractions(min_value=-50, max_value=50, max_denominator=720)
    values = st.lists(value, min_size=count, max_size=count)
    if constant is None:
        return values
    return values.map(lambda vs: [F(constant)] + vs[1:])


def as_values(series: TruncatedSeries) -> tuple:
    return tuple(series.moment(two_k) for two_k in range(0, series.order + 1, 2))


class TestEvenKernel:
    """The even-value kernel against TruncatedSeries arithmetic, its oracle."""

    @given(a=even_values_st(9), b=even_values_st(9))
    @settings(max_examples=40, deadline=None)
    def test_mul_matches_series_mul(self, a, b):
        assert _even_mul(a, b) == as_values(_even_series(a, 16) * _even_series(b, 16))

    @given(s=even_values_st(9, constant=0))
    @settings(max_examples=40, deadline=None)
    def test_exp_matches_series_exp(self, s):
        assert _even_exp(s) == as_values(_even_series(s, 17).exp())

    @given(s=even_values_st(9, constant=0), cut=st.integers(1, 9))
    @settings(max_examples=20, deadline=None)
    def test_exp_extends_a_prefix(self, s, cut):
        assert _even_exp(s)[:cut] == _even_exp(s[:cut])

    def test_symbolic_values_are_summed_term_by_term(self):
        y = MPoly.var("y")
        s = [0 * y, y, F(1, 3) * y]
        assert _even_exp(s) == as_values(_even_series(s, 4).exp())
        assert _dot([2, 3], [y, F(1, 2)], [F(1, 4), y]) == 2 * y

    def test_rational_sum_is_reduced(self):
        total = _dot([1, 1, 6], [F(1, 6), F(1, 3), F(1, 4)], [1, F(1, 2), F(1, 3)])
        assert total == F(1, 6) + F(1, 6) + F(1, 2) and total.denominator == 6


def binomial_recursion_bernoulli(count: int) -> list:
    """B_0 .. B_{count-1} from 0 = sum_{j<=m} C(m+1, j) B_j, over the even j only."""
    table = [F(1), F(-1, 2)]
    for m in range(2, count):
        if m % 2:
            table.append(F(0))
        else:
            terms = sum(comb(m + 1, j) * table[j] for j in range(2, m, 2))
            table.append(-(terms + 1 - F(m + 1, 2)) / (m + 1))
    return table[:count]


class TestBernoulliTable:
    """The tangent-number table against the binomial recursion, its oracle."""

    def test_matches_the_binomial_recursion(self):
        assert bernoulli_numbers(513) == binomial_recursion_bernoulli(513)

    def test_theta_values_are_minus_b2k_over_2k(self):
        bern = binomial_recursion_bernoulli(513)
        assert _theta_values(257) == (F(0),) + tuple(-bern[2 * k] / (2 * k) for k in range(1, 257))


def test_every_cache_is_bounded():
    cached = []
    for info in pkgutil.iter_modules(bermoments.__path__):
        module = importlib.import_module(f"bermoments.{info.name}")
        cached += [fn for fn in vars(module).values() if hasattr(fn, "cache_parameters")]
    # only the partition memos of the Chern expansion are hit by repeated
    # calls; a new cache is a deliberate change of this list
    names = sorted((fn.__module__, fn.__qualname__) for fn in cached)
    assert names == [("bermoments.chern", "_merge"), ("bermoments.chern", "_power_sum")]
    for fn in cached:
        assert fn.cache_parameters()["maxsize"] is not None, fn.__qualname__
