"""Chern-number route to manifold moments."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bermoments import (
    ChernData,
    bernoulli_moment_from_chern,
    bernoulli_moments,
    bernoulli_moments_from_chern,
    builtin_chern_data,
    builtin_chi_vector,
    chern_data_genus,
    chern_data_k3,
    chern_data_pn,
    chern_moment_poly,
    moment_from_chern,
    moments_of_chi,
    power_sum_in_elementary,
)
from bermoments import TruncatedSeries, theta_series
from bermoments.chern import _twisted_series, partitions_of
from bermoments.oracles import (
    _as_mpoly,
    d_poly,
    shift_difference_poly,
    todd_factor_poly,
    twisted_todd_poly,
)
from bermoments.bernpoly import centered_bernoulli_at_zero
from bermoments.polynomials import MPoly

nu = MPoly.var("nu")
y1, y2, y3 = (MPoly.var(f"y{i}") for i in (1, 2, 3))

BUILTINS = ["pn:1", "pn:2", "pn:3", "k3", "genus:0", "genus:2", "genus:3"]


# the weight grading of MPoly oracles, where y_i carries weight i
def y_weight(mono) -> int:
    return sum(int(name[1:]) * e for name, e in mono if name.startswith("y"))


def y_weight_degree(poly) -> int:
    return max((y_weight(mono) for mono, _ in poly.terms()), default=0)


def graded_part(poly, weight):
    return MPoly.from_terms((mono, c) for mono, c in poly.terms() if y_weight(mono) == weight)


def weight_truncate(poly, cap):
    return MPoly.from_terms((mono, c) for mono, c in poly.terms() if y_weight(mono) <= cap)


def expansion_as_mpoly(m, t_order, cap, nu_value=nu):
    """_twisted_series as MPoly coefficients, after checking its partition keys."""
    coeffs = []
    for graded in _twisted_series(m, t_order, cap, nu_value):
        for lam in graded:
            assert list(lam) == sorted(lam, reverse=True) and all(1 <= p <= m for p in lam)
            assert sum(lam) <= cap
        coeffs.append(sum((_as_mpoly(graded, w) for w in range(cap + 1)), MPoly()))
    return coeffs


class TestNewtonIdentities:
    def test_first_power_sums(self):
        assert power_sum_in_elementary(1, 3) == y1
        assert power_sum_in_elementary(2, 3) == y1**2 - 2 * y2
        assert power_sum_in_elementary(3, 3) == y1**3 - 3 * y1 * y2 + 3 * y3

    def test_truncated_variable_count(self):
        assert power_sum_in_elementary(2, 1) == y1**2
        assert power_sum_in_elementary(3, 2) == y1**3 - 3 * y1 * y2

    def test_stability_in_m(self):
        for r in range(1, 6):
            assert power_sum_in_elementary(r, r) == power_sum_in_elementary(r, r + 2)

    def test_brute_force_oracle(self):
        # evaluate both sides on explicit variables x = (2, -3, 5)
        xs = (F(2), F(-3), F(5))
        e1 = xs[0] + xs[1] + xs[2]
        e2 = xs[0] * xs[1] + xs[0] * xs[2] + xs[1] * xs[2]
        e3 = xs[0] * xs[1] * xs[2]
        for r in range(1, 7):
            direct = sum(x**r for x in xs)
            assert power_sum_in_elementary(r, 3).eval(
                {"y1": e1, "y2": e2, "y3": e3}
            ) == direct


class TestShiftDifference:
    def test_lowest_case(self):
        assert shift_difference_poly(1, 1, 3) == 2 * y1

    def test_definition_oracle(self):
        # expand sum_i (x_i^2k - (x_i - t)^2k + t^2k) directly in two
        # variables and compare coefficients of t^j
        xs = (F(1, 2), F(-3))
        e1, e2 = xs[0] + xs[1], xs[0] * xs[1]
        from math import comb

        for k in (1, 2, 3):
            # coefficients of t^1..t^(2k-1), computed exactly; the t^2k
            # pieces cancel pairwise and are not compared
            coeffs = [F(0)] * (2 * k + 1)
            for x in xs:
                for j in range(1, 2 * k):
                    coeffs[j] += -comb(2 * k, j) * (-1) ** j * x ** (2 * k - j)
            for j in range(1, 2 * k):
                value = shift_difference_poly(k, j, 2).eval({"y1": e1, "y2": e2})
                assert value == coeffs[j]

    def test_quasihomogeneity_and_stability(self):
        for k, j in [(2, 1), (2, 2), (3, 2), (3, 4)]:
            poly = shift_difference_poly(k, j, 2 * k - j)
            assert y_weight_degree(poly) == 2 * k - j
            assert all(
                sum(int(name[1:]) * e for name, e in mono) == 2 * k - j
                for mono, _ in poly.terms()
            )
            assert poly == shift_difference_poly(k, j, 2 * k - j + 3)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            shift_difference_poly(2, 0, 2)
        with pytest.raises(ValueError):
            shift_difference_poly(2, 4, 2)


class TestToddFactors:
    def test_twisted_at_zero_weight_is_centered_value(self):
        for m in (1, 2, 3):
            for k in range(7):
                expected = centered_bernoulli_at_zero(k).subs({"nu": -1 * nu}) / factorial(k)
                assert twisted_todd_poly(k, 0, m) == expected

    def test_twist_vanishes_at_order_zero(self):
        for l in (1, 2, 3):
            assert twisted_todd_poly(0, l, 3) == MPoly()

    def test_twisted_is_convolution_of_plain_factors(self):
        for m in (1, 2, 3):
            for k in range(1, 5):
                for l in range(1, m + 1):
                    expected = MPoly()
                    for j in range(k):
                        a_j = centered_bernoulli_at_zero(j).subs({"nu": -1 * nu})
                        expected = expected + a_j / factorial(j) * todd_factor_poly(k - j, l, m)
                    assert twisted_todd_poly(k, l, m) == expected

    def test_nu_degree_bounds(self):
        for k in range(1, 7):
            assert twisted_todd_poly(2 * k, 0, 1).degree("nu") == k
            for l in (1, 2):
                assert twisted_todd_poly(k, l, 2).degree("nu") <= (k - 1) // 2

    def test_stability_in_m(self):
        for k in range(1, 5):
            for l in (1, 2):
                for m in (2, 3):
                    assert todd_factor_poly(k, l, m) == todd_factor_poly(k, l, m + 1)
                    assert twisted_todd_poly(k, l, m) == twisted_todd_poly(k, l, m + 1)
        for k in range(2, 5):
            for j in range(1, min(2, k - 1) + 1):
                assert d_poly(k, j, j) == d_poly(k, j, j + 1) == d_poly(k, j, j + 2)


def exp_then_truncate(m, t_order, cap):
    """The expansion without early truncation: exp(exponent), truncated, times exp(-nu theta)."""
    theta = theta_series(t_order + cap)
    exponent = [MPoly() for _ in range(t_order + 1)]
    for kp in range(1, (t_order + cap) // 2 + 1):
        for j in range(max(1, 2 * kp - cap), min(2 * kp - 1, t_order) + 1):
            exponent[j] = exponent[j] + theta.coeff(2 * kp) * shift_difference_poly(kp, j, m)
    todd = TruncatedSeries(
        tuple(weight_truncate(MPoly() + c, cap) for c in TruncatedSeries(tuple(exponent)).exp().coeffs)
    )
    product = todd * theta_series(t_order).scale(-1 * nu).exp()
    return [weight_truncate(MPoly() + c, cap) for c in product.coeffs]


class TestGradedExpansion:
    def test_early_truncation_matches_full_expansion(self):
        for m in (1, 2, 3):
            for cap in (0, 1, 2, 3):
                for t_order in range(7):
                    expected = exp_then_truncate(m, t_order, cap)
                    assert expansion_as_mpoly(m, t_order, cap) == expected
                    for value in (F(0), F(5, 2), F(-7, 3)):
                        at_value = [c.subs({"nu": value}) for c in expected]
                        assert expansion_as_mpoly(m, t_order, cap, value) == at_value


def integrate_by_definition(poly, data, j):
    """Pair each monomial y_i1..y_ir with the Chern number of (i1..ir, n - j)."""
    total = F(0)
    for mono, coeff in poly.terms():
        partition = [int(name[1:]) for name, e in mono for _ in range(e)]
        total += coeff * data.number(partition + ([data.n - j] if j < data.n else []))
    return total


def chern_data_st():
    def numbers(n):
        parts = partitions_of(n)
        values = st.lists(st.integers(-50, 50), min_size=len(parts), max_size=len(parts))
        return values.map(lambda vs: ChernData(n, dict(zip(parts, vs))))

    return st.integers(1, 3).flatmap(numbers)


@given(
    data=chern_data_st(),
    nu_value=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    k=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_bernoulli_moment_matches_symbolic_polynomials(data, nu_value, k):
    # arbitrary integer Chern numbers need not come from a manifold, so the
    # chi route cannot check these; the symbolic q_kj can
    expected = F(0)
    for j in range(min(2 * k - 1, data.n) + 1):
        q = chern_moment_poly(k, j).subs({"nu": data.n - nu_value})
        expected += integrate_by_definition(q, data, j)
    assert bernoulli_moment_from_chern(data, nu_value, k) == expected


def moment_from_own_expansion(data, nu_value, k):
    """Gamma_2k read from an expansion carried to t^2k for this k alone."""
    if k == 0:
        return data.number((data.n,))
    series = _twisted_series(data.n, 2 * k, data.n, data.n - nu_value)
    total = F(0)
    for j in range(min(2 * k - 1, data.n) + 1):
        part = _as_mpoly(series[2 * k - j], j)
        total += (-1) ** j * integrate_by_definition(part, data, j)
    return factorial(2 * k) * total


class TestAllKReader:
    @given(
        data=chern_data_st(),
        nu_value=st.fractions(min_value=-3, max_value=3, max_denominator=4),
        kmax=st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_expansion_serves_every_k(self, data, nu_value, kmax):
        expected = [moment_from_own_expansion(data, nu_value, k) for k in range(kmax + 1)]
        assert bernoulli_moments_from_chern(data, nu_value, kmax) == expected
        assert bernoulli_moment_from_chern(data, nu_value, kmax) == expected[-1]

    def test_builtins_match_chi_route(self):
        for spec in BUILTINS + ["pn:4"]:
            data = builtin_chern_data(spec)
            gamma = bernoulli_moments(moments_of_chi(builtin_chi_vector(spec), 12), F(1, 2))
            expected = [gamma.moment(2 * k) for k in range(7)]
            assert bernoulli_moments_from_chern(data, F(1, 2), 6) == expected

    def test_negative_kmax_is_refused(self):
        with pytest.raises(ValueError, match="kmax"):
            bernoulli_moments_from_chern(chern_data_k3(), 1, -1)


class TestBookkeepingProduct:
    def test_degree_m_part_of_product(self):
        # multiplying the twisted series by sum_i y_(m-i) (-t)^i and taking
        # the weight-m part must reproduce y_m plus the d-polynomials
        t_order = 4
        for m in (1, 2, 3):
            c_series = TruncatedSeries(tuple(expansion_as_mpoly(m, t_order, m)))
            y_coeffs = []
            for i in range(t_order + 1):
                if i == m:
                    y_coeffs.append(MPoly.const((-1) ** i))
                elif i < m:
                    y_coeffs.append((-1) ** i * MPoly.var(f"y{m - i}"))
                else:
                    y_coeffs.append(MPoly())
            last_factor = TruncatedSeries(tuple(y_coeffs))
            product = c_series * last_factor
            assert graded_part(MPoly() + product.coeff(0), m) == MPoly.var(f"y{m}")
            for k in range(1, t_order + 1):
                expected = MPoly()
                for j in range(0, min(k - 1, m) + 1):
                    y_factor = MPoly.var(f"y{m - j}") if m - j >= 1 else MPoly.const(1)
                    expected = expected + y_factor * d_poly(k, j, m)
                expected = expected / factorial(k)
                assert graded_part(MPoly() + product.coeff(k), m) == expected


class TestUniversalPolynomials:
    def test_order_one(self):
        assert chern_moment_poly(1, 0) == nu / 12
        assert chern_moment_poly(1, 1) == y1 / 6

    def test_order_two(self):
        assert chern_moment_poly(2, 0) == nu**2 / 48 - nu / 120
        assert chern_moment_poly(2, 1) == (nu / 12 - F(1, 30)) * y1
        assert chern_moment_poly(2, 2) == y2 / 10 + y1**2 / 30
        assert chern_moment_poly(2, 3) == y1 * y2 / 10 - y3 / 10 - y1**3 / 30

    def test_quasihomogeneity(self):
        for k in (1, 2, 3):
            for j in range(0, 2 * k):
                poly = chern_moment_poly(k, j)
                for mono, _ in poly.terms():
                    weight = sum(int(n[1:]) * e for n, e in mono if n.startswith("y"))
                    assert weight == j

    def test_nu_degree_bounds(self):
        for k in (1, 2, 3):
            assert chern_moment_poly(k, 0).degree("nu") == k
            for j in range(1, 2 * k):
                assert chern_moment_poly(k, j).degree("nu") <= k - 1 - j // 2

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            chern_moment_poly(1, 2)
        with pytest.raises(ValueError):
            chern_moment_poly(0, 0)


class TestChernData:
    def test_partitions(self):
        assert set(partitions_of(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}

    def test_projective_space_numbers(self):
        data = chern_data_pn(3)
        assert data.number((3,)) == 4
        assert data.number((2, 1)) == 24
        assert data.number((1, 1, 1)) == 64

    def test_k3_and_curves(self):
        assert chern_data_k3().number((2,)) == 24
        assert chern_data_k3().number((1, 1)) == 0
        assert chern_data_genus(0).number((1,)) == 2
        assert chern_data_genus(3).number((1,)) == -4

    def test_partition_keys_validated(self):
        with pytest.raises(ValueError):
            ChernData(2, {(3,): F(1)})
        with pytest.raises(KeyError):
            chern_data_k3().number((1,))

    def test_text_format(self):
        # the Chern-number file of the README
        data = ChernData.from_text("n 2\npartition 2 value 3\npartition 1,1 value 9\n")
        assert data.n == 2 and data.numbers == chern_data_pn(2).numbers
        with pytest.raises(ValueError, match="unrecognized Chern file line"):
            ChernData.from_text("n 2\npartition 2 3\n")

    @pytest.mark.parametrize("first, second", [("2", "2"), ("1,2", "2,1"), ("1,1,2", "1,2,1")])
    def test_text_format_refuses_a_repeated_partition(self, first, second):
        # a second value for a partition would silently replace the first
        n = sum(int(p) for p in first.split(","))
        text = f"n {n}\npartition {first} value 3\npartition {second} value 24\n"
        with pytest.raises(ValueError, match=f"partition {second} repeats"):
            ChernData.from_text(text)

    def test_builtin_dispatch(self):
        assert builtin_chern_data("pn:2").number((1, 1)) == 9
        assert builtin_chi_vector("k3").chi == (2, 20, 2)
        with pytest.raises(ValueError):
            builtin_chern_data("torus")
        with pytest.raises(ValueError, match="k3"):
            builtin_chern_data("k3:5")

    @pytest.mark.parametrize("builder", [builtin_chern_data, builtin_chi_vector])
    def test_negative_genus_is_refused(self, builder):
        with pytest.raises(ValueError, match="genus must be >= 0"):
            builder("genus:-3")

    def test_negative_genus_is_refused_by_the_library(self):
        # no curve of genus -3 exists, so it has no moments to return
        with pytest.raises(ValueError, match="genus must be >= 0"):
            chern_data_genus(-3)
        assert bernoulli_moments_from_chern(chern_data_genus(0), 1, 2) == [2, F(1, 3), F(-1, 15)]


class TestManifoldValues:
    def test_projective_plane_variance(self):
        assert moment_from_chern(chern_data_pn(2), 1) == 2

    def test_k3_variance(self):
        assert moment_from_chern(chern_data_k3(), 1) == 4

    def test_euler_number_is_zeroth_moment(self):
        for spec in BUILTINS:
            data = builtin_chern_data(spec)
            chi = builtin_chi_vector(spec)
            assert moment_from_chern(data, 0) == sum(chi.chi)

    def test_moments_match_chi_route(self):
        for spec in BUILTINS:
            data = builtin_chern_data(spec)
            v = moments_of_chi(builtin_chi_vector(spec), 8)
            for k in range(4):
                assert moment_from_chern(data, k) == v.moment(2 * k)

    def test_bernoulli_moments_match_chi_route_at_dimension(self):
        for spec in BUILTINS + ["pn:4", "pn:5"]:
            data = builtin_chern_data(spec)
            v = moments_of_chi(builtin_chi_vector(spec), 8)
            gamma = bernoulli_moments(v, data.n)
            for k in range(4):
                assert bernoulli_moment_from_chern(data, data.n, k) == gamma.moment(2 * k)

    def test_zero_parameter_collapses_to_plain_moments(self):
        for spec in ("pn:3", "k3"):
            data = builtin_chern_data(spec)
            for k in range(4):
                assert bernoulli_moment_from_chern(data, 0, k) == moment_from_chern(data, k)

    def test_k3_first_bernoulli_moment_vanishes(self):
        assert bernoulli_moment_from_chern(chern_data_k3(), 2, 1) == 0

    def test_projective_line_value(self):
        assert bernoulli_moment_from_chern(chern_data_pn(1), 1, 1) == F(1, 3)

    def test_missing_chern_number_is_reported(self):
        incomplete = ChernData(2, {(2,): F(24)})
        with pytest.raises(KeyError, match="partition"):
            moment_from_chern(incomplete, 1)
