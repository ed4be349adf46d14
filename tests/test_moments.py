"""Moment series, Bernoulli-moment transforms, and closed product forms."""

import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bermoments import (
    ChiVector,
    MomentSeries,
    PuiseuxData,
    TruncatedSeries,
    WeightSystem,
    abstract_spectrum,
    bernoulli_moment_direct,
    bernoulli_moments,
    bernoulli_numbers,
    exp_linear,
    gamma_genus_closed,
    gamma_k3_closed,
    gamma_pn_closed,
    gamma_qh_product_nplus1,
    gamma_qh_product_spread,
    gamma_tpqr_closed,
    generalized_bernoulli_value,
    moments_of_chi,
    moments_of_spectrum,
    moments_qh_product,
    q_exponent_poly,
    q_factor_series,
    sinhc_half,
    spectrum_curve,
    spectrum_from_weights,
    spectrum_tpqr,
    theta_series,
    thom_sebastiani,
    TpqrParams,
)
from bermoments.bernpoly import _zero_values
from bermoments.moments import _power_sums, _qh_gamma, gamma_of
from bermoments.polynomials import MPoly
from bermoments.kernels import _even_mul

from helpers import FIXED_SYSTEMS, lagrange_value, random_brieskorn_weights, random_fraction

CUSP = WeightSystem((F(1, 3), F(1, 2)))


def even_moment_series(rng: random.Random, order: int) -> MomentSeries:
    coeffs = [F(0)] * (order + 1)
    coeffs[0] = F(rng.randint(1, 9))
    for two_k in range(2, order + 1, 2):
        coeffs[two_k] = random_fraction(rng) / factorial(two_k)
    return MomentSeries.from_series(TruncatedSeries(tuple(coeffs)))


class TestMomentSeries:
    def test_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            MomentSeries.from_series(TruncatedSeries.from_coeffs([1, 1], order=4))

    def test_repr_round_trips_through_the_constructor(self):
        # MomentSeries(values, order, nu) is the record constructor, so a
        # raw series and a transformed one rebuild from their repr
        v = moments_of_spectrum(spectrum_tpqr(TpqrParams(2, 3, 7)), 8)
        for series in (v, bernoulli_moments(v, F(5, 3))):
            assert eval(repr(series), {"MomentSeries": MomentSeries, "Fraction": F}) == series
            assert MomentSeries.from_series(series.series, series.nu) == series

    def test_transform_needs_raw_input(self):
        v = MomentSeries.from_series(TruncatedSeries.one(4))
        gamma = bernoulli_moments(v, 2)
        with pytest.raises(ValueError, match="raw"):
            bernoulli_moments(gamma, 1)

    def test_product_combines_parameters(self):
        v = MomentSeries.from_series(TruncatedSeries.one(4))
        a = bernoulli_moments(v, F(1, 2))
        b = bernoulli_moments(v, F(3, 2))
        assert (a * b).nu == 2
        assert (v * v).nu is None


class TestSpectrumMoments:
    def test_cusp_values(self):
        v = moments_of_spectrum(spectrum_from_weights(CUSP), 10)
        assert v.moment(0) == 2
        assert v.moment(2) == F(1, 18)
        assert v.moment(4) == F(1, 648)

    def test_node_is_constant(self):
        v = moments_of_spectrum(spectrum_from_weights(WeightSystem((F(1, 2),))), 8)
        assert v.series == TruncatedSeries.one(8)

    def test_even_for_symmetric_spectra(self):
        rng = random.Random(3)
        for _ in range(5):
            ws = random_brieskorn_weights(rng, rng.randint(1, 3))
            assert moments_of_spectrum(spectrum_from_weights(ws), 11).series.is_even()


class TestBernoulliMoments:
    def test_cusp_spread_variance_vanishes(self):
        v = moments_of_spectrum(spectrum_from_weights(CUSP), 10)
        assert bernoulli_moments(v, F(1, 3)).moment(2) == 0

    def test_cusp_at_dimension_parameter(self):
        v = moments_of_spectrum(spectrum_from_weights(CUSP), 10)
        assert bernoulli_moments(v, 2).moment(2) == F(-5, 18)

    def test_zero_parameter_is_identity(self):
        rng = random.Random(5)
        v = even_moment_series(rng, 12)
        assert bernoulli_moments(v, 0).series == v.series

    def test_explicit_low_order_formulas(self):
        # Gamma_0..Gamma_6 as polynomials in nu, recovered by interpolation
        rng = random.Random(6)
        v = even_moment_series(rng, 6)
        v0, v2, v4, v6 = (v.moment(k) for k in (0, 2, 4, 6))

        def explicit(k: int, n: F) -> F:
            if k == 0:
                return v0
            if k == 1:
                return v2 - v0 * n / 12
            if k == 2:
                return v4 - v2 * n / 2 + v0 * (n / 120 + n**2 / 48)
            return (
                v6
                - v4 * F(5, 4) * n
                + v2 * (n / 8 + 5 * n**2 / 16)
                - v0 * (n / 252 + n**2 / 96 + 5 * n**3 / 576)
            )

        grid = [F(0), F(1), F(2), F(3)]
        samples = {n: bernoulli_moments(v, n) for n in grid}
        for nu in (F(7, 3), F(-1, 2), F(12, 7)):
            direct = bernoulli_moments(v, nu)
            for k in range(4):
                interpolated = lagrange_value(
                    [(n, samples[n].moment(2 * k)) for n in grid], nu
                )
                assert interpolated == direct.moment(2 * k) == explicit(k, nu)

    def test_direct_summation_route(self):
        rng = random.Random(7)
        for _ in range(4):
            ws = random_brieskorn_weights(rng, rng.randint(1, 3))
            s = spectrum_from_weights(ws)
            nu = random_fraction(rng)
            gamma = bernoulli_moments(moments_of_spectrum(s, 10), nu)
            for k in range(6):
                assert bernoulli_moment_direct(s, nu, k) == gamma.moment(2 * k)

    def test_abstract_spectrum_value(self):
        ex = abstract_spectrum(2, ((0, 3), (F(1, 2), 6), (1, 3)))
        assert bernoulli_moment_direct(ex, 3, 1) == F(-3, 2)

    @given(
        data=st.data(),
        nu1=st.fractions(min_value=-3, max_value=3, max_denominator=4),
        nu2=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_multiplicativity(self, data, nu1, nu2):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        a = even_moment_series(rng, 16)
        b = even_moment_series(rng, 16)
        lhs = bernoulli_moments(a * b, nu1 + nu2)
        rhs = bernoulli_moments(a, nu1) * bernoulli_moments(b, nu2)
        assert lhs.series == rhs.series and lhs.nu == rhs.nu

    def test_sinh_quotient_recovers_raw_series(self):
        for ws in (CUSP, WeightSystem((F(1, 4), F(1, 3), F(1, 2)))):
            s = spectrum_from_weights(ws)
            v = moments_of_spectrum(s, 12)
            gamma = bernoulli_moments(v, s.n + 1)
            assert gamma.series * sinhc_half(12) ** (s.n + 1) == v.series

    def test_nu_monotonicity_of_sign_window(self):
        rng = random.Random(8)
        k0 = 6
        for _ in range(6):
            ws = random_brieskorn_weights(rng, rng.randint(1, 3))
            v = moments_of_spectrum(spectrum_from_weights(ws), 2 * k0)
            grid = [F(i, 4) for i in range(0, 24, 3)]
            passed = [
                all(
                    (-1) ** k * bernoulli_moments(v, nu).moment(2 * k) >= 0
                    for k in range(k0 + 1)
                )
                for nu in grid
            ]
            first = passed.index(True) if True in passed else len(passed)
            assert all(passed[first:])


class TestQuasihomogeneousClosedForms:
    def test_moment_factor_examples(self):
        # k = 0 factor for w = 1/3 is 2*B_1(3/2) = 2
        series = moments_qh_product(WeightSystem((F(1, 3),)), 6)
        assert series.moment(0) == 2
        # a single half weight collapses to the constant series
        assert moments_qh_product(WeightSystem((F(1, 2),)), 8).series == TruncatedSeries.one(8)
        with pytest.raises(ValueError, match="order"):
            moments_qh_product(WeightSystem((F(1, 3),)), -1)

    def test_weight_factor_is_an_odd_bernoulli_value(self):
        # the paper's factor of one weight: w^2k * 2/(2k+1) * B_(2k+1)(1/(2w))
        for w in (F(1, 2), F(1, 3), F(2, 5), F(4, 15), F(1, 7)):
            values = moments_qh_product(WeightSystem((w,)), 30).values
            for k, value in enumerate(values):
                odd = generalized_bernoulli_value(2 * k + 1, 1, 1 / (2 * w))
                assert value == w ** (2 * k) * F(2, 2 * k + 1) * odd

    def test_matches_spectrum_route(self):
        for ws in FIXED_SYSTEMS:
            direct = moments_of_spectrum(spectrum_from_weights(ws), 20)
            closed = moments_qh_product(ws, 20)
            assert closed.series == direct.series

    @given(
        counts=st.dictionaries(st.integers(2, 7), st.integers(1, 9), min_size=1, max_size=3),
        block=st.sampled_from([(), (F(4, 15), F(1, 5)), (F(2, 5), F(1, 5))]),
        order=st.integers(0, 60),
    )
    @settings(max_examples=50, deadline=None)
    def test_repeated_weights_match_spectrum_route(self, counts, block, order):
        # each unit weight 1/m repeated 1-9 times, joined with a non-unit block
        ws = WeightSystem(tuple(F(1, m) for m, count in counts.items() for _ in range(count)) + block)
        assert moments_qh_product(ws, order) == moments_of_spectrum(spectrum_from_weights(ws), order)

    def test_gamma_product_at_dimension_plus_one(self):
        for ws in FIXED_SYSTEMS:
            v = moments_of_spectrum(spectrum_from_weights(ws), 20)
            closed = gamma_qh_product_nplus1(ws, 20)
            assert closed.series == bernoulli_moments(v, ws.n + 1).series
            assert closed.nu == len(ws.weights)

    def test_gamma_factor_signs(self):
        from bermoments.oracles import gamma_weight_factor

        for w in (F(1, 2), F(1, 3), F(2, 5)):
            factor = gamma_weight_factor(w, 16)
            for k in range(0, 9):
                assert (-1) ** k * factor.moment(2 * k) > 0

    def test_gamma_product_at_spread(self):
        for ws in FIXED_SYSTEMS:
            s = spectrum_from_weights(ws)
            v = moments_of_spectrum(s, 20)
            closed = gamma_qh_product_spread(ws, 20)
            assert closed.series == bernoulli_moments(v, s.spread).series
            assert closed.moment(2) == 0

    def test_quartic_and_sextic_sums(self):
        for ws in FIXED_SYSTEMS:
            closed = gamma_qh_product_spread(ws, 8)
            mu = ws.mu
            quartic = mu / 30 * sum((F(1, 2) - w) * w * (1 - w) for w in ws.weights)
            sextic = (
                mu
                / 42
                * sum(
                    (F(1, 2) - w) * w * (1 - w) * (w * (1 - w) - F(4, 3))
                    for w in ws.weights
                )
            )
            assert closed.moment(4) == quartic
            assert closed.moment(6) == sextic


class TestCurveBlockOracle:
    """V of a plane curve branch as the signed Eisenbud-Neumann sum of block products.

    Each term multiplies the moment series of the geometric blocks 1/m1 and
    1/m2, so the curve's moments come without its spectrum.
    """

    @staticmethod
    def terms(data: PuiseuxData) -> list:
        w, np = (None,) + data.w, data.nprime
        terms = [(1, np[0], w[1] * np[1])]
        for k in range(1, data.g):
            terms += [(1, w[k + 1] * np[k + 1], np[k]), (-1, w[k] * np[k - 1], np[k])]
        return terms

    @pytest.mark.parametrize(
        "pairs",
        [((2, 3), (2, 7)), ((2, 5), (2, 23)), ((3, 7), (2, 43)), ((2, 3), (3, 19), (2, 115))],
    )
    def test_signed_block_products_match_the_spectrum(self, pairs):
        data, order = PuiseuxData(pairs), 24

        def block(m):
            return moments_qh_product(WeightSystem((F(1, m),)), order).values

        total = [F(0)] * (order // 2 + 1)
        for sign, m1, m2 in self.terms(data):
            for i, value in enumerate(_even_mul(block(m1), block(m2))):
                total[i] += sign * value
        s = spectrum_curve(data)
        assert tuple(total) == moments_of_spectrum(s, order).values
        # alpha_min is the log canonical threshold 1/n'_0 + 1/(r_1 n'_1), minus 1
        np, r1 = data.nprime, pairs[0][1]
        lowest = min(F(1, m1) + F(1, m2) - 1 for sign, m1, m2 in self.terms(data) if sign > 0)
        assert s.alpha_min == lowest == F(1, np[0]) + F(1, r1 * np[1]) - 1


class TestQFactor:
    def test_exponent_poly_values(self):
        w = MPoly.var("w")
        assert q_exponent_poly(1) == MPoly()
        assert q_exponent_poly(2) == 4 * (F(1, 2) - w) * w * (1 - w)
        assert q_exponent_poly(2).eval({"w": F(1, 4)}) == F(3, 16)
        assert q_exponent_poly(3) == 6 * (F(1, 2) - w) * w * (1 - w) * (F(4, 3) - w * (1 - w))

    def test_exponent_poly_zeros_and_derivative_signs(self):
        for k in range(2, 9):
            p = q_exponent_poly(k)
            for root in (0, F(1, 2), 1):
                assert p.eval({"w": root}) == 0
            dp = p.derivative("w")
            assert dp.eval({"w": 0}) == 2 * k - 2 > 0
            assert dp.eval({"w": 1}) == 2 * k - 2
            assert dp.eval({"w": F(1, 2)}) == -2 + k * F(1, 2 ** (2 * k - 3)) < 0
            # the third derivative is positive, which pins the three simple
            # zeros as the only real zeros
            dddp = dp.derivative("w").derivative("w")
            for w in (F(-1, 2), F(1, 4), F(3, 4), F(2)):
                assert dddp.eval({"w": w}) > 0

    def test_low_coefficients(self):
        w = MPoly.var("w")
        q = q_factor_series(w, 8)
        assert q.moment(0) == 1
        assert q.moment(2) == MPoly()
        assert q.moment(4) == q_exponent_poly(2) / 120
        assert q.moment(6) == -q_exponent_poly(3) / 252

    def test_matches_t_series_exp(self):
        # the exponent in plain Taylor coefficients, exponentiated by TruncatedSeries.exp
        order = 12
        bern = bernoulli_numbers(order + 1)
        for w in (F(1, 3), F(5, 2), MPoly.var("w")):
            coeffs = [w * 0] * (order + 1)
            for k in range(1, order // 2 + 1):
                p = 1 - 2 * w + w ** (2 * k) - (1 - w) ** (2 * k)
                coeffs[2 * k] = F(-1, 2 * k) * bern[2 * k] * p / factorial(2 * k)
            assert q_factor_series(w, order) == TruncatedSeries(tuple(coeffs)).exp()

    def test_half_weight_is_flat(self):
        q = q_factor_series(F(1, 2), 8)
        for k in range(1, 4):
            assert q.moment(2 * k) == 0

    def test_sign_inside_the_positive_region(self):
        rng = random.Random(9)
        samples = []
        while len(samples) < 20:
            w = F(rng.randint(1, 199), 400)
            if 0 < w < F(1, 2):
                samples.append(w)
            w2 = 1 + F(rng.randint(1, 800), 400)
            if len(samples) < 20 and 1 < w2 < 3:
                samples.append(w2)
        for w in samples:
            q = q_factor_series(w, 12)
            for k in range(2, 7):
                assert (-1) ** k * q.moment(2 * k) > 0

    def test_derivatives_at_the_simple_zeros(self):
        w = MPoly.var("w")
        q = q_factor_series(w, 12)
        bern = bernoulli_numbers(13)
        for k in range(2, 7):
            dq = q.moment(2 * k).derivative("w")
            assert dq.eval({"w": 0}) == dq.eval({"w": 1}) == -bern[2 * k] * (1 - F(1, k))
            assert dq.eval({"w": F(1, 2)}) == bern[2 * k] * (F(1, k) - F(1, 2 ** (2 * k - 2)))


class TestTpqrClosedForm:
    def test_237_values(self):
        gamma = gamma_tpqr_closed(TpqrParams(2, 3, 7), 10)
        assert gamma.moment(0) == 11
        assert gamma.moment(2) == F(-1, 252)

    def test_matches_spectrum_route(self):
        for p, q, r in [(2, 3, 7), (3, 3, 4), (5, 5, 5), (2, 2, 2)]:
            params = TpqrParams(p, q, r)
            v = moments_of_spectrum(spectrum_tpqr(params), 20)
            assert gamma_tpqr_closed(params, 20).series == bernoulli_moments(v, 1).series

    def test_hyperbolic_variance_sign(self):
        for p, q, r in [(2, 3, 7), (2, 4, 5), (3, 3, 4)]:
            params = TpqrParams(p, q, r)
            assert params.is_hyperbolic
            assert -gamma_tpqr_closed(params, 4).moment(2) > 0


class TestThomSebastianiMoments:
    def test_series_multiplicativity(self):
        rng = random.Random(10)
        for _ in range(6):
            wa = random_brieskorn_weights(rng, rng.randint(1, 2))
            wb = random_brieskorn_weights(rng, rng.randint(1, 2))
            sa, sb = spectrum_from_weights(wa), spectrum_from_weights(wb)
            joined = thom_sebastiani(sa, sb)
            va, vb = moments_of_spectrum(sa, 12), moments_of_spectrum(sb, 12)
            assert moments_of_spectrum(joined, 12).series == (va * vb).series
            for nu_a, nu_b in ((sa.spread, sb.spread), (F(sa.n + 1), F(sb.n + 1))):
                lhs = bernoulli_moments(moments_of_spectrum(joined, 12), nu_a + nu_b)
                rhs = bernoulli_moments(va, nu_a) * bernoulli_moments(vb, nu_b)
                assert lhs.series == rhs.series


class TestPolynomialCharacterization:
    @staticmethod
    def _gamma_at(mu: int, nu, k: int) -> F:
        ws = WeightSystem((F(1, mu + 1),))
        v = moments_of_spectrum(spectrum_from_weights(ws), 2 * k)
        return bernoulli_moments(v, nu).moment(2 * k)

    def test_values_interpolate_in_w_at_one(self):
        # across the chain singularities x^(mu+1), the Bernoulli moments at
        # nu = n + 1 = 1 depend polynomially on w = 1/(mu+1), degree <= 2k;
        # this pole cancellation pins the theta series, so it fails for any
        # other transform parameter
        for k in range(1, 4):
            points = [
                (F(1, mu + 1), self._gamma_at(mu, 1, k)) for mu in range(1, 2 * k + 2)
            ]
            for mu_extra in (2 * k + 2, 2 * k + 3):
                assert self._gamma_at(mu_extra, 1, k) == lagrange_value(
                    points, F(1, mu_extra + 1)
                )

    def test_other_parameters_are_not_polynomial(self):
        for nu in (F(1, 2), F(2)):
            points = [
                (F(1, mu + 1), self._gamma_at(mu, nu, 1)) for mu in range(1, 8)
            ]
            assert self._gamma_at(8, nu, 1) != lagrange_value(points, F(1, 9))


class TestManifoldMoments:
    def test_chi_vector_requires_serre_symmetry(self):
        with pytest.raises(ValueError, match="Serre"):
            ChiVector((1, 2, 3))
        with pytest.raises(ValueError, match="Serre"):
            ChiVector((F(1, 2), 3, F(1, 3)))

    def test_chi_vector_holds_exact_rationals(self):
        # the chi vector of arbitrary Chern numbers may be rational; no entry is rounded
        chi = ChiVector((F(1, 2), 3, F(1, 2)))
        assert chi.chi == (F(1, 2), 3, F(1, 2))
        assert all(type(c) is F for c in chi.chi)
        assert moments_of_chi(chi, 4).values == (4, 1, 1)  # sum_p chi_p (p - 1)^2k

    def test_chi_vector_refuses_floats(self):
        with pytest.raises(TypeError, match="float"):
            ChiVector((1.9, 3, 1.9))

    def test_k3_values(self):
        v = moments_of_chi(ChiVector((2, 20, 2)), 10)
        assert v.moment(0) == 24
        assert v.moment(2) == 4

    def test_projective_space_series(self):
        for n in (1, 2, 3, 5):
            chi = ChiVector(tuple([1] * (n + 1)))
            direct = moments_of_chi(chi, 10).series
            total = TruncatedSeries.zero(10)
            for p in range(n + 1):
                total = total + exp_linear(F(2 * p - n, 2), 10)
            assert direct == total

    def test_genus_series_is_scaled_projective_line(self):
        p1 = moments_of_chi(ChiVector((1, 1)), 10).series
        for g in (0, 2, 3):
            vg = moments_of_chi(ChiVector((1 - g, 1 - g)), 10).series
            assert vg == p1.scale(1 - g)

    def test_k3_closed_form(self):
        closed = gamma_k3_closed(12)
        route = bernoulli_moments(moments_of_chi(ChiVector((2, 20, 2)), 12), 2)
        assert closed.series == route.series
        assert closed.moment(2) == 0
        bern = bernoulli_numbers(13)
        for k in range(2, 7):
            assert (-1) ** k * closed.moment(2 * k) == 24 * (2 * k - 1) * abs(bern[2 * k])

    def test_genus_closed_form(self):
        bern = bernoulli_numbers(11)
        for g in (0, 2, 3):
            closed = gamma_genus_closed(g, 10)
            route = bernoulli_moments(moments_of_chi(ChiVector((1 - g, 1 - g)), 10), 1)
            assert closed.series == route.series
            for k in range(6):
                assert closed.moment(2 * k) == (1 - g) * 2 * bern[2 * k]

    def test_projective_closed_form(self):
        for n in (1, 2, 3, 5):
            chi = ChiVector(tuple([1] * (n + 1)))
            closed = gamma_pn_closed(n, 12)
            route = bernoulli_moments(moments_of_chi(chi, 12), n)
            assert closed.series == route.series

    def test_projective_low_sign_pattern(self):
        # below the dimension the signed moments alternate the other way
        assert gamma_pn_closed(3, 4).moment(2) > 0

    def test_low_order_norlund_identities(self):
        bern = bernoulli_numbers(14) + [F(0)]

        def b(k):
            return bern[k] if k >= 0 else F(0)

        for k in range(13):
            assert generalized_bernoulli_value(k, 2, 0) == (1 - k) * b(k) - k * b(k - 1)
            assert generalized_bernoulli_value(k, 3, 0) == (
                F(k - 2) * (k - 1) * b(k) / 2
                + F(3, 2) * (k - 2) * k * b(k - 1)
                + (k - 1) * k * b(k - 2)
            )
            assert generalized_bernoulli_value(k, 2, 1) == (1 - k) * b(k)


# -- the even-value transform against the t-series route --------------------------

NUS = st.one_of(
    st.sampled_from((F(0), F(-3), F(-7, 4), F(5, 2))),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def small_spectra(draw):
    """Symmetric spectra about (n-1)/2: pairs of offsets +-d with multiplicities."""
    n = draw(st.integers(1, 3))
    center = F(n - 1, 2)
    offsets = st.fractions(min_value=0, max_value=F(n + 1, 2), max_denominator=12)
    offset = offsets.filter(lambda d: d < F(n + 1, 2))
    mult = st.fractions(min_value=F(1, 3), max_value=5, max_denominator=3)
    pairs = draw(st.lists(st.tuples(offset, mult), min_size=1, max_size=5))
    entries = [(center + sign * d, m) for d, m in pairs for sign in (1, -1)]
    return abstract_spectrum(n, entries)


@st.composite
def chi_vectors(draw):
    half = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=3))
    middle = draw(st.lists(st.integers(-20, 20), max_size=1))
    return ChiVector(tuple(half + middle + half[::-1]))


@st.composite
def weight_products(draw):
    weight = st.fractions(min_value=F(1, 60), max_value=F(1, 2), max_denominator=60)
    return WeightSystem(tuple(draw(st.lists(weight, min_size=1, max_size=3))))


@st.composite
def raw_series(draw):
    """Raw moment series of abstract spectra, chi vectors and weight products."""
    order = draw(st.integers(0, 14))
    kind = draw(st.sampled_from(("spectrum", "chi", "weights")))
    if kind == "spectrum":
        return moments_of_spectrum(draw(small_spectra()), order)
    if kind == "chi":
        return moments_of_chi(draw(chi_vectors()), order)
    return moments_qh_product(draw(weight_products()), order)


LARGE_NUS = st.one_of(
    NUS,
    st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30)),
)


THIRTY_DIGITS = st.integers(10**29, 10**30 - 1)
# 0, negative, and 30-digit numerator and denominator of either sign
ONE_EXP_NUS = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-4, max_value=F(-1, 6), max_denominator=6),
    st.builds(lambda p, q, sign: sign * F(p, q), THIRTY_DIGITS, THIRTY_DIGITS, st.sampled_from((1, -1))),
)


@st.composite
def small_weight_systems(draw):
    """Admissible systems of small D: unit weights 1/m, m <= 7, and a non-unit block."""
    units = draw(st.lists(st.integers(2, 7), min_size=1, max_size=3))
    block = draw(st.sampled_from([(), (F(4, 15), F(1, 5)), (F(2, 5), F(1, 5))]))
    return WeightSystem(tuple(F(1, m) for m in units) + block)


def t_series_transform(v: MomentSeries, nu) -> TruncatedSeries:
    """The t-series route: V(t) * exp(nu * theta(t)) in plain Taylor coefficients."""
    return v.series * theta_series(v.order).scale(nu).exp()


class TestEvenValueTransform:
    @given(spectrum=small_spectra(), nu=NUS, order=st.integers(0, 16))
    @settings(max_examples=60, deadline=None)
    def test_spectra_match_t_series_route(self, spectrum, nu, order):
        v = moments_of_spectrum(spectrum, order)
        gamma = bernoulli_moments(v, nu)
        assert gamma.series == t_series_transform(v, nu)
        assert gamma.nu == nu and gamma.order == order

    @given(chi=chi_vectors(), nu=NUS, order=st.integers(0, 16))
    @settings(max_examples=40, deadline=None)
    def test_chi_vectors_match_t_series_route(self, chi, nu, order):
        v = moments_of_chi(chi, order)
        assert bernoulli_moments(v, nu).series == t_series_transform(v, nu)

    @given(data=st.data(), order=st.integers(0, 14))
    @settings(max_examples=30, deadline=None)
    def test_product_matches_t_series_product(self, data, order):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        a, b = (even_moment_series(rng, order) for _ in range(2))
        assert (a * b).series == a.series * b.series

    @given(v=raw_series(), nu=LARGE_NUS)
    @settings(max_examples=60, deadline=None)
    def test_integer_transform_matches_both_oracles(self, v, nu):
        # the rows run by Horner's rule in 4q, q = nu.denominator; they must
        # give what the rational multiply and the t-series give
        gamma = bernoulli_moments(v, nu)
        assert gamma.values == _even_mul(v.values, _zero_values(v.order, nu))
        assert gamma.series == t_series_transform(v, nu)
        # a raw series is its values: one rebuilt from them is equal
        rebuilt = MomentSeries(v.values, v.order, None)
        assert rebuilt == v and hash(rebuilt) == hash(v) and repr(rebuilt) == repr(v)
        assert bernoulli_moments(rebuilt, nu) == gamma

    @given(
        values=st.lists(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6), min_size=11, max_size=11),
        nu=LARGE_NUS,
        order=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_raw_series_without_integer_form(self, values, nu, order):
        # bernoulli_moments reads a raw series from its values alone: its
        # Fraction values are summed as N_k with unit = sigma = 1
        v = MomentSeries(values[: order // 2 + 1], order, None)
        assert bernoulli_moments(v, nu).values == _even_mul(v.values, _zero_values(order, nu))

    @given(source=st.one_of(small_spectra(), chi_vectors()), nu=LARGE_NUS, order=st.integers(0, 16))
    @settings(max_examples=60, deadline=None)
    def test_gamma_of_matches_the_transform_of_the_values(self, source, nu, order):
        # two routes: the integer power sums of the source, and the Fraction
        # values of its raw series
        moments_of = moments_of_chi if isinstance(source, ChiVector) else moments_of_spectrum
        gamma = gamma_of(source, order)(nu)
        assert gamma == bernoulli_moments(moments_of(source, order), nu)
        assert gamma.nu == nu and gamma.order == order

    def test_power_sums_take_int_offsets_and_rational_multiplicities(self):
        # pairs given directly: int and Fraction offsets, int and Fraction
        # multiplicities, each written over its common denominator in integers
        pairs = [(0, F(3, 2)), (-2, F(1, 3)), (2, F(1, 3)), (F(-1, 5), 7), (F(1, 5), 7), (F(7, 2), F(-5, 6))]
        sums, unit, sigma = _power_sums(pairs, 10)
        assert (unit, sigma) == (6, 100)
        for k, n in enumerate(sums):
            assert type(n) is int
            assert F(n, unit * sigma**k) == sum(m * F(a) ** (2 * k) for a, m in pairs)

    @given(ws=weight_products(), nu=ONE_EXP_NUS, order=st.integers(0, 24))
    @settings(max_examples=60, deadline=None)
    def test_weight_product_gamma_is_the_transform_of_v(self, ws, nu, order):
        # Gamma(V, nu) of a weight system is one exp; it must equal the
        # transform of the raw product that moments_qh_product returns
        v = moments_qh_product(ws, order)
        assert v.is_raw
        gamma = _qh_gamma(ws, order)(nu)
        assert gamma == bernoulli_moments(v, nu)
        assert gamma.nu == nu and gamma.order == order

    @given(ws=small_weight_systems(), nu=ONE_EXP_NUS, order=st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_weight_product_gamma_matches_the_spectrum_route(self, ws, nu, order):
        direct = bernoulli_moments(moments_of_spectrum(spectrum_from_weights(ws), order), nu)
        assert _qh_gamma(ws, order)(nu) == direct

    def test_values_are_the_factorial_normalized_coefficients(self):
        v = moments_of_spectrum(spectrum_tpqr(TpqrParams(2, 3, 7)), 9)
        assert v.values == tuple(v.series.moment(two_k) for two_k in range(0, 10, 2))
        assert MomentSeries(v.values, 9, None) == v
        assert v.moment(3) == 0
        with pytest.raises(IndexError):
            v.moment(10)
        with pytest.raises(ValueError):
            MomentSeries(v.values, 12, None)
        with pytest.raises(ValueError):
            moments_of_spectrum(spectrum_tpqr(TpqrParams(2, 3, 7)), -2)


def test_explicit_tables_hold_at_high_order():
    # each closed form reads every order from one A_2j(0, nu) table per nu,
    # built once per call and passed down
    k3 = bernoulli_moments(moments_of_chi(ChiVector((2, 20, 2)), 200), 2)
    assert gamma_k3_closed(200) == k3
    p6 = bernoulli_moments(moments_of_chi(ChiVector((1,) * 7), 200), 6)
    assert gamma_pn_closed(6, 200) == p6
    for ws in (WeightSystem((F(1, 5), F(1, 4), F(1, 3))), WeightSystem((F(4, 15), F(1, 5)))):
        assert moments_qh_product(ws, 120) == moments_of_spectrum(spectrum_from_weights(ws), 120)


# -- the caps of a --spectrum-file or a chi vector, read off the source as built --


def _check_from_centered(source, size, what, cap):
    """The caps computed from ``source.centered()``: the oracle of ``moments._check_source``."""
    from bermoments import MAX_POWER_SUM_BITS, _check_bits
    from bermoments.moments import _lcm_until

    name = "chi vector" if isinstance(source, ChiVector) else "spectrum"
    size = max(size, 1)
    centered = source.centered()
    most = MAX_POWER_SUM_BITS // (len(centered) * size)
    scale = _lcm_until((a.denominator for a, _ in centered), min(cap // size, most))
    largest = max(scale, centered[-1][0] * scale)
    _check_bits(largest.numerator.bit_length(), size, f"(bits of the centered {name}) * {what}", cap)
    unit = _lcm_until((m.denominator for _, m in centered), most)
    entries_bits = len(centered) * (largest * unit).numerator.bit_length()
    _check_bits(entries_bits, size, f"(entries * bits of the centered {name}) * {what}", MAX_POWER_SUM_BITS)


def _outcome(check, *args):
    """None if `check` passes, else the message of its ValueError."""
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


_DENOMINATORS = st.one_of(st.integers(1, 64), st.integers(2**40, 2**40 + 64), st.integers(2**200, 2**200 + 8))
_MULTIPLICITIES = st.fractions(min_value=F(1, 10**4), max_value=10**6, max_denominator=10**4)


@st.composite
def _spectra(draw):
    """A spectrum of either parity of n: pairs c +- x over mixed denominators, rational multiplicities."""
    n = draw(st.integers(1, 4))
    center = F(n - 1, 2)
    entries = []
    for d in draw(st.lists(_DENOMINATORS, min_size=1, max_size=8)):
        x = F(draw(st.integers(0, (n + 1) * d // 2 - 1)), d)  # |x| < (n + 1)/2: alpha in (-1, n)
        m = draw(_MULTIPLICITIES)
        entries += [(center + x, m), (center - x, m)] if x else [(center, m)]
    return abstract_spectrum(n, entries)


@st.composite
def _chi_vectors(draw):
    """A chi vector of rational values, Serre-symmetric."""
    n = draw(st.integers(0, 9))
    values = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=draw(_DENOMINATORS))
    half = draw(st.lists(values, min_size=n // 2 + 1, max_size=n // 2 + 1))
    return ChiVector(tuple(half[min(p, n - p)] for p in range(n + 1)))


@given(st.one_of(_spectra(), _chi_vectors()), st.integers(1, 300), st.sampled_from(["--kmax", "--k-cap"]))
@settings(max_examples=150, deadline=None)
def test_the_check_of_the_source_as_built_has_the_boundaries_of_the_centered_pairs(source, size, what):
    # each cap is put one bit either side of the source's bits: the first by
    # `cap` at the bits times `size`, the second by the size at which the
    # entries' bits times it pass MAX_POWER_SUM_BITS; both checks give the
    # same verdict and the same message at every point
    from math import lcm

    from bermoments import MAX_POWER_SUM_BITS
    from bermoments.moments import _check_source

    centered = source.centered()
    scale = lcm(*(a.denominator for a, _ in centered))
    largest = max(scale, centered[-1][0] * scale)
    bits = largest.numerator.bit_length()
    unit = lcm(*(m.denominator for _, m in centered))
    entries_bits = len(centered) * (largest * unit).numerator.bit_length()
    boundary = MAX_POWER_SUM_BITS // entries_bits
    points = [(size, bits * size + delta) for delta in (-1, 0, 1)]
    points += [(s, 2**62) for s in (boundary - 1, boundary, boundary + 1) if s >= 0]
    points += [(boundary + 1, bits * (boundary + 1) + delta) for delta in (-1, 0, 1)]
    for s, cap in points:
        expected = _outcome(_check_from_centered, source, s, what, cap)
        assert _outcome(_check_source, source, s, what, cap) == expected, (s, cap)


@given(st.integers(-(10**6), 10**6), _DENOMINATORS, st.integers(-20, 20))
def test_a_centered_denominator_is_that_of_one_over_it(a, d, twice_c):
    # den(a/d - c) = den(1/d - c) for gcd(a, d) = 1 and 2c an integer: what
    # lets the check read the scale off the distinct denominators alone
    from math import gcd

    c = F(twice_c, 2)
    if gcd(a, d) == 1:
        assert (F(a, d) - c).denominator == (F(1, d) - c).denominator
