"""Conjecture checks, threshold bisection, traces, curve sign mechanics."""

import random
from fractions import Fraction as F

import pytest

from bermoments import (
    ConjectureReport,
    PuiseuxData,
    TpqrParams,
    WeightSystem,
    abstract_spectrum,
    bernoulli_moments,
    check_conjecture,
    conjecture_nu,
    moments_of_spectrum,
    nu_threshold,
    spectrum_curve,
    spectrum_from_weights,
    spectrum_tpqr,
    trace_convergence,
    trace_limit,
)
from bermoments.oracles import curve_correction_coefficient, curve_correction_terms, gamma_weight_factor

from helpers import random_brieskorn_weights

CUSP = spectrum_from_weights(WeightSystem((F(1, 3), F(1, 2))))
# centered multiplicities (5, 2, 5): too much mass at the ends, fails (W)
LOPSIDED = abstract_spectrum(2, ((0, 5), (F(1, 2), 2), (1, 5)))


class TestCheckConjecture:
    def test_cusp_strong_passes_with_boundary_zero(self):
        report = check_conjecture(CUSP, "S", 10)
        assert report.overall
        assert report.nu == F(1, 3)
        assert report.rows[1][1] == 0  # Gamma_2 sits exactly on the boundary

    def test_cusp_weak_passes_strictly(self):
        report = check_conjecture(CUSP, "W", 10)
        assert report.overall
        assert report.nu == 2
        assert all((-1) ** k * value > 0 for k, value, _ in report.rows)

    def test_tpqr_strong(self):
        assert check_conjecture(spectrum_tpqr(TpqrParams(2, 3, 7)), "S", 10).overall

    def test_curve_weak(self):
        s = spectrum_curve(PuiseuxData(((2, 3), (2, 7))))
        assert check_conjecture(s, "W", 10).overall

    def test_zero_index_checks_total_multiplicity(self):
        report = check_conjecture(CUSP, "W", 0)
        assert report.rows == ((0, F(2), True),)

    def test_failing_spectrum_is_reported(self):
        report = check_conjecture(LOPSIDED, "W", 10)
        assert not report.overall
        failures = [k for k, _, ok in report.rows if not ok]
        assert failures and failures[0] == 2

    def test_boundary_zero_fails_strict_mode(self):
        # at nu = spread the cusp has Gamma_2 = 0, enough for (S) but not
        # for a strict check at the same parameter
        v = moments_of_spectrum(CUSP, 4)
        assert bernoulli_moments(v, CUSP.spread).moment(2) == 0
        assert check_conjecture(CUSP, "S", 1).overall

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            check_conjecture(CUSP, "X", 3)
        with pytest.raises(ValueError):
            conjecture_nu(CUSP, "weak")
        with pytest.raises(ValueError):
            ConjectureReport("Q", F(1), 1, ())

    def test_pass_is_monotone_in_nu(self):
        # once a window of signs holds at some nu it holds at every larger nu
        v = moments_of_spectrum(LOPSIDED, 12)
        grid = [F(3), F(7, 2), F(4), F(5), F(7), F(10)]
        passed = [
            all((-1) ** k * bernoulli_moments(v, nu).moment(2 * k) >= 0 for k in range(7))
            for nu in grid
        ]
        first = passed.index(True) if True in passed else len(passed)
        assert all(passed[first:])


class TestNuThreshold:
    def test_cusp_variance_root(self):
        estimate = nu_threshold(CUSP, 1, 1, 25)
        assert F(1, 3) <= estimate <= F(1, 3) + F(1, 2**25)

    def test_zero_index_has_zero_threshold(self):
        assert nu_threshold(CUSP, 0, 1, 5) == 0
        rng = random.Random(11)
        ws = random_brieskorn_weights(rng, 2)
        assert nu_threshold(spectrum_from_weights(ws), 0, 2, 4) == 0

    def test_probe_points_are_exact(self):
        estimate = nu_threshold(CUSP, 1, 1, 10)
        assert estimate.denominator <= 2**10

    def test_error_when_failing_at_the_top(self):
        with pytest.raises(ValueError, match="fails at nu_hi"):
            nu_threshold(CUSP, 1, F(1, 10), 5)

    def test_estimates_monotone_in_window_size(self):
        estimates = [nu_threshold(CUSP, 1, 2, 14, k_cap=cap) for cap in (1, 2, 3, 4)]
        assert estimates == sorted(estimates)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            nu_threshold(CUSP, 1, 1, 0)
        with pytest.raises(ValueError):
            nu_threshold(CUSP, 2, 1, 3, k_cap=1)
        with pytest.raises(ValueError):
            nu_threshold(CUSP, 1, 0, 3)


class TestTraceConvergence:
    def test_cusp_approaches_unit_trace(self):
        values = trace_convergence(CUSP, 2, 50)
        assert trace_limit(CUSP) == pytest.approx(1.0)
        errors = [abs(values[k - 1] - 1.0) for k in (20, 30, 40, 50)]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 0.2

    def test_tpqr_trace(self):
        s = spectrum_tpqr(TpqrParams(2, 3, 7))
        assert trace_limit(s) == pytest.approx(1.0)
        values = trace_convergence(s, 1, 50)
        assert abs(values[-1] - 1.0) < 0.2

    def test_lopsided_spectrum_limit(self):
        # 2r cos(pi) + (mu - 2r) = mu - 4r with r = 5, mu = 12
        assert trace_limit(LOPSIDED) == pytest.approx(-8.0)
        values = trace_convergence(LOPSIDED, 3, 50)
        assert abs(values[-1] - (-8.0)) < 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            trace_convergence(CUSP, 0, 10)
        with pytest.raises(ValueError):
            trace_convergence(CUSP, 1, 0)

    def test_nu_beyond_the_floats_is_refused_before_the_transform(self, monkeypatch):
        from bermoments import harness

        def refuse(*args):
            raise AssertionError("the transform ran")

        monkeypatch.setattr(harness, "gamma_of", refuse)
        for nu in (F(1, 10**400), 10**400, F(-1, 3), 0):
            with pytest.raises(ValueError, match="float range"):
                trace_convergence(CUSP, nu, 2)

    def test_overflowing_row_names_its_k(self):
        with pytest.raises(OverflowError, match="k = 1 "):
            trace_convergence(CUSP, 10**20, 2)


class TestCurveCorrectionMechanics:
    CASES = [(2, 2, 3, 13), (2, 3, 3, 19), (3, 2, 4, 25), (2, 2, 5, 21)]

    def test_factorization_and_signs(self):
        for n1, n2, w1, w2 in self.CASES:
            delta = w2 - w1 * n1 * n2
            assert delta > 0
            for k in range(1, 7):
                terms = curve_correction_terms(k, n1, n2, w1, w2)
                assert sum(terms) * delta * (n2 - 1) == curve_correction_coefficient(
                    k, n1, n2, w1, w2
                )
                assert all((-1) ** k * term > 0 for term in terms)

    def test_series_route_oracle(self):
        # third route: the correction block is a difference of one-weight
        # transform factors times another factor
        order = 12
        for n1, n2, w1, w2 in self.CASES:
            a = w1 * n1 * n2
            series = (
                gamma_weight_factor(F(1, w2), order) - gamma_weight_factor(F(1, a), order)
            ) * gamma_weight_factor(F(1, n2), order)
            for k in range(1, order // 2 + 1):
                assert series.moment(2 * k) == curve_correction_coefficient(
                    k, n1, n2, w1, w2
                )

    def test_k_bound(self):
        with pytest.raises(ValueError):
            curve_correction_terms(0, 2, 2, 3, 13)
