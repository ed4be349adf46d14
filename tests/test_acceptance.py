"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every assertion is exact unless the criterion is explicitly asymptotic.
"""

import random
from fractions import Fraction as F
from math import comb, factorial

from bermoments import (
    ChiVector,
    MomentSeries,
    PuiseuxData,
    TpqrParams,
    TruncatedSeries,
    WeightSystem,
    abstract_spectrum,
    bernoulli_moments,
    bernoulli_numbers,
    centered_bernoulli_at_zero,
    centered_bernoulli_poly,
    centered_bernoulli_value,
    check_conjecture,
    chern_data_genus,
    chern_data_k3,
    chern_data_pn,
    chern_moment_poly,
    cos_scaled_value,
    fourier_partial_sum,
    gamma_genus_closed,
    gamma_k3_closed,
    gamma_pn_closed,
    gamma_qh_product_nplus1,
    gamma_qh_product_spread,
    gamma_tpqr_closed,
    bernoulli_moment_from_chern,
    moment_from_chern,
    moments_of_chi,
    moments_of_spectrum,
    moments_qh_product,
    spectrum_curve,
    spectrum_from_weights,
    spectrum_tpqr,
    thom_sebastiani,
    trace_convergence,
)
from bermoments.polynomials import MPoly

from helpers import lagrange_value, random_brieskorn_weights, random_fraction


def _report(number: int, label: str):
    print(f"PASS criterion {number}: {label}")


def test_criterion_01_bernoulli_table():
    b = bernoulli_numbers(17)
    assert [b[2 * k] for k in range(1, 9)] == [
        F(1, 6), F(-1, 30), F(1, 42), F(-1, 30),
        F(5, 66), F(-691, 2730), F(7, 6), F(-3617, 510),
    ]
    assert b[12] == F(-691, 2730) and b[16] == F(-3617, 510)
    _report(1, "Bernoulli numbers reproduce the even table exactly")


def test_criterion_02_transform_coefficient_formulas():
    rng = random.Random(101)
    for trial in range(3):
        order = 6
        coeffs = [F(0)] * (order + 1)
        coeffs[0] = F(rng.randint(1, 9))
        for two_k in range(2, order + 1, 2):
            coeffs[two_k] = random_fraction(rng) / factorial(two_k)
        v = MomentSeries.from_series(TruncatedSeries(tuple(coeffs)))
        v0, v2, v4, v6 = (v.moment(j) for j in (0, 2, 4, 6))
        nu = random_fraction(rng) + F(rng.randint(0, 3))

        expected = [
            v0,
            v2 - v0 * nu / 12,
            v4 - v2 * nu / 2 + v0 * (nu / 120 + nu**2 / 48),
            v6
            - v4 * F(5, 4) * nu
            + v2 * (nu / 8 + 5 * nu**2 / 16)
            - v0 * (nu / 252 + nu**2 / 96 + 5 * nu**3 / 576),
        ]
        direct = bernoulli_moments(v, nu)
        grid = [F(0), F(1), F(2), F(3)]
        samples = {g: bernoulli_moments(v, g) for g in grid}
        for k in range(4):
            interpolated = lagrange_value(
                [(g, samples[g].moment(2 * k)) for g in grid], nu
            )
            assert direct.moment(2 * k) == expected[k] == interpolated
    _report(2, "low-order Bernoulli moments match the polynomial formulas")


def test_criterion_03_quasihomogeneous_low_moments():
    rng = random.Random(102)
    for _ in range(10):
        ws = random_brieskorn_weights(rng, rng.randint(2, 4))
        gamma = gamma_qh_product_spread(ws, 8)
        route = bernoulli_moments(
            moments_of_spectrum(spectrum_from_weights(ws), 8), ws.spread
        )
        assert gamma.moment(2) == route.moment(2) == 0
        quartic = ws.mu / 30 * sum((F(1, 2) - w) * w * (1 - w) for w in ws.weights)
        sextic = ws.mu / 42 * sum(
            (F(1, 2) - w) * w * (1 - w) * (w * (1 - w) - F(4, 3)) for w in ws.weights
        )
        assert route.moment(4) == quartic == gamma.moment(4)
        assert route.moment(6) == sextic == gamma.moment(6)
    _report(3, "spread-normalized moments vanish at k=1 and match the closed sums")


def test_criterion_04_closed_form_cross_checks():
    instances = [
        WeightSystem((F(1, 2),)),
        WeightSystem((F(1, 3), F(1, 2))),
        WeightSystem((F(1, 5), F(1, 4), F(1, 3))),
        WeightSystem((F(4, 15), F(1, 5))),
        WeightSystem((F(2, 5), F(1, 5), F(1, 2), F(1, 3))),
    ]
    order = 20
    for ws in instances:
        s = spectrum_from_weights(ws)
        v = moments_of_spectrum(s, order)
        assert moments_qh_product(ws, order).series == v.series
        assert gamma_qh_product_nplus1(ws, order).series == bernoulli_moments(v, ws.n + 1).series
        assert gamma_qh_product_spread(ws, order).series == bernoulli_moments(v, s.spread).series
    _report(4, "three closed product forms equal the definitional route to order 20")


def test_criterion_05_hyperbolic_family():
    for p, q, r in [(2, 3, 7), (3, 3, 4), (5, 5, 5)]:
        params = TpqrParams(p, q, r)
        s = spectrum_tpqr(params)
        closed = gamma_tpqr_closed(params, 20)
        route = bernoulli_moments(moments_of_spectrum(s, 20), 1)
        assert closed.series == route.series
        report = check_conjecture(s, "S", 10)
        assert report.overall
    _report(5, "hyperbolic closed form matches and the strong signs hold")


def test_criterion_06_curve_spectra():
    cusp = spectrum_curve(PuiseuxData(((2, 3),)))
    assert cusp.entries == ((F(-1, 6), F(1)), (F(1, 6), F(1)))
    two_pairs = spectrum_curve(PuiseuxData(((2, 3), (2, 7))))
    assert two_pairs.mu == 16
    assert all(m.denominator == 1 for _, m in two_pairs.entries)
    lookup = dict(two_pairs.entries)
    assert all(lookup[-alpha] == m for alpha, m in two_pairs.entries)
    for s in (cusp, two_pairs):
        assert check_conjecture(s, "W", 10).overall
    _report(6, "curve spectra are symmetric with integer multiplicities; weak signs hold")


def test_criterion_07_thom_sebastiani():
    rng = random.Random(103)
    for _ in range(10):
        wa = random_brieskorn_weights(rng, rng.randint(1, 2))
        wb = random_brieskorn_weights(rng, rng.randint(1, 2))
        sa, sb = spectrum_from_weights(wa), spectrum_from_weights(wb)
        joined = thom_sebastiani(sa, sb)
        assert joined == spectrum_from_weights(WeightSystem(wa.weights + wb.weights))
        va, vb = moments_of_spectrum(sa, 10), moments_of_spectrum(sb, 10)
        vj = moments_of_spectrum(joined, 10)
        assert vj.series == (va * vb).series
        for nu_a, nu_b in ((sa.spread, sb.spread), (F(sa.n + 1), F(sb.n + 1))):
            assert (
                bernoulli_moments(vj, nu_a + nu_b).series
                == (bernoulli_moments(va, nu_a) * bernoulli_moments(vb, nu_b)).series
            )
    _report(7, "join spectra and their moment series are multiplicative")


def test_criterion_08_polynomial_identity_suite():
    x = MPoly.var("x")
    nu = MPoly.var("nu")
    bern = bernoulli_numbers(13)
    rng = random.Random(104)

    def poly(k):
        return centered_bernoulli_poly(k)

    # collapse at nu = 0
    for k in range(13):
        assert poly(k).subs({"nu": 0}) == x**k
    # odd values at the origin vanish
    for k in range(7):
        assert centered_bernoulli_at_zero(2 * k + 1) == MPoly()
    # alternating coefficient signs and exact nu-degree at the origin
    for k in range(1, 9):
        signed = (-1) ** k * centered_bernoulli_at_zero(2 * k)
        assert all(c >= 0 for _, c in signed.terms())
        assert signed.degree("nu") == k
    # addition theorem at five random rational points
    for _ in range(5):
        x1, x2 = random_fraction(rng), random_fraction(rng)
        n1, n2 = random_fraction(rng), random_fraction(rng)
        for k in range(9):
            assert centered_bernoulli_value(k, x1 + x2, n1 + n2) == sum(
                comb(k, j)
                * centered_bernoulli_value(j, x1, n1)
                * centered_bernoulli_value(k - j, x2, n2)
                for j in range(k + 1)
            )
    # parity and the two derivative rules
    for k in range(13):
        assert poly(k).subs({"x": -1 * x}) == (-1) ** k * poly(k)
    for k in range(1, 13):
        assert poly(k).derivative("x") == k * poly(k - 1)
    for k in range(1, 11):
        expected = MPoly()
        for j in range(1, k // 2 + 1):
            expected = expected + comb(k, 2 * j) * F(-1, 2 * j) * bern[2 * j] * poly(k - 2 * j)
        assert poly(k).derivative("nu") == expected
    # difference and three-term relations
    for k in range(1, 11):
        lhs = poly(k).subs({"x": x + F(1, 2), "nu": nu + 1}) - poly(k).subs(
            {"x": x - F(1, 2), "nu": nu + 1}
        )
        assert lhs == k * poly(k - 1)
        xv, nv = random_fraction(rng), random_fraction(rng)
        for sign in (1, -1):
            three_term = (nv - k) * centered_bernoulli_value(k, xv, nv) + k * (
                xv + sign * nv / 2
            ) * centered_bernoulli_value(k - 1, xv, nv)
            assert nv * centered_bernoulli_value(k, xv + sign * F(1, 2), nv + 1) == three_term
    # factorization at nu = k + 1
    for k in range(9):
        product = MPoly.const(1)
        for j in range(k):
            product = product * (x + F(k - 1, 2) - j)
        assert poly(k).subs({"nu": k + 1}) == product
    # derivative collapse for large integer parameters
    for k, n in [(2, 4), (3, 5), (2, 6)]:
        target = poly(n - 1).subs({"nu": n})
        for _ in range(n - 1 - k):
            target = target.derivative("x")
        assert poly(k).subs({"nu": n}) == F(factorial(k), factorial(n - 1)) * target
    _report(8, "the full polynomial identity suite holds exactly")


def test_criterion_09_asymptotics():
    checkpoints = (20, 30, 40, 50)

    def decreasing_below(errors, bound):
        # below 1e-9 only float rounding is left, so the decrease is only
        # required down to that floor
        capped = [max(e, 1e-9) for e in errors]
        assert all(a >= b for a, b in zip(capped, capped[1:]))
        assert errors[-1] < bound

    # polynomial normalizations against their cosine targets
    decreasing_below([abs(cos_scaled_value(k, 0, 1) - 1.0) for k in checkpoints], 0.2)
    decreasing_below([abs(cos_scaled_value(k, F(1, 2), 3) + 1.0) for k in checkpoints], 0.2)

    # trace sequences: cusp at nu = 2, hyperbolic at nu = 1, and the
    # lopsided abstract spectrum at nu = 3
    cusp = spectrum_from_weights(WeightSystem((F(1, 3), F(1, 2))))
    values = trace_convergence(cusp, 2, 50)
    decreasing_below([abs(values[k - 1] - 1.0) for k in checkpoints], 0.2)

    t237 = spectrum_tpqr(TpqrParams(2, 3, 7))
    values = trace_convergence(t237, 1, 50)
    decreasing_below([abs(values[k - 1] - 1.0) for k in checkpoints], 0.2)

    balanced = abstract_spectrum(2, ((0, 3), (F(1, 2), 6), (1, 3)))
    values = trace_convergence(balanced, 3, 50)
    decreasing_below([abs(values[k - 1] - 0.0) for k in checkpoints], 0.2)
    _report(9, "normalized sequences approach their cosine targets")


def test_criterion_10_fourier_partial_sums():
    grid = [F(i, 10) for i in range(-4, 5)]
    for k in (2, 3, 4):
        for xv in grid:
            exact = float(centered_bernoulli_value(k, xv, 1))
            approx = fourier_partial_sum(k, float(xv), 10**4)
            assert abs(approx - exact) < 1e-6
    _report(10, "Fourier partial sums match the exact polynomials to 1e-6")


def test_criterion_11_manifold_moments():
    bern = bernoulli_numbers(13)
    k3 = gamma_k3_closed(12)
    assert k3.moment(2) == 0
    for k in range(2, 7):
        assert (-1) ** k * k3.moment(2 * k) == 24 * (2 * k - 1) * abs(bern[2 * k])
    for n in range(5, 9):
        gamma = gamma_pn_closed(n, 10)
        for k in range(1, (n - 1) // 2 + 1):
            assert gamma.moment(2 * k) > 0
    for g in (0, 2, 3):
        closed = gamma_genus_closed(g, 10)
        route = bernoulli_moments(moments_of_chi(ChiVector((1 - g, 1 - g)), 10), 1)
        assert closed.series == route.series
        for k in range(6):
            assert closed.moment(2 * k) == (1 - g) * 2 * bern[2 * k]
    _report(11, "K3, projective and genus-g manifold moments behave as stated")


def test_criterion_12_chern_route():
    nu = MPoly.var("nu")
    y1, y2, y3 = (MPoly.var(f"y{i}") for i in (1, 2, 3))
    assert chern_moment_poly(1, 0) == nu / 12
    assert chern_moment_poly(1, 1) == y1 / 6
    assert chern_moment_poly(2, 0) == nu**2 / 48 - nu / 120
    assert chern_moment_poly(2, 1) == (nu / 12 - F(1, 30)) * y1
    assert chern_moment_poly(2, 2) == y2 / 10 + y1**2 / 30
    assert chern_moment_poly(2, 3) == y1 * y2 / 10 - y3 / 10 - y1**3 / 30

    manifolds = [
        (chern_data_pn(1), ChiVector((1, 1))),
        (chern_data_pn(2), ChiVector((1, 1, 1))),
        (chern_data_pn(3), ChiVector((1, 1, 1, 1))),
        (chern_data_k3(), ChiVector((2, 20, 2))),
        (chern_data_genus(3), ChiVector((-2, -2))),
    ]
    for data, chi in manifolds:
        v = moments_of_chi(chi, 8)
        gamma = bernoulli_moments(v, data.n)
        for k in range(4):
            assert moment_from_chern(data, k) == v.moment(2 * k)
            assert bernoulli_moment_from_chern(data, data.n, k) == gamma.moment(2 * k)
    _report(12, "universal polynomials and both Chern-number routes agree")


def test_criterion_13_polynomial_characterization():
    # the characterizing pole cancellation across the chain singularities
    # x^(mu+1) happens at nu = n + 1 = 1 (at any other parameter, 1/2
    # included, the values keep a pole in w and interpolation cannot close)
    def gamma_at(mu: int, nu, k: int) -> F:
        ws = WeightSystem((F(1, mu + 1),))
        v = moments_of_spectrum(spectrum_from_weights(ws), 2 * k)
        return bernoulli_moments(v, nu).moment(2 * k)

    for k in range(1, 4):
        points = [(F(1, mu + 1), gamma_at(mu, 1, k)) for mu in range(1, 2 * k + 2)]
        for mu in (2 * k + 2, 2 * k + 3):
            assert gamma_at(mu, 1, k) == lagrange_value(points, F(1, mu + 1))
    # sharpness: the same interpolation fails at nu = 1/2
    points = [(F(1, mu + 1), gamma_at(mu, F(1, 2), 1)) for mu in range(1, 4)]
    assert gamma_at(4, F(1, 2), 1) != lagrange_value(points, F(1, 5))
    _report(13, "chain-singularity moments interpolate polynomially in w at nu = 1")


def test_criterion_14_nu_monotonicity():
    rng = random.Random(105)
    k0 = 5
    for _ in range(10):
        ws = random_brieskorn_weights(rng, rng.randint(1, 3))
        v = moments_of_spectrum(spectrum_from_weights(ws), 2 * k0)
        grid = sorted(F(rng.randint(0, 40), 8) for _ in range(6))
        passed = [
            all((-1) ** k * bernoulli_moments(v, g).moment(2 * k) >= 0 for k in range(k0 + 1))
            for g in grid
        ]
        first = passed.index(True) if True in passed else len(passed)
        assert all(passed[first:])
    _report(14, "sign windows are monotone along the nu grid")
