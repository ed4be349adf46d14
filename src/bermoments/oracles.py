"""The second routes of the package: its oracles, which no command runs.

Each quantity that a command computes has one route in the module that the
command loads.  The routes here compute the same quantities another way and
are kept for the tests, the demos, the benchmark's cross-checks and library
users, which reach them through ``bermoments.<name>``; no command imports
this module, so no request compiles it.

* the raw moment series of a spectrum or a chi vector and the transform of
  a series given by its values (the power sums and integer rows of
  :mod:`bermoments.moments` are the command route), Gamma_2k summed
  pointwise over a spectrum, and the closed product forms of
  quasihomogeneous and hyperbolic singularities and of P^n, K3 and curves;
* spectra given directly, and the Thom-Sebastiani join;
* Norlund's B_k^(nu)(x), the cosine and sine normalizers of A_k(x, nu), the
  Fourier partial sums of its periodization and the multiplication identity;
* the cosine limit of the trace sequence and the sign mechanics of the curve
  correction term;
* the universal Chern-number polynomials q_kj as :class:`MPoly`, from the
  same partition-keyed expansion that :mod:`bermoments.chern` integrates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from math import comb, factorial, prod

from . import chern  # its partition memo stays bound in chern alone
from .bernpoly import (
    NU,
    X,
    _from_zero_values,
    _log_scaled,
    _zero_values,
    centered_bernoulli_poly,
    centered_bernoulli_value,
    scaled_to_cosine,
)
from .chern import _twisted_series
from .kernels import DEFAULT_ORDER, _even_exp, _even_mul, _theta_values, bernoulli_numbers
from .moments import MomentSeries, _power_sums, _qh_gamma, _transform
from .polynomials import MPoly
from .series import TruncatedSeries, _even_series
from .spectra import Spectrum


# -- moment series and closed product forms (moments) -------------------------


def _raw_series(source, order: int) -> MomentSeries:
    """The raw series of a spectrum or a chi vector, from the power sums of its centered pairs."""
    sums, unit, sigma = _power_sums(source.centered(), order)
    return MomentSeries((Fraction(n, unit * sigma**k) for k, n in enumerate(sums)), order, None)


def moments_of_spectrum(s: Spectrum, order: int = DEFAULT_ORDER) -> MomentSeries:
    """The series sum_i m_i exp(t*(alpha_i - (n-1)/2)); even by symmetry."""
    return _raw_series(s, order)


def moments_of_chi(chi: ChiVector, order: int = DEFAULT_ORDER) -> MomentSeries:
    """The series sum_p chi_p exp(t*(p - n/2)); even by Serre symmetry."""
    return _raw_series(chi, order)


def bernoulli_moments(v: MomentSeries, nu) -> MomentSeries:
    """Gamma(V, nu) = V * ((t/2)/sinh(t/2))^nu; v must be a raw moment series.

    The rows of ``moments._transform``, read on the values of v: N_k = V_2k and
    unit = sigma = 1.  Equals _even_mul(v.values, _zero_values(v.order, nu)).
    """
    if not v.is_raw:
        raise ValueError("bernoulli_moments expects a raw moment series")
    return _transform(v.values, 1, 1, v.order, nu)


def bernoulli_moment_direct(s: Spectrum, nu, k: int) -> Fraction:
    """Gamma_2k(V(s), nu) summed pointwise over the spectrum.

    Equals the series route exactly: Gamma_2k = sum_j m_j A_2k(a_j, nu)
    with a_j the centered spectral numbers.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    zeros = _zero_values(2 * k, Fraction(nu))
    total = Fraction(0)
    for a, mult in s.centered():
        total += mult * _from_zero_values(2 * k, a, zeros)
    return total


def moments_qh_product(ws: WeightSystem, order: int = DEFAULT_ORDER) -> MomentSeries:
    """Raw moment series of a quasihomogeneous singularity as a weight product.

    The factor of a weight w is sinh((1-w)t/2)/sinh(wt/2), that is
    (1/w - 1) * exp(theta(wt) - theta((1-w)t)), so V = mu exp(theta P) with
    P_2k = N_k / sigma^k = sum_w (w^2k - (1-w)^2k).
    Equals moments_of_spectrum(spectrum_from_weights(ws)).
    """
    return _qh_gamma(ws, order)()


def _gamma_weight_values(w, order: int) -> tuple:
    """Factorial-normalized values of :func:`gamma_weight_factor`."""
    bern = bernoulli_numbers(order + 1)
    return tuple((-bern[two_k]) * (1 - w ** (two_k - 1)) for two_k in range(0, order + 1, 2))


def gamma_weight_factor(w, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Per-weight factor with coefficients (-B_2k)(1 - w^(2k-1)).

    The k = 0 coefficient is 1/w - 1, so the product over a weight system has
    constant term mu.  The coefficient signs alternate as (-1)^k for any
    weight in (0, 1/2].
    """
    return _even_series(_gamma_weight_values(Fraction(w), order), order)


def gamma_qh_product_nplus1(ws: WeightSystem, order: int = DEFAULT_ORDER) -> MomentSeries:
    """Bernoulli moments of a quasihomogeneous singularity at nu = n + 1.

    Product over the weights of :func:`gamma_weight_factor`; every factor
    coefficient has sign (-1)^k, which settles the strict sign prediction in
    the quasihomogeneous case.
    """
    values = reduce(_even_mul, (_gamma_weight_values(w, order) for w in ws.weights))
    return MomentSeries(values, order, len(ws.weights))


def q_exponent_poly(k: int):
    """The weight polynomial 1 - 2w + w^2k - (1-w)^2k driving the Q factor.

    Returns a polynomial in the variable w.  It vanishes at 0, 1/2, 1; for
    k >= 2 these are its only zeros and it is positive exactly on
    (0, 1/2) and (1, +inf).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w = MPoly.var("w")
    return 1 - 2 * w + w ** (2 * k) - (1 - w) ** (2 * k)


def _q_factor_values(w, order: int) -> tuple:
    """Factorial-normalized values of :func:`q_factor_series`, by the even exp."""
    theta = _theta_values(order // 2 + 1)
    exponent = [w * 0]
    for k in range(1, order // 2 + 1):
        exponent.append(theta[k] * (1 - 2 * w + w ** (2 * k) - (1 - w) ** (2 * k)))
    return _even_exp(exponent)


def q_factor_series(w, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """The one-weight factor Q(t, w) of the spread-normalized moments.

    Q(t, w) = exp(sum_k (-B_2k/(2k)) * p_2k(w) * t^2k/(2k)!) with p_2k the
    polynomial of :func:`q_exponent_poly`.  Q_0 = 1 and Q_2 = 0.  `w` may be
    a Fraction or a polynomial, in which case the expansion is symbolic.
    """
    if isinstance(w, (int, Fraction)):
        w = Fraction(w)
    return _even_series(_q_factor_values(w, order), order)


def gamma_qh_product_spread(ws: WeightSystem, order: int = DEFAULT_ORDER) -> MomentSeries:
    """Bernoulli moments of a quasihomogeneous singularity at nu = spread.

    mu times the product of the Q factors of the weights; in particular the
    t^2 coefficient vanishes identically.
    """
    values = reduce(_even_mul, (_q_factor_values(w, order) for w in ws.weights))
    return MomentSeries((ws.mu * v for v in values), order, ws.spread)


def gamma_tpqr_closed(params: TpqrParams, order: int = DEFAULT_ORDER) -> MomentSeries:
    """Bernoulli moments of T_{p,q,r} at nu = 1 (its spectral spread).

    Gamma_2k = B_2k * (-1 + p^(1-2k) + q^(1-2k) + r^(1-2k)).
    """
    bern = bernoulli_numbers(order + 1)
    sides = (Fraction(params.p), Fraction(params.q), Fraction(params.r))

    def value_at(two_k):
        return bern[two_k] * (sum(m ** (1 - two_k) for m in sides) - 1)

    return MomentSeries(map(value_at, range(0, order + 1, 2)), order, 1)


def gamma_pn_closed(n: int, order: int = DEFAULT_ORDER) -> MomentSeries:
    """Bernoulli moments of projective n-space at nu = n.

    Gamma_2k = -2/(2k+1) * B_(2k+1)^(n+1)(0), the odd generalized Bernoulli
    numbers of order n + 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    zeros = _zero_values(order + 1, Fraction(n + 1))  # B_j^(n+1)(0) = A_j(-(n+1)/2, n+1)

    def value_at(two_k):
        return Fraction(-2, two_k + 1) * _from_zero_values(two_k + 1, Fraction(-(n + 1), 2), zeros)

    return MomentSeries(map(value_at, range(0, order + 1, 2)), order, n)


def gamma_k3_closed(order: int = DEFAULT_ORDER) -> MomentSeries:
    """Bernoulli moments of a K3 surface at nu = 2.

    Gamma_2k = -4/(2k+1) * B_(2k+1)^(3)(0) + 18 * B_2k^(2)(1); the signed
    values vanish at k = 1 and equal 24(2k-1)|B_2k| afterwards.
    """
    # B_j^(3)(0) = A_j(-3/2, 3) and B_2k^(2)(1) = A_2k(0, 2)
    threes, twos = _zero_values(order + 1, Fraction(3)), _zero_values(order, Fraction(2))

    def value_at(two_k):
        odd = _from_zero_values(two_k + 1, Fraction(-3, 2), threes)
        return Fraction(-4, two_k + 1) * odd + 18 * twos[two_k // 2]

    return MomentSeries(map(value_at, range(0, order + 1, 2)), order, 2)


def gamma_genus_closed(g: int, order: int = DEFAULT_ORDER) -> MomentSeries:
    """Bernoulli moments of a genus-g Riemann surface at nu = 1.

    Gamma_2k = (1 - g) * 2 * B_2k.
    """
    bern = bernoulli_numbers(order + 1)
    values = ((1 - g) * 2 * bern[two_k] for two_k in range(0, order + 1, 2))
    return MomentSeries(values, order, 1)


# -- spectra given directly, and joins (spectra) ------------------------------


def thom_sebastiani(a: Spectrum, b: Spectrum) -> Spectrum:
    """Spectrum of a sum of singularities in disjoint variables.

    Entries are alpha_i + beta_j + 1 with multiplied multiplicities;
    the ambient parameter is n_a + n_b + 1.
    """
    # merged here, not left to Spectrum: the mu_a * mu_b pairs fall on far
    # fewer distinct sums, and Spectrum would first sort every pair
    merged: dict = {}
    for alpha, ma in a.entries:
        for beta, mb in b.entries:
            key = alpha + beta + 1
            merged[key] = merged.get(key, Fraction(0)) + ma * mb
    return Spectrum(a.n + b.n + 1, tuple(merged.items()))


def abstract_spectrum(n: int, entries) -> Spectrum:
    """Spectrum given directly; rational multiplicities are allowed.

    The range and symmetry requirements are still enforced.
    """
    return Spectrum(n, tuple(entries))


# -- Norlund's form, float evaluators and identities of A_k(x, nu) (bernpoly) ---


def generalized_bernoulli_value(k: int, nu, x) -> Fraction:
    """Norlund's B_k^(nu)(x) = A_k(x - nu/2, nu), exactly."""
    nu = Fraction(nu)
    return centered_bernoulli_value(k, Fraction(x) - nu / 2, nu)


def periodize(x):
    """Reduce x to the period interval (-1/2, 1/2], exactly for Fractions."""
    half = Fraction(1, 2) if isinstance(x, (Fraction, int)) else 0.5
    y = x - math.floor(x + half)
    if y == -half:
        y = half
    return y


def cos_scaled_value(k: int, x, nu) -> float:
    """The cosine-normalized even value; tends to cos(2*pi*x) as k grows."""
    exact = centered_bernoulli_value(2 * k, Fraction(x), Fraction(nu))
    return scaled_to_cosine(exact, k, float(nu))


def sin_scaled_value(k: int, x, nu) -> float:
    """Odd-index analogue of :func:`cos_scaled_value`; tends to sin(2*pi*x).

    Normalizes A_(2k-1)(x, nu) by (-1)^(k-1) (2pi)^(2k-1) Gamma(nu) /
    (2 (2k-1)! (2k-1)^(nu-1)).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    exact = centered_bernoulli_value(2 * k - 1, Fraction(x), Fraction(nu))
    return _log_scaled(exact, 2 * k - 1, float(nu), (-1) ** (k - 1))


def fourier_partial_sum(k: int, x: float, terms: int) -> float:
    """Partial Fourier sum of the 1-periodic extension of A_k(., 1).

    The periodization f_k agrees with A_k(x, 1) on (-1/2, 1/2].  Its Fourier
    series has harmonics (-1)^n / n^k against cos(2 pi n x) for even k and
    sin(2 pi n x) for odd k; uniform convergence needs k >= 2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    two_pi = 2 * math.pi
    if k % 2 == 0:
        sign = (-1) ** (k // 2 - 1)
        trig = math.cos
    else:
        sign = (-1) ** ((k + 1) // 2)
        trig = math.sin
    acc = 0.0
    for n in range(1, terms + 1):
        acc += ((-1) ** n / n**k) * trig(two_pi * n * x)
    return sign * 2 * math.factorial(k) / two_pi**k * acc


def verify_multiplication_formula(k: int, nu: int, shift: int = 0) -> bool:
    """Check the order-reduction identity for integer nu >= 1 and k >= nu.

    It writes A_k(x, nu) through the lower polynomials A_j(x, nu), j < nu,
    paired with one-parameter polynomials evaluated at x + (nu-1)/2 - shift:

        A_k(x, nu) = C(k-1, nu-1) * sum_j (-1)^(nu-1-j) C(nu-1, j)
                     * k/(k-j) * A_j(x, nu) * A_(k-j)(x + (nu-1)/2 - shift, 1)

    Any shift in 0..nu-1 leaves the identity valid.  Returns True iff it
    holds as an exact polynomial identity in x.
    """
    if nu < 1 or k < nu:
        raise ValueError("need integer nu >= 1 and k >= nu")
    if not 0 <= shift <= nu - 1:
        raise ValueError("shift must lie in 0..nu-1")
    x = MPoly.var(X)
    lhs = centered_bernoulli_poly(k).subs({NU: nu})
    rhs = MPoly()
    for j in range(nu):
        left = centered_bernoulli_poly(j).subs({NU: nu})
        moved = centered_bernoulli_poly(k - j).subs(
            {NU: 1, X: x + Fraction(nu - 1, 2) - shift}
        )
        rhs = rhs + (-1) ** (nu - 1 - j) * comb(nu - 1, j) * Fraction(k, k - j) * left * moved
    rhs = comb(k - 1, nu - 1) * rhs
    return lhs == rhs


# -- the trace limit and the sign mechanics of the curve correction (harness) ---


def trace_limit(s: Spectrum) -> float:
    """sum m_j cos(2 pi a_j) over the centered spectrum; 1 for singularities."""
    return sum(float(m) * math.cos(2 * math.pi * float(a)) for a, m in s.centered())


def _geometric_sum(base: Fraction, terms: int) -> Fraction:
    total = Fraction(0)
    power = Fraction(1)
    for _ in range(terms):
        total += power
        power *= base
    return total


def curve_correction_coefficient(k: int, n1: int, n2: int, w1: int, w2: int) -> Fraction:
    """2k-th Bernoulli moment of the curve correction block, directly.

    The block is (P_(w2) - P_(w1*n1*n2)) * P_(n2) in the generating-function
    picture, with P_m the geometric block of denominator m, transformed at
    nu = 2.  The double sum below is its coefficient formula:

      sum_i C(2k,2i) B_2i B_2(k-i) ((w1 n1 n2)^(1-2i) - w2^(1-2i))
                                   (1 - n2^(1-2(k-i)))
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bern = bernoulli_numbers(2 * k + 1)
    a = Fraction(w1 * n1 * n2)
    total = Fraction(0)
    for i in range(k + 1):
        total += (
            comb(2 * k, 2 * i)
            * bern[2 * i]
            * bern[2 * (k - i)]
            * (a ** (1 - 2 * i) - Fraction(w2) ** (1 - 2 * i))
            * (1 - Fraction(n2) ** (1 - 2 * (k - i)))
        )
    return total


def curve_correction_terms(k: int, n1: int, n2: int, w1: int, w2: int) -> list:
    """The factored form of :func:`curve_correction_coefficient`.

    Returns the list of exact terms whose sum, multiplied by the positive
    edge determinant delta = w2 - w1*n1*n2 and by n2 - 1, reproduces the
    coefficient.  Every term carries the sign (-1)^k, which is what makes
    the correction compatible with the strict sign prediction.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bern = bernoulli_numbers(2 * k + 1)
    a = Fraction(w1 * n1 * n2)
    w2f = Fraction(w2)
    n2f = Fraction(n2)

    def mixed_sum(i: int) -> Fraction:
        # sum_{j=0}^{2(i-1)} w2^j * (w1 n1 n2)^(2(i-1)-j)
        return a ** (2 * (i - 1)) * _geometric_sum(w2f / a, 2 * i - 1)

    terms = [
        -bern[2 * k] * _geometric_sum(n2f, 2 * k - 1) / n2f ** (2 * k - 1),
        -bern[2 * k] * mixed_sum(k) / (a * w2f) ** (2 * k - 1),
    ]
    for i in range(1, k):
        terms.append(
            comb(2 * k, 2 * i)
            * bern[2 * i]
            * bern[2 * (k - i)]
            * mixed_sum(i)
            / (a * w2f) ** (2 * i - 1)
            * _geometric_sum(n2f, 2 * (k - i) - 1)
            / n2f ** (2 * (k - i) - 1)
        )
    return terms


# -- the q_kj polynomials as MPoly (chern) ------------------------------------


def _as_mpoly(graded: dict, weight: int) -> MPoly:
    """The weight-`weight` part of a partition-keyed polynomial as an MPoly in the y_i."""
    total = MPoly()
    for lam, value in graded.items():
        if sum(lam) == weight:
            total = total + value * prod(MPoly.var(f"y{p}") for p in lam)
    return total


def power_sum_in_elementary(r: int, m: int) -> MPoly:
    """The power sum p_r(x_1..x_m) written in the elementary symmetric y_i."""
    if r < 1 or m < 1:
        raise ValueError("need r >= 1 and m >= 1")
    return _as_mpoly(dict(chern._power_sum(r, m)), r)


def shift_difference_poly(k: int, j: int, m: int) -> MPoly:
    """Coefficient of t^j in sum_i (x_i^2k - (x_i - t)^2k + t^2k), in the y_i.

    Equals (-1)^(j+1) C(2k, j) p_(2k-j); quasihomogeneous of weighted degree
    2k - j, and independent of m once 2k - j <= m.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 1 <= j <= 2 * k - 1:
        raise ValueError("j must lie in 1..2k-1")
    return (-1) ** (j + 1) * comb(2 * k, j) * power_sum_in_elementary(2 * k - j, m)


def todd_factor_poly(k: int, l: int, m: int) -> MPoly:
    """b_kl: the weight-l part of the t^k coefficient of the Todd exponential."""
    if k < 1 or l < 1:
        raise ValueError("need k >= 1 and l >= 1")
    return _as_mpoly(_twisted_series(m, k, l, 0)[k], l)


def twisted_todd_poly(k: int, l: int, m: int) -> MPoly:
    """c_kl: like :func:`todd_factor_poly` but twisted by exp(-nu * theta).

    c_k0 = A_k(0, -nu)/k! and c_0l = 0 for l >= 1; for k, l >= 1 it equals
    sum_j A_j(0, -nu)/j! * b_(k-j),l.
    """
    if k < 0 or l < 0:
        raise ValueError("need k >= 0 and l >= 0")
    return _as_mpoly(_twisted_series(m, k, l, MPoly.var("nu"))[k], l)


def d_poly(k: int, j: int, m: int) -> MPoly:
    """k! (-1)^j c_(k-j),j: the bookkeeping polynomials of the construction."""
    if k < 1 or not 0 <= j <= k - 1:
        raise ValueError("need k >= 1 and 0 <= j <= k-1")
    return factorial(k) * (-1) ** j * twisted_todd_poly(k - j, j, m)


def chern_moment_poly(k: int, j: int) -> MPoly:
    """q_kj(nu, y_1..y_j): the universal Chern-number coefficient polynomial.

    Quasihomogeneous of weighted degree j in the y_i; the nu-degree is k for
    j = 0 and at most k - 1 - floor(j/2) otherwise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= j <= 2 * k - 1:
        raise ValueError("j must lie in 0..2k-1")
    return d_poly(2 * k, j, j if j >= 1 else 1)
