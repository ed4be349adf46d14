"""Generalized Bernoulli polynomials in the centered normalization.

The two-parameter family computed here consists of the polynomials
A_k(x, nu) defined by the generating identity

    e^(x*t) * exp(nu * log((t/2)/sinh(t/2))) = sum_k A_k(x, nu) t^k / k!

They are degree k in x, degree floor(k/2) in nu, and odd or even in x
according to the parity of k.  Norlund's classical generalized Bernoulli
polynomials are the same family in shifted coordinates,
B_k^(nu)(x) = A_k(x - nu/2, nu); for nu = 1 one recovers the ordinary
Bernoulli polynomials B_k(x) = A_k(x - 1/2, 1) and numbers B_k = B_k(0).

Exact polynomial generation and evaluation stay in Fraction arithmetic.
Floating point appears only in the asymptotic normalizers (which converge
to cosine and sine waves as k grows) and in the Fourier partial sums of the
periodized polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

from .series import _dot, _even_exp, _theta_values

X = "x"
NU = "nu"


def _zero_values(k: int, nu) -> tuple:
    """A_2j(0, nu) for 2j <= k (the odd values vanish).

    They are the factorial-normalized values of exp(nu * theta); a lower
    k's table is a prefix.  A rational nu gives exact values, and
    nu = MPoly.var(NU) values that are polynomials in nu.  A rational
    nu = p/q is run as :func:`_scaled_zero_values` and divided by q^j only
    at the end.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    p, q = (nu.numerator, nu.denominator) if isinstance(nu, (int, Fraction)) else (nu, 1)
    scaled = _scaled_zero_values(k, p, q)
    if q == 1:
        return scaled
    return tuple(v / q**j for j, v in enumerate(scaled))


def _scaled_zero_values(k: int, p, q: int) -> tuple:
    """q^j A_2j(0, p/q) for 2j <= k, with q >= 1 an integer.

    The exp recurrence of :func:`_even_exp` is homogeneous: scaling the
    exponent's value j by q^j scales the result's value j by q^j.  So the
    table is the exp of p q^(j-1) theta_2j, whose denominators come from
    theta alone and never from q.  A symbolic nu is p = nu, q = 1.
    """
    theta = _theta_values(k // 2 + 1)
    exponent = [p * theta[0]]
    power = p
    for value in theta[1:]:
        exponent.append(power * value)
        power = power * q
    return _even_exp(exponent)


def _from_zero_values(k: int, x, zeros):
    """A_k(x, nu) = sum_j C(k, 2j) A_2j(0, nu) x^(k-2j), from e^(x*t).

    `zeros` is a :func:`_zero_values` table to k or beyond, built once by a caller
    that reads many values at one nu; a symbolic table (nu an MPoly) takes an MPoly x.
    """
    count = k // 2 + 1
    powers = [x ** (k - 2 * j) for j in range(count)]
    return _dot([comb(k, 2 * j) for j in range(count)], zeros[:count], powers)


def centered_bernoulli_at_zero(k: int) -> MPoly:
    """A_k(0, nu) as a polynomial in nu (zero for odd k)."""
    from .polynomials import MPoly  # here, so that numeric callers never load it

    zeros = _zero_values(k, MPoly.var(NU))
    return zeros[-1] if k % 2 == 0 else zeros[0] * 0


def centered_bernoulli_poly(k: int) -> MPoly:
    """A_k(x, nu) as an exact polynomial in x and nu.

    Assembled from the symbolic x = 0 values via the binomial expansion of
    e^(x*t), as in :func:`centered_bernoulli_value`.
    """
    from .polynomials import MPoly

    return _from_zero_values(k, MPoly.var(X), _zero_values(k, MPoly.var(NU)))


def centered_bernoulli_value(k: int, x, nu) -> Fraction:
    """Exact value A_k(x, nu) at rational arguments.

    Evaluates through the x = 0 values at the given nu rather than through
    the symbolic polynomial, which keeps large k cheap.
    """
    return _from_zero_values(k, Fraction(x), _zero_values(k, Fraction(nu)))


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


def _log_abs(value: Fraction) -> float:
    # math.log handles arbitrarily large ints, so this never overflows
    return math.log(abs(value.numerator)) - math.log(value.denominator)


def _log_gamma_signed(nu: float) -> tuple:
    """(log|Gamma(nu)|, sign of Gamma(nu)); nu must not be a nonpositive integer."""
    if nu <= 0 and nu == int(nu):
        raise ValueError("nu must not be a nonpositive integer")
    if nu > 0:
        return math.lgamma(nu), 1
    sign = -1 if math.floor(-nu) % 2 == 0 else 1
    return math.lgamma(nu), sign


def _log_scaled(value: Fraction, m: int, nu: float, sign_factor: int) -> float:
    """sign_factor * value * (2pi)^m * Gamma(nu) / (2 * m! * m^(nu-1)).

    Scaled in the log domain, so huge exact rationals never overflow.  A zero
    value gives +0.0 whatever the sign factor.
    """
    log_gamma, gamma_sign = _log_gamma_signed(nu)
    if value == 0:
        return 0.0
    sign = 1 if value > 0 else -1
    log_mag = (
        _log_abs(value)
        + m * math.log(2 * math.pi)
        + log_gamma
        - math.log(2)
        - math.lgamma(m + 1)
        - (nu - 1) * math.log(m)
    )
    return sign_factor * sign * gamma_sign * math.exp(log_mag)


def scaled_to_cosine(value: Fraction, k: int, nu: float) -> float:
    """(-1)^k * value * (2pi)^2k * Gamma(nu) / (2 * (2k)! * (2k)^(nu-1)).

    Log-domain scaling of an exact rational; this is the normalization under
    which both A_2k(x, nu) and the 2k-th Bernoulli moments converge to
    cosine expressions as k grows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _log_scaled(value, 2 * k, nu, (-1) ** k)


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
    from .polynomials import MPoly

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
