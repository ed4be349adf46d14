"""Moment generating series and their Bernoulli-moment transforms.

For a spectrum the raw moments are V_2k = sum m_i (alpha_i - (n-1)/2)^2k,
collected into the even series V(t) = sum V_2k t^2k/(2k)!.  For a compact
complex manifold the analogous series runs over the signed Euler
characteristics chi_p at exponents p - n/2.

The Bernoulli moments at parameter nu are the coefficients of

    Gamma(V, nu) = V * exp(nu * log((t/2)/sinh(t/2))),

an invertible triangular transform of the V_2k with polynomial-in-nu
coefficients.  This module also provides the closed product forms for
quasihomogeneous and hyperbolic singularities and for a few standard
manifolds, each written so it can be cross-checked against the definitional
route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm

from ._record import record
from .bernpoly import _from_zero_values, _scaled_zero_values, _zero_values
from .series import (
    DEFAULT_ORDER,
    TruncatedSeries,
    _binomial_row,
    _coeff,
    _dot,
    _even_exp,
    _even_mul,
    _even_series,
    _theta_values,
    bernoulli_numbers,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: the chi and Chern routes never load spectra
    from .spectra import Spectrum, TpqrParams, WeightSystem


@record
class MomentSeries:
    """An even exact series of moments, kept as its factorial-normalized values.

    ``values[k]`` is the coefficient at t^2k times (2k)! (V_2k, or Gamma_2k)
    for 2k <= ``order``.  ``nu`` is None for a raw moment series V and records
    the transform parameter for a Bernoulli-moment series Gamma(V, nu).
    """

    values: tuple
    order: int
    nu: Fraction | None

    def __init__(self, series: TruncatedSeries, nu=None):
        if not series.is_even():
            raise ValueError("moment series must be even in t")
        values = tuple(series.moment(two_k) for two_k in range(0, series.order + 1, 2))
        self._fill(values, series.order, nu)

    @classmethod
    def from_values(cls, values, order: int, nu=None) -> "MomentSeries":
        """The series sum_k values[k] t^2k/(2k)!, truncated at `order`."""
        result = cls.__new__(cls)
        result._fill(tuple(_coeff(v) for v in values), order, nu)
        return result

    def _fill(self, values: tuple, order: int, nu):
        if order < 0:
            raise ValueError("a series needs at least a constant coefficient")
        if len(values) != order // 2 + 1:
            raise ValueError(f"{len(values)} even values do not fit order {order}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "nu", None if nu is None else Fraction(nu))

    @property
    def series(self) -> TruncatedSeries:
        """The plain Taylor series, built on each call."""
        return _even_series(self.values, self.order)

    @property
    def is_raw(self) -> bool:
        return self.nu is None

    def moment(self, k: int) -> Fraction:
        """The factorial-normalized coefficient (V_k, or Gamma_k)."""
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} is beyond the truncation order {self.order}")
        return Fraction(0) if k % 2 else self.values[k // 2]

    def __mul__(self, other: "MomentSeries") -> "MomentSeries":
        if not isinstance(other, MomentSeries):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")
        if self.nu is None and other.nu is None:
            nu = None
        else:
            nu = (self.nu or Fraction(0)) + (other.nu or Fraction(0))
        return MomentSeries.from_values(_even_mul(self.values, other.values), self.order, nu)


def _exp_sum(pairs, order: int) -> MomentSeries:
    """The even part of sum_i m_i exp(a_i t) over pairs (a_i, m_i).

    Only the even power sums sum_i m_i a_i^2k are formed.  For a spectrum or
    a chi vector, whose pairs Spectrum and ChiVector check to be symmetric
    about 0, the odd ones cancel and this is the whole series.
    The a_i and m_i are written over common denominators, so each power sum
    runs over integers: V_2k = N_k / (unit * sigma^k) with sigma = scale^2.
    The series keeps that integer form for :func:`bernoulli_moments`.
    """
    pairs = [(Fraction(a), Fraction(m)) for a, m in pairs]
    scale = lcm(*(a.denominator for a, _ in pairs))
    unit = lcm(*(m.denominator for _, m in pairs))
    squares = [(a * scale).numerator ** 2 for a, _ in pairs]
    terms = [(m * unit).numerator for _, m in pairs]
    sums = []
    for _ in range(0, order + 1, 2):
        sums.append(sum(terms))
        terms = [term * square for term, square in zip(terms, squares)]
    sigma = scale**2
    values = [Fraction(n, unit * sigma**k) for k, n in enumerate(sums)]
    series = MomentSeries.from_values(values, order)
    object.__setattr__(series, "_integers", (tuple(sums), unit, sigma))
    return series


def _integer_form(v: MomentSeries) -> tuple:
    """(N, unit, sigma) with v.values[k] = N[k] / (unit * sigma^k), N integers.

    The form :func:`_exp_sum` kept, or else sigma = 1 over the lcm of the
    denominators.  It is not a field, so it plays no part in equality.
    """
    form = getattr(v, "_integers", None)
    if form is None:
        unit = lcm(*(value.denominator for value in v.values))
        form = (tuple(value.numerator * (unit // value.denominator) for value in v.values), unit, 1)
    return form


def moments_of_spectrum(s: Spectrum, order: int = DEFAULT_ORDER) -> MomentSeries:
    """The series sum_i m_i exp(t*(alpha_i - (n-1)/2)); even by symmetry."""
    return _exp_sum(s.centered(), order)


def bernoulli_moments(v: MomentSeries, nu) -> MomentSeries:
    """Gamma(V, nu) = V * exp(nu * theta); v must be a raw moment series.

    Gamma_2k = sum_j C(2k, 2j) V_(2k-2j) A_2j(0, nu), where A_2j(0, nu) are
    the values of exp(nu * theta).  It is summed in integers as far as it
    can be: with V_2k = N_k / (unit * sigma^k) (:func:`_integer_form`),
    nu = p/q and e_j = q^j A_2j(0, nu) (:func:`_scaled_zero_values`),

        unit (sigma q)^k Gamma_2k = sum_j C(2k, 2j) (q^(k-j) N_(k-j)) (sigma^j e_j),

    so the common denominator of each row comes from theta alone, never from
    sigma, unit or q.  Equals _even_mul(v.values, _zero_values(v.order, nu)).
    """
    if not v.is_raw:
        raise ValueError("bernoulli_moments expects a raw moment series")
    nu = Fraction(nu)
    q = nu.denominator
    sums, unit, sigma = _integer_form(v)
    table = list(_scaled_zero_values(v.order, nu.numerator, q))
    if sigma != 1:
        power = 1
        for j in range(1, len(table)):  # in place: no second table is held
            power *= sigma
            table[j] *= power
    if q != 1:
        sums = [n * q**i for i, n in enumerate(sums)]
    values = []
    denominator = unit
    for k in range(len(table)):
        row = _dot(_binomial_row(2 * k)[::2], sums[k::-1], table[: k + 1])
        values.append(row / denominator)
        denominator *= sigma * q
    return MomentSeries.from_values(values, v.order, nu)


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


# -- closed forms for quasihomogeneous singularities ---------------------------


def moments_qh_product(ws: WeightSystem, order: int = DEFAULT_ORDER) -> MomentSeries:
    """Raw moment series of a quasihomogeneous singularity as a weight product.

    The factor of a weight w is sinh((1-w)t/2)/sinh(wt/2), that is
    (1/w - 1) * exp(theta(wt) - theta((1-w)t)), so the product is mu times the
    exp of one even series with values theta_2k * sum_w (w^2k - (1-w)^2k).
    Its cost grows with the order and the number of weights, not
    with the spectrum.  Equals moments_of_spectrum(spectrum_from_weights(ws)).
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    theta = _theta_values(order // 2 + 1)
    # sum_w (w^2k - (1-w)^2k) is the even power sum of the signed pairs
    # (w, 1) and (1 - w, -1), one of each per weight
    signed = [pair for w in ws.weights for pair in ((w, 1), (1 - w, -1))]
    powers = _exp_sum(signed, order).values
    values = _even_exp([t * p for t, p in zip(theta, powers)])
    return MomentSeries.from_values((ws.mu * v for v in values), order)


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
    return MomentSeries.from_values(values, order, len(ws.weights))


def q_exponent_poly(k: int):
    """The weight polynomial 1 - 2w + w^2k - (1-w)^2k driving the Q factor.

    Returns a polynomial in the variable w.  It vanishes at 0, 1/2, 1; for
    k >= 2 these are its only zeros and it is positive exactly on
    (0, 1/2) and (1, +inf).
    """
    from .polynomials import MPoly

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
    return MomentSeries.from_values((ws.mu * v for v in values), order, ws.spread)


def gamma_tpqr_closed(params: TpqrParams, order: int = DEFAULT_ORDER) -> MomentSeries:
    """Bernoulli moments of T_{p,q,r} at nu = 1 (its spectral spread).

    Gamma_2k = B_2k * (-1 + p^(1-2k) + q^(1-2k) + r^(1-2k)).
    """
    bern = bernoulli_numbers(order + 1)
    sides = (Fraction(params.p), Fraction(params.q), Fraction(params.r))

    def value_at(two_k):
        return bern[two_k] * (sum(m ** (1 - two_k) for m in sides) - 1)

    return MomentSeries.from_values(map(value_at, range(0, order + 1, 2)), order, 1)


# -- compact complex manifolds ---------------------------------------------------


@record
class ChiVector:
    """The signed Euler characteristics (chi_0, ..., chi_n) of a manifold."""

    chi: tuple

    def __post_init__(self):
        values = tuple(int(c) for c in self.chi)
        if not values:
            raise ValueError("need at least chi_0")
        n = len(values) - 1
        for p, c in enumerate(values):
            if c != values[n - p]:
                raise ValueError("Serre symmetry chi_p = chi_(n-p) fails")
        object.__setattr__(self, "chi", values)

    @property
    def n(self) -> int:
        return len(self.chi) - 1


def moments_of_chi(chi: ChiVector, order: int = DEFAULT_ORDER) -> MomentSeries:
    """The series sum_p chi_p exp(t*(p - n/2)); even by Serre symmetry."""
    return _exp_sum(((Fraction(2 * p - chi.n, 2), c) for p, c in enumerate(chi.chi)), order)


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

    return MomentSeries.from_values(map(value_at, range(0, order + 1, 2)), order, n)


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

    return MomentSeries.from_values(map(value_at, range(0, order + 1, 2)), order, 2)


def gamma_genus_closed(g: int, order: int = DEFAULT_ORDER) -> MomentSeries:
    """Bernoulli moments of a genus-g Riemann surface at nu = 1.

    Gamma_2k = (1 - g) * 2 * B_2k.
    """
    bern = bernoulli_numbers(order + 1)
    values = ((1 - g) * 2 * bern[two_k] for two_k in range(0, order + 1, 2))
    return MomentSeries.from_values(values, order, 1)
