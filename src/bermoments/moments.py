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

Each route builds MomentSeries(values, order, nu) from its even values;
:func:`gamma_of` is the one nu-entry of every source, and
:func:`bernoulli_moments` transforms a raw series read from its values.
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

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("a series needs at least a constant coefficient")
        values = tuple(_coeff(v) for v in self.values)
        if len(values) != self.order // 2 + 1:
            raise ValueError(f"{len(values)} even values do not fit order {self.order}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "nu", None if self.nu is None else Fraction(self.nu))

    @classmethod
    def from_series(cls, series: TruncatedSeries, nu=None) -> "MomentSeries":
        """The factorial-normalized values of an even Taylor series."""
        if not series.is_even():
            raise ValueError("moment series must be even in t")
        return cls(tuple(series.moment(two_k) for two_k in range(0, series.order + 1, 2)), series.order, nu)

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
        return MomentSeries(_even_mul(self.values, other.values), self.order, nu)


def _power_sums(pairs, order: int) -> tuple:
    """(N, unit, sigma): the even power sums of pairs (a_i, m_i) over integers.

    The a_i and m_i are written over common denominators, scale and unit, so
    N_k = unit * sigma^k * sum_i m_i a_i^2k (2k <= order) is an integer sum,
    with sigma = scale^2.  The even part of sum_i m_i exp(a_i t) then has the
    values N_k / (unit * sigma^k); for a spectrum or a chi vector, whose pairs
    Spectrum and ChiVector check to be symmetric about 0, the odd part cancels.
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
    return tuple(sums), unit, scale**2


def _raw_series(source, order: int) -> MomentSeries:
    """The raw series of a spectrum or a chi vector, from the power sums of its centered pairs."""
    sums, unit, sigma = _power_sums(source.centered(), order)
    return MomentSeries((Fraction(n, unit * sigma**k) for k, n in enumerate(sums)), order, None)


def moments_of_spectrum(s: Spectrum, order: int = DEFAULT_ORDER) -> MomentSeries:
    """The series sum_i m_i exp(t*(alpha_i - (n-1)/2)); even by symmetry."""
    return _raw_series(s, order)


def _transform(sums, unit: int, sigma: int, order: int, nu) -> MomentSeries:
    """Gamma(V, nu) to `order` of V_2k = N_k / (unit * sigma^k), N = `sums`.

    With nu = p/q and (4q)^j A_2j(0, nu) = H_j / L (:func:`_scaled_zero_values`),
    Gamma_2k = sum_j C(2k, 2j) V_(2k-2j) A_2j(0, nu) reads
    unit L (4 sigma q)^k Gamma_2k = sum_j C(2k, 2j) ((4q)^(k-j) N_(k-j)) (sigma^j H_j):
    one sum per row, by Horner's rule in 4q, and one Fraction.
    """
    nu = Fraction(nu)
    table, common = _scaled_zero_values(order, nu.numerator, nu.denominator)
    if sigma != 1:
        power = 1
        for j in range(1, len(table)):  # in place: no second table is held
            power *= sigma
            table[j] *= power
    values, denominator, base = [], unit * common, 4 * nu.denominator
    for k in range(len(table)):
        total = 0  # by Horner's rule in 4q, so no power of q multiplies a big N
        for c, n, h in zip(_binomial_row(2 * k)[::2], sums[k::-1], table):
            total = total * base + c * n * h
        values.append(Fraction(total, denominator))
        denominator *= base * sigma
    return MomentSeries(values, order, nu)


def bernoulli_moments(v: MomentSeries, nu) -> MomentSeries:
    """Gamma(V, nu) = V * ((t/2)/sinh(t/2))^nu; v must be a raw moment series.

    The rows of :func:`_transform`, read on the values of v: N_k = V_2k and
    unit = sigma = 1.  Equals _even_mul(v.values, _zero_values(v.order, nu)).
    """
    if not v.is_raw:
        raise ValueError("bernoulli_moments expects a raw moment series")
    return _transform(v.values, 1, 1, v.order, nu)


def gamma_of(source: Spectrum | ChiVector | WeightSystem, order: int):
    """nu -> Gamma(V, nu) to `order` of a spectrum, a chi vector or a weight system.

    The power sums of the source run once.  Each nu is then one integer sum per
    row (:func:`_transform`), or, for a weight system checked as
    spectrum_from_weights checks it, one exp of its weight product.
    """
    if hasattr(source, "centered"):  # a Spectrum or a ChiVector
        integers = _power_sums(source.centered(), order)
        return lambda nu: _transform(*integers, order, nu)
    from .spectra import _weight_quotient

    _weight_quotient(source)
    return _qh_gamma(source, order)


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
    (1/w - 1) * exp(theta(wt) - theta((1-w)t)), so V = mu exp(theta P) with
    P_2k = N_k / sigma^k = sum_w (w^2k - (1-w)^2k).
    Equals moments_of_spectrum(spectrum_from_weights(ws)).
    """
    return _qh_gamma(ws, order)()


def _qh_gamma(ws: WeightSystem, order: int):
    """nu -> Gamma(V, nu) = mu exp(theta (P + nu)) of a weight product; nu = None gives V.

    Given nu = p/q it is the exp of theta_2k q^(k-1) (q N_k + p sigma^k),
    value k divided by (sigma q)^k.  Theta and the power sums run once.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    theta = _theta_values(order // 2 + 1)
    # P_2k is the even power sum of the signed pairs (w, 1) and (1 - w, -1),
    # one of each per weight, so its unit is 1
    signed = [pair for w in ws.weights for pair in ((w, 1), (1 - w, -1))]
    sums, _, sigma = _power_sums(signed, order)

    def gamma(nu=None) -> MomentSeries:
        p, q = (0, 1) if nu is None else (Fraction(nu).numerator, Fraction(nu).denominator)
        exponent = [theta[0]]
        for k in range(1, len(theta)):
            exponent.append(theta[k] * q ** (k - 1) * (q * sums[k] + p * sigma**k))
        values = (ws.mu * e / (sigma * q) ** k for k, e in enumerate(_even_exp(exponent)))
        return MomentSeries(values, order, nu)

    return gamma


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

    def centered(self) -> tuple:
        """The pairs (p - n/2, chi_p), symmetric about 0 by Serre symmetry."""
        return tuple((Fraction(2 * p - self.n, 2), c) for p, c in enumerate(self.chi))


def moments_of_chi(chi: ChiVector, order: int = DEFAULT_ORDER) -> MomentSeries:
    """The series sum_p chi_p exp(t*(p - n/2)); even by Serre symmetry."""
    return _raw_series(chi, order)


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
