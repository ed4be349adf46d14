"""Moment generating series and their Bernoulli-moment transforms.

For a spectrum the raw moments are V_2k = sum m_i (alpha_i - (n-1)/2)^2k,
collected into the even series V(t) = sum V_2k t^2k/(2k)!.  For a compact
complex manifold the analogous series runs over the signed Euler
characteristics chi_p at exponents p - n/2.

The Bernoulli moments at parameter nu are the coefficients of

    Gamma(V, nu) = V * exp(nu * log((t/2)/sinh(t/2))),

an invertible triangular transform of the V_2k with polynomial-in-nu
coefficients.

:func:`gamma_of` is the one nu-entry of every source: the integer power
sums of a spectrum or a chi vector, then one integer sum per row, or one
exponential of the weight product of a weight system.  Its oracles (the raw
series, the transform of a series given by its values and the closed
product forms) are in :mod:`bermoments.oracles`.  The nu of each sign
conjecture, the parser of ``--chi`` and the caps on a ``--spectrum-file`` or a
chi vector, read off the source as built, are here too.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import MAX_NU_BITS_KMAX, MAX_POWER_SUM_BITS, _check_bits
from ._record import record
from .kernels import _binomial_row, _coeff, _even_exp, _even_mul, _scaled_zero_values, _theta_values

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: the chi and Chern routes never load spectra or weights
    from .series import TruncatedSeries
    from .spectra import Spectrum
    from .weights import WeightSystem


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
        from .series import _even_series  # here: no command builds a TruncatedSeries

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
    """(N, unit, sigma): the even power sums of pairs (a_i, m_i) of Fractions or ints.

    The a_i and m_i are written over common denominators, scale and unit, so
    N_k = unit * sigma^k * sum_i m_i a_i^2k (2k <= order) is an integer sum,
    with sigma = scale^2.  The even part of sum_i m_i exp(a_i t) then has the
    values N_k / (unit * sigma^k); for a spectrum or a chi vector, whose pairs
    Spectrum and ChiVector check to be symmetric about 0, the odd part cancels.
    """
    scale = lcm(*(a.denominator for a, _ in pairs))
    unit = lcm(*(m.denominator for _, m in pairs))
    squares = [(a.numerator * (scale // a.denominator)) ** 2 for a, _ in pairs]
    terms = [m.numerator * (unit // m.denominator) for _, m in pairs]
    sums = []
    for _ in range(0, order + 1, 2):
        sums.append(sum(terms))
        terms = [term * square for term, square in zip(terms, squares)]
    return tuple(sums), unit, scale**2


def _transform(sums, unit: int, sigma: int, order: int, nu, rows) -> MomentSeries:
    """Gamma(V, nu) to `order` of V_2k = N_k / (unit * sigma^k), N = `sums`.

    With nu = p/q and (4q)^j A_2j(0, nu) = H_j / L (:func:`_scaled_zero_values`),
    Gamma_2k = sum_j C(2k, 2j) V_(2k-2j) A_2j(0, nu) reads
    unit L (4 sigma q)^k Gamma_2k = sum_j C(2k, 2j) ((4q)^(k-j) N_(k-j)) (sigma^j H_j):
    one sum per row, by Horner's rule in 4q, and one Fraction.  `rows` are
    C(2k, 0), C(2k, 2), ..., C(2k, 2k) for 2k <= order, built once for every nu.
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
        for c, n, h in zip(rows[k], sums[k::-1], table):
            total = total * base + c * n * h
        values.append(Fraction(total, denominator))
        denominator *= base * sigma
    return MomentSeries(values, order, nu)


def gamma_of(source: Spectrum | ChiVector | WeightSystem, order: int):
    """nu -> Gamma(V, nu) to `order` of a spectrum, a chi vector or a weight system.

    A spectrum or a chi vector is centered here, once, and its power sums run
    once.  Each nu is then one integer sum per row (:func:`_transform`, on
    binomial rows built once), or, for a weight system checked as
    spectrum_from_weights checks it, one exp of its weight product.
    """
    if hasattr(source, "centered"):  # a Spectrum or a ChiVector
        integers = _power_sums(source.centered(), order)
        rows = [_binomial_row(2 * k)[::2] for k in range(order // 2 + 1)]
        return lambda nu: _transform(*integers, order, nu, rows)
    from .weights import _weight_quotient

    _weight_quotient(source)
    return _qh_gamma(source, order)


def _qh_gamma(ws: WeightSystem, order: int):
    """nu -> Gamma(V, nu) = mu exp(theta (P + nu)) of a weight product.

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

    def gamma(nu) -> MomentSeries:
        p, q = Fraction(nu).as_integer_ratio()
        exponent = [theta[0]]
        for k in range(1, len(theta)):
            exponent.append(theta[k] * q ** (k - 1) * (q * sums[k] + p * sigma**k))
        values = (ws.mu * e / (sigma * q) ** k for k, e in enumerate(_even_exp(exponent)))
        return MomentSeries(values, order, nu)

    return gamma


def conjecture_nu(s: Spectrum | WeightSystem, mode: str) -> Fraction:
    """The nu used by each conjecture: n+1 for (W), the spread for (S)."""
    if mode == "W":
        return Fraction(s.n + 1)
    if mode == "S":
        return s.spread
    raise ValueError("mode must be 'W' or 'S'")


def _lcm_until(denominators, most: int) -> int:
    """The lcm of the distinct denominators, built only until it has more than `most` bits."""
    out = 1
    for denominator in set(denominators):
        if (out := lcm(out, denominator)).bit_length() > most:
            break
    return out


def _check_source(source, size: int, what="--kmax", cap=MAX_NU_BITS_KMAX):
    """Cap the bits of a --spectrum-file or a chi vector, as built, against the order.

    The bits of its centered pairs (the larger of their scale, the lcm of
    their denominators, and of their largest numerator over it) are capped to
    `cap`, and (entries) * (those bits, over the unit too: the lcm of the
    denominators of the multiplicities) to MAX_POWER_SUM_BITS, each times the
    order, before any power sum runs.  The order counts as at least 1, since
    the power sums form the scale at every order, and the scale and the unit
    are built only until each alone is above a cap.  None passes.

    Nothing is centered: for a/d in lowest terms and 2c an integer, a/d - c
    has the denominator of 1/d - c, so the scale takes one Fraction per
    distinct d.
    """
    if source is None:
        return
    size = max(size, 1)
    if isinstance(source, ChiVector):  # the pairs (p, chi_p) about n/2
        name, pairs, center = "chi vector", tuple(enumerate(source.chi)), Fraction(source.n, 2)
    else:
        name, pairs, center = "spectrum", source.entries, Fraction(source.n - 1, 2)
    most = MAX_POWER_SUM_BITS // (len(pairs) * size)
    # the distinct d in entry order, so that the lcm stops where that of the centered pairs would
    distinct = dict.fromkeys(a.denominator for a, _ in pairs)
    scale = _lcm_until(((Fraction(1, d) - center).denominator for d in distinct), min(cap // size, most))
    largest = max(scale, (pairs[-1][0] - center) * scale)  # symmetric about the center: the last is the largest
    _check_bits(largest.numerator.bit_length(), size, f"(bits of the centered {name}) * {what}", cap)
    unit = _lcm_until((m.denominator for _, m in pairs), most)
    entries_bits = len(pairs) * (largest * unit).numerator.bit_length()
    _check_bits(entries_bits, size, f"(entries * bits of the centered {name}) * {what}", MAX_POWER_SUM_BITS)


# -- compact complex manifolds ---------------------------------------------------


@record
class ChiVector:
    """The signed Euler characteristics (chi_0, ..., chi_n) of a manifold, as exact Fractions.

    Those of a manifold are integers; those that ``chern.chi_vector`` reads off
    arbitrary Chern numbers may be rational.
    """

    chi: tuple

    def __post_init__(self):
        values = tuple(Fraction(_coeff(c)) for c in self.chi)
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


def _parse_chi(text: str) -> ChiVector:
    return ChiVector(tuple(int(part) for part in text.split(",")))
