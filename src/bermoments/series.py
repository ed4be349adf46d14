"""Exact arithmetic core: rational scalars and truncated power series.

Everything in this package is computed over the rationals; floating point
enters only in the asymptotic and Fourier evaluators.  The scalar type is
``fractions.Fraction``, re-exported as ``Rational``.

A :class:`TruncatedSeries` stores the plain Taylor coefficients c_0..c_N of
a series known up to and including order N.  Coefficients beyond the order
are unknown, not zero, so binary operations insist on equal orders instead
of truncating silently.  The factorial-normalized numbers V_2k = c_2k*(2k)!
are recovered through :meth:`TruncatedSeries.moment`.

The commands run the even-value kernels of :mod:`bermoments.kernels`, which
multiply and exponentiate even series given by their factorial-normalized
values; the TruncatedSeries operations stay as the general engine and as
their oracle.

The coefficient arithmetic is duck typed: besides ``Fraction`` the entries
may be sparse polynomials (see :mod:`bermoments.polynomials`).
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import factorial

from ._record import record
from .kernels import _coeff, _theta_values

Rational = Fraction


@record
class TruncatedSeries:
    """A power series truncated after t**order, with exact coefficients."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series needs at least a constant coefficient")
        object.__setattr__(self, "coeffs", tuple(_coeff(c) for c in self.coeffs))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable, order: int | None = None) -> "TruncatedSeries":
        """Build a series from leading coefficients, zero-padded to `order`."""
        cs = list(coeffs)
        if order is not None:
            if len(cs) > order + 1:
                raise ValueError("more coefficients than the requested order allows")
            cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
        return cls(tuple(cs))

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(tuple(Fraction(0) for _ in range(order + 1)))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((Fraction(1),) + tuple(Fraction(0) for _ in range(order)))

    # -- basic access ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} is beyond the truncation order {self.order}")
        return self.coeffs[k]

    def moment(self, k: int):
        """Factorial-normalized coefficient c_k * k!."""
        return self.coeff(k) * factorial(k)

    def is_even(self) -> bool:
        return all(c == 0 for c in self.coeffs[1::2])

    def _require_same_order(self, other: "TruncatedSeries"):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} vs {other.order}")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TruncatedSeries(tuple(-a for a in self.coeffs))

    def scale(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by the scalar c."""
        return TruncatedSeries(tuple(a * c for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            a, b = self.coeffs, other.coeffs
            out = []
            for k in range(self.order + 1):
                acc = a[0] * b[k]
                for j in range(1, k + 1):
                    acc = acc + a[j] * b[k - j]
                out.append(acc)
            return TruncatedSeries(tuple(out))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n: int) -> "TruncatedSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers of a series")
        result = TruncatedSeries.one(self.order)
        for _ in range(n):
            result = result * self
        return result

    # -- analytic operations -------------------------------------------------

    def scale_arg(self, lam) -> "TruncatedSeries":
        """The series s(lam*t): coefficient k is multiplied by lam**k."""
        lam = _coeff(lam)
        out = []
        power = Fraction(1)
        for k, c in enumerate(self.coeffs):
            out.append(c * power)
            power = power * lam
        return TruncatedSeries(tuple(out))

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term, to the same order.

        Uses the derivative recurrence E' = s'E, which stays in the
        coefficient ring up to division by integers.
        """
        if not self.coeffs[0] == 0:
            raise ValueError("exp needs a zero constant term")
        one = self.coeffs[0] * 0 + 1
        out = [one]
        for k in range(1, self.order + 1):
            acc = self.coeffs[0] * 0
            for j in range(1, k + 1):
                acc = acc + (j * self.coeffs[j]) * out[k - j]
            out.append(Fraction(1, k) * acc)
        return TruncatedSeries(tuple(out))

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term 1; inverse of :meth:`exp`."""
        if not self.coeffs[0] == 1:
            raise ValueError("log needs constant term 1")
        zero = self.coeffs[0] * 0
        out = [zero]
        for k in range(1, self.order + 1):
            acc = k * self.coeffs[k]
            for j in range(1, k):
                acc = acc - self.coeffs[j] * ((k - j) * out[k - j])
            out.append(Fraction(1, k) * acc)
        return TruncatedSeries(tuple(out))


def exp_linear(a, order: int) -> TruncatedSeries:
    """Truncation of e**(a*t); coefficient k is a**k / k!."""
    exp_t = TruncatedSeries(tuple(Fraction(1, factorial(k)) for k in range(order + 1)))
    return exp_t.scale_arg(Fraction(a))


def _even_series(values, order: int) -> TruncatedSeries:
    """The even series sum_k values[k] t^2k/(2k)! truncated at `order`.

    ``values`` holds the factorial-normalized coefficients at t^0, t^2, ...
    to `order` or beyond; the odd coefficients are the zero of their ring.
    """
    coeffs = [values[0] * 0] * (order + 1)
    for k in range(order // 2 + 1):
        coeffs[2 * k] = values[k] / factorial(2 * k)
    return TruncatedSeries(tuple(coeffs))


def theta_series(order: int) -> TruncatedSeries:
    """log((t/2)/sinh(t/2)) truncated at `order`.

    An even series with zero constant term whose factorial-normalized
    coefficient at t**2k is -B_2k/(2k).  Exponentiating nu times this series
    is what turns plain moments into Bernoulli moments.
    """
    return _even_series(_theta_values(order // 2 + 1), order)


def sinhc_half(order: int) -> TruncatedSeries:
    """sinh(t/2)/(t/2) truncated at `order`; exp(-theta_series)."""
    values = [Fraction(1, 2**two_k * (two_k + 1)) for two_k in range(0, order + 1, 2)]
    return _even_series(values, order)
