"""Exact arithmetic core: rational scalars and truncated power series.

Everything in this package is computed over the rationals; floating point
enters only in the asymptotic and Fourier evaluators.  The scalar type is
``fractions.Fraction``, re-exported as ``Rational``.  The Bernoulli numbers
and the values of theta come from the integer tangent numbers, built anew by
each call: the module keeps no state.

A :class:`TruncatedSeries` stores the plain Taylor coefficients c_0..c_N of
a series known up to and including order N.  Coefficients beyond the order
are unknown, not zero, so binary operations insist on equal orders instead
of truncating silently.  The factorial-normalized numbers V_2k = c_2k*(2k)!
are recovered through :meth:`TruncatedSeries.moment`.

Even series are also handled directly as their factorial-normalized values
(V_0, V_2, V_4, ...): :func:`_even_mul` and :func:`_even_exp` multiply and
exponentiate them without ever forming the (2k)! denominators, and sum each
rational coefficient as integers over one common denominator.  The
TruncatedSeries operations stay as the general engine and as their oracle.

The coefficient arithmetic is duck typed: besides ``Fraction`` the entries
may be sparse polynomials (see :mod:`bermoments.polynomials`), which is how
the symbolic expansions elsewhere in the package are driven by this one
engine.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import factorial, lcm

from ._record import record

Rational = Fraction

# Enough precision for Bernoulli moments through k = 10.
DEFAULT_ORDER = 20


def _coeff(value):
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    if isinstance(value, int):
        return Fraction(value)
    return value


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


def _tangent_numbers(n: int) -> list:
    """The tangent numbers T_1 .. T_n (1, 2, 16, 272, ...), in integers.

    Brent and Harvey's in-place recurrence ("Fast computation of Bernoulli,
    tangent and secant numbers", 2011): T_k = (k-1) T_(k-1), then each pass
    k = 2..n sets T_j = (j-k) T_(j-1) + (j-k+2) T_j for j = k..n.  Every
    step multiplies by a small integer, so no fraction is ever formed.
    """
    tangent = [1] * n
    for k in range(1, n):
        tangent[k] = k * tangent[k - 1]
    for k in range(1, n):
        for j in range(k, n):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return tangent


def bernoulli_numbers(count: int) -> list:
    """B_0 .. B_{count-1}, with B_2k = -2k theta_k from the tangent numbers (:func:`_theta_values`).

    Convention B_1 = -1/2; all odd values beyond B_1 vanish and are stored as 0.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    table = [Fraction(1), Fraction(-1, 2)]
    for k, theta in enumerate(_theta_values((count + 1) // 2)[1:], start=1):
        table += [-2 * k * theta, Fraction(0)]
    return table[:count]


def _binomial_row(n: int) -> list:
    """C(n, 0), C(n, 1), ..., C(n, n); the second half mirrors the first."""
    row = [1]
    for i in range(n // 2):
        row.append(row[-1] * (n - i) // (i + 1))
    return row + row[: n - n // 2][::-1]


def _dot(weights, xs, ys):
    """sum_i weights[i] * xs[i] * ys[i] for integer weights.

    Rational terms are summed as integers over the lcm of their denominators,
    so one Fraction is formed per sum rather than one per term.  Other
    coefficient rings (polynomials) are summed term by term.
    """
    if not isinstance(xs[0], (int, Fraction)) or not isinstance(ys[0], (int, Fraction)):
        return sum((w * x * y for w, x, y in zip(weights, xs, ys)), xs[0] * 0)
    dens = [x.denominator * y.denominator for x, y in zip(xs, ys)]
    common = lcm(*dens)
    terms = zip(weights, xs, ys, dens)
    total = sum(w * x.numerator * y.numerator * (common // d) for w, x, y, d in terms)
    return Fraction(total, common)


def _even_mul(a, b) -> tuple:
    """Product of two even series given by factorial-normalized values.

    a[k] and b[k] are the coefficients at t^2k times (2k)!, of equal length;
    so is the result c_2k = sum_j C(2k, 2j) a_2j b_(2k-2j).
    """
    return tuple(_dot(_binomial_row(2 * k)[::2], a[: k + 1], b[k::-1]) for k in range(len(a)))


def _even_exp(s) -> tuple:
    """exp of an even series with zero constant term, on factorial-normalized values.

    The moment-cumulant recurrence e_2k = sum_j C(2k-1, 2j-1) s_2j e_(2k-2j)
    (E' = s'E) needs no division.
    """
    e = [s[0] * 0 + 1]
    for k in range(1, len(s)):
        e.append(_dot(_binomial_row(2 * k - 1)[1::2], s[1 : k + 1], e[k - 1 :: -1]))
    return tuple(e)


def _theta_values(count: int) -> tuple:
    """The even values of theta_series, -B_2k/(2k) = (-1)^k T_k / (4^k (4^k - 1)) for k < count."""
    values = [Fraction(0)]
    for k, tangent in enumerate(_tangent_numbers(count - 1), start=1):
        four = 4**k
        values.append(Fraction((-1) ** k * tangent, four * (four - 1)))
    return tuple(values)


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
