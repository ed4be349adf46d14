"""The integer kernels that every numeric command runs.

Even series are handled as their factorial-normalized values
(V_0, V_2, V_4, ...): :func:`_even_mul` and :func:`_even_exp` multiply and
exponentiate them without ever forming the (2k)! denominators, and sum each
rational coefficient as integers over one common denominator.  The Bernoulli
numbers and the values of theta come from the integer tangent numbers, and
A_2j(0, nu) at a rational nu from the power recurrence of sinh(t/2)/(t/2);
each is built anew by each call, so the module keeps no state.

The coefficient arithmetic is duck typed: besides ``Fraction`` the entries
may be sparse polynomials (see :mod:`bermoments.polynomials`).  The
:class:`~bermoments.series.TruncatedSeries` operations are the oracle of
these kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# Enough precision for Bernoulli moments through k = 10.
DEFAULT_ORDER = 20


def _coeff(value):
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    if isinstance(value, int):
        return Fraction(value)
    return value


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


def _theta_values(count: int) -> tuple:
    """The even values of theta_series, -B_2k/(2k) = (-1)^k T_k / (4^k (4^k - 1)) for k < count."""
    values = [Fraction(0)]
    for k, tangent in enumerate(_tangent_numbers(count - 1), start=1):
        four = 4**k
        values.append(Fraction((-1) ** k * tangent, four * (four - 1)))
    return tuple(values)


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


def _scaled_zero_values(k: int, p: int, q: int) -> tuple:
    """(numerators, common denominator) of h_j = (4q)^j A_2j(0, p/q) for 2j <= k.

    J. C. P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) for
    s^(-p/q), s = sinh(t/2)/(t/2), gives, with no Bernoulli number,

        m (2m+1) h_m = sum_(j=1..m) C(2m+1, 2j+1) ((q-p) j - q m) q^(j-1) h_(m-j),

    for integers p and q >= 1.  The h's are held as integer numerators over
    the running lcm of their denominators, rescaled only when a row brings a
    new factor, and each row is one integer sum by Horner's rule in q, so no
    power of q multiplies a big numerator.  A lower k gives a prefix of the
    values; ``bernpoly._exp_zero_values`` is the oracle.
    """
    numerators, common = [1], 1
    for m in range(1, k // 2 + 1):
        row = _binomial_row(2 * m + 1)
        total = 0
        for j in range(m, 0, -1):
            total = total * q + row[2 * j + 1] * ((q - p) * j - q * m) * numerators[m - j]
        divisor = m * (2 * m + 1) * common
        g = gcd(total, divisor)
        total, divisor = total // g, divisor // g
        grow = divisor // gcd(common, divisor)
        if grow > 1:
            numerators = [h * grow for h in numerators]
            common *= grow
        numerators.append(total * (common // divisor))
    return numerators, common
