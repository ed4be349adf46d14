"""Weight systems of quasihomogeneous singularities and their dense expansion.

Gamma of a :class:`WeightSystem` (``moments.gamma_of``) needs no spectrum, so
a ``--weights`` request loads this module and not ``spectra``.  The dense
helpers expand products of geometric blocks over a common denominator D as
integer coefficients in S = T^(1/D), for ``spectra.spectrum_from_weights``
and ``spectra.spectrum_curve`` and for the admissibility check of weights.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from . import MAX_DENSE_LENGTH
from ._record import record


@record
class WeightSystem:
    """Normalized weights of a quasihomogeneous singularity."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        if not ws:
            raise ValueError("need at least one weight")
        for w in ws:
            if not 0 < w <= Fraction(1, 2):
                raise ValueError(f"weight {w} outside (0, 1/2]")
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return len(self.weights) - 1

    @property
    def mu(self) -> Fraction:
        """prod(1/w - 1) over the weights."""
        mu = Fraction(1)
        for w in self.weights:
            mu *= 1 / w - 1
        return mu

    @property
    def spread(self) -> Fraction:
        """sum(1 - 2w) over the weights."""
        return sum((1 - 2 * w for w in self.weights), Fraction(0))


# -- exact dense polynomial helpers (integer coefficients in the variable S) --


def _dense_length(factors: int, denom: int) -> int:
    """factors * denom + 1, refused above MAX_DENSE_LENGTH before anything is allocated."""
    length = factors * denom + 1
    if length > MAX_DENSE_LENGTH:
        raise ValueError(
            f"the expansion over the common denominator {denom} needs {length} "
            f"coefficients, above the cap of {MAX_DENSE_LENGTH}"
        )
    return length


def _binomial_quotient(steps, denom: int) -> list:
    """prod (S^a - S^denom)/(1 - S^a) over a in `steps`, as dense coefficients.

    The sparse numerator is expanded first.  Each division by 1 - S^a is the
    strided prefix sum q[e] += q[e - a]; the quotient is exact iff the top a
    coefficients of that sum vanish, and otherwise a ValueError reports the
    remainder.
    """
    quot = [0] * _dense_length(len(steps), denom)
    num = {0: 1}
    for a in steps:
        product: dict = {}
        for e, c in num.items():
            product[e + a] = product.get(e + a, 0) + c
            product[e + denom] = product.get(e + denom, 0) - c
        num = product
    for e, c in num.items():
        quot[e] = c
    for a in steps:
        for r in range(a):
            quot[r::a] = accumulate(quot[r::a])
        if any(quot[-a:]):
            raise ValueError(f"polynomial division by 1 - S^{a} left a remainder")
        del quot[-a:]
    return quot


def _nonnegative(coeffs: list) -> list:
    """The coefficients of a generating function, refused if one is negative."""
    if any(c < 0 for c in coeffs):
        raise ValueError("generating function produced a negative coefficient")
    return coeffs


def _weight_quotient(ws: WeightSystem) -> tuple:
    """(D, coefficients) of prod (T^w_i - T)/(1 - T^w_i) as a polynomial in S = T^(1/D).

    D is the lcm of the weight denominators.  A division remainder or a
    negative coefficient means the weights do not belong to a singularity.
    """
    denom = math.lcm(*(w.denominator for w in ws.weights))
    quot = _binomial_quotient([int(w * denom) for w in ws.weights], denom)
    return denom, _nonnegative(quot)
