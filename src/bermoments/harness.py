"""Sign-conjecture checks, threshold search, and asymptotic traces.

Two sign predictions are tested exactly, coefficient by coefficient:

* (W): (-1)^k Gamma_2k(V, n+1) > 0 for every k, and
* (S): (-1)^k Gamma_2k(V, spread) >= 0 with spread = alpha_mu - alpha_1.

Exact rational bisection brackets the smallest admissible nu for a window
of indices, assuming that passing at some nu implies passing at every
larger nu (monotone in nu); nothing checks that assumption.

The checks, the threshold search and the trace sequence take a Spectrum,
a WeightSystem or TpqrParams and reach nu -> Gamma(V, nu) through
moments.gamma_of, the one nu-entry of every source, which runs the power
sums of a spectrum once; a weight system's spectrum is never built, nor
that of T_{p,q,r} at nu = 1.

The trace sequence normalizes the exact Bernoulli moments the same way the
polynomials are normalized in the cosine limit; it converges to the cosine
sum of the centered spectrum (``oracles.trace_limit``), which for a genuine
singularity is the signed monodromy trace, namely 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import record
from .moments import gamma_of


@record
class ConjectureReport:
    """Per-index verdicts of a sign-conjecture check."""

    mode: str
    nu: Fraction
    k_max: int
    rows: tuple  # (k, Gamma_2k, sign_ok)

    def __post_init__(self):
        if self.mode not in ("W", "S"):
            raise ValueError("mode must be 'W' or 'S'")

    @property
    def overall(self) -> bool:
        return all(ok for _, _, ok in self.rows)


def check_conjecture(s: Spectrum | WeightSystem | TpqrParams, mode: str, k_max: int) -> ConjectureReport:
    """Exact signs of (-1)^k Gamma_2k for k = 0..k_max.

    Mode 'W' demands strict positivity, mode 'S' allows zeros.  Exact
    rational comparison leaves no tolerance questions.
    """
    from .moments import conjecture_nu  # here, so that moments alone binds the name

    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    nu = conjecture_nu(s, mode)
    gamma = gamma_of(s, 2 * k_max)(nu)
    rows = []
    for k in range(k_max + 1):
        value = gamma.moment(2 * k)
        signed = (-1) ** k * value
        ok = signed > 0 if mode == "W" else signed >= 0
        rows.append((k, value, ok))
    return ConjectureReport(mode, nu, k_max, tuple(rows))


def nu_threshold(
    s: Spectrum | WeightSystem | TpqrParams,
    k: int,
    nu_hi,
    steps: int,
    k_cap: int | None = None,
) -> Fraction:
    """Upper estimate of the smallest nu with nonnegative signs from index k up.

    A probe at nu passes when (-1)^k' Gamma_2k'(V, nu) >= 0 for every
    k <= k' <= k_cap (k_cap defaults to k).  Bisection between 0 and nu_hi
    assumes, unchecked, that passing is monotone in nu; if it is, the result
    is a passing endpoint within nu_hi / 2**steps of the infimum over the
    probed window.  It never claims to be the true infimum.

    The assumption fails per index: for T_{5,7,11} at k = 4, Gamma_8(nu) < 0
    exactly at nu = i/32 for i = 10..19 of i = 0..128, and >= 0 on both
    sides.  Since the probe at nu = 0 passes, 0 is returned there, as it is
    whenever nu = 0 passes.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    nu_hi = Fraction(nu_hi)
    if nu_hi <= 0:
        raise ValueError("nu_hi must be positive")
    cap = k if k_cap is None else k_cap
    if cap < k:
        raise ValueError("k_cap must be >= k")
    gamma_at = gamma_of(s, 2 * cap)

    def passes(nu: Fraction) -> bool:
        gamma = gamma_at(nu)
        return all(
            (-1) ** kk * gamma.moment(2 * kk) >= 0 for kk in range(k, cap + 1)
        )

    if not passes(nu_hi):
        raise ValueError(f"the sign property already fails at nu_hi = {nu_hi}")
    if passes(Fraction(0)):
        return Fraction(0)
    lo, hi = Fraction(0), nu_hi
    for _ in range(steps):
        mid = (lo + hi) / 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def trace_convergence(s: Spectrum | WeightSystem | TpqrParams, nu, k_max: int) -> list:
    """The cosine-normalized Bernoulli moments for k = 1..k_max, as floats.

    Entry k is (-1)^k Gamma_2k * (2pi)^2k Gamma(nu) / (2 (2k)! (2k)^(nu-1)),
    computed from the exact rational moment and scaled in the log domain.
    The sequence approaches ``oracles.trace_limit``.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    nu = Fraction(nu)
    # the scaling runs in floats: refuse a nu they cannot hold before the
    # exact transform, which can take minutes
    try:
        x = float(nu)
    except OverflowError:
        x = math.inf
    if not 0 < x < math.inf:
        raise ValueError(f"nu must be a positive number within the float range, not {nu}")
    from .bernpoly import scaled_to_cosine  # here: check and nu-threshold never load bernpoly

    gamma = gamma_of(s, 2 * k_max)(nu)
    rows = []
    for k in range(1, k_max + 1):
        try:
            rows.append(scaled_to_cosine(gamma.moment(2 * k), k, x))
        except OverflowError:
            raise OverflowError(f"the trace value at k = {k} overflows a float at nu = {nu}") from None
    return rows
