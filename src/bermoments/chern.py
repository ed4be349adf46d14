"""Moments of compact complex manifolds from Chern numbers.

Hirzebruch-Riemann-Roch turns the moment series of a manifold into an
integral of a universal expression in the Chern roots.  Expanding that
expression in elementary symmetric polynomials produces, for every k >= 1
and 0 <= j <= 2k-1, a polynomial q_kj(nu, y_1..y_j), quasihomogeneous of
degree j when y_i carries weight i, such that

    Gamma_2k(V(X), nu) = sum_j  integral_X q_kj(n - nu, c_1..c_j) * c_(n-j)

and in particular V_2k is the value at nu = 0.  The construction goes
through a Todd-like exponential with symmetric-polynomial coefficients and
a twist by exp(-nu * theta); all intermediate polynomials are stable in the
number m of variables once their weighted degree is at most m.

The commands integrate the weight-j parts of that expansion against the
Chern numbers directly; the q_kj themselves, as MPoly, are oracles in
:mod:`bermoments.oracles`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

from .kernels import _theta_values

# A symmetric polynomial in y_1, y_2, ... is kept as a dict from partitions
# (descending tuples) to coefficients: the key (2, 1, 1) stands for
# y_2 y_1^2, and its weighted degree is sum(key).


@lru_cache(maxsize=1024)
def _merge(lam: tuple, mu: tuple) -> tuple:
    """The partition of the product of the monomials lam and mu."""
    return tuple(sorted(lam + mu, reverse=True))


def _mul_into(out: dict, a: dict, b, cap: int):
    """out += a * b (b given by its items), forming only the products of weighted degree <= cap."""
    b_items = [(mu, sum(mu), y) for mu, y in b]
    for lam, x in a.items():
        room = cap - sum(lam)
        for mu, weight, y in b_items:
            if weight <= room:
                key = _merge(lam, mu)
                out[key] = out[key] + x * y if key in out else x * y


@lru_cache(maxsize=256)
def _power_sum(r: int, m: int) -> tuple:
    """p_r(x_1..x_m) in the elementary symmetric y_i, as (partition of r, coefficient) pairs.

    Newton's identity p_r = sum_{i<r} (-1)^(i-1) y_i p_(r-i) + (-1)^(r-1) r y_r,
    with y_i = 0 for i > m.
    """
    out = {(r,): (-1) ** (r - 1) * r} if r <= m else {}
    for i in range(1, min(r - 1, m) + 1):
        _mul_into(out, {(i,): (-1) ** (i - 1)}, _power_sum(r - i, m), r)
    return tuple((key, c) for key, c in out.items() if c)


def _twisted_series(m: int, t_order: int, cap: int, nu) -> tuple:
    """exp(sum_i [theta(x_i) - theta(x_i - t) + theta(t)] - nu * theta(t)) in t.

    The coefficients of t^0..t^t_order, each a partition-keyed symmetric
    polynomial of weighted degree <= `cap`.  The (k', j) term of the exponent
    has weight exactly 2k' - j, so each t^j coefficient receives finitely
    many contributions; nu * theta has weight 0.  Weights add under
    multiplication and are never negative, so a product above the cap never
    contributes and is never formed.  A rational `nu` gives Fraction values,
    and nu = MPoly.var("nu") MPoly values in nu, as in ``bernpoly._zero_values``.
    """
    # the Taylor coefficient of theta at t^2k; theta is even
    theta = [c / factorial(2 * k) for k, c in enumerate(_theta_values((t_order + cap) // 2 + 1))]
    # t s'(t) for the exponent s: coefficient j is j * s_j
    twist = [-j * nu * theta[j // 2] if j % 2 == 0 else 0 for j in range(t_order + 1)]
    slope = [{(): c} if c else {} for c in twist]
    for kp in range(1, (t_order + cap) // 2 + 1):
        for j in range(max(1, 2 * kp - cap), min(2 * kp - 1, t_order) + 1):
            scale = j * (-1) ** (j + 1) * comb(2 * kp, j) * theta[kp]
            for lam, c in _power_sum(2 * kp - j, m):
                slope[j][lam] = scale * c
    # E' = s'E, one coefficient at a time
    coeffs = [{(): Fraction(1)}]
    for k in range(1, t_order + 1):
        acc = {}
        for j in range(1, k + 1):
            _mul_into(acc, slope[j], coeffs[k - j].items(), cap)
        coeffs.append({key: value / k for key, value in acc.items() if value})
    return tuple(coeffs)


class ChernData:
    """Chern numbers of an n-dimensional manifold, indexed by partitions of n."""

    def __init__(self, n: int, numbers: dict):
        if n < 1:
            raise ValueError("n must be >= 1")
        canonical = {}
        for partition, value in numbers.items():
            key = tuple(sorted((int(p) for p in partition), reverse=True))
            if sum(key) != n or any(p < 1 for p in key):
                raise ValueError(f"{key} is not a partition of {n}")
            canonical[key] = Fraction(value)
        self.n = n
        self.numbers = canonical

    def number(self, partition) -> Fraction:
        key = tuple(sorted((int(p) for p in partition), reverse=True))
        try:
            return self.numbers[key]
        except KeyError:
            raise KeyError(f"missing Chern number for partition {key}") from None

    @classmethod
    def from_text(cls, text: str) -> "ChernData":
        """Read 'n <int>' and 'partition <p1,p2,...> value <number>' lines, one per partition."""
        from .spectra import _read_records

        n, records = _read_records(text, "partition", "value", "Chern")
        numbers = {}
        for key, value in records:
            partition = tuple(sorted((int(p) for p in key.split(",")), reverse=True))
            if partition in numbers:
                raise ValueError(f"partition {key} repeats an earlier line of the Chern file")
            numbers[partition] = value
        return cls(n, numbers)


def _integrate(graded: dict, data: ChernData, j: int) -> Fraction:
    """Pair the weight-j part of a polynomial in the Chern classes with c_(n-j)."""
    rest = (data.n - j,) if j < data.n else ()
    return sum((c * data.number(lam + rest) for lam, c in graded.items() if sum(lam) == j), Fraction())


def moment_from_chern(data: ChernData, k: int) -> Fraction:
    """V_2k of the manifold, evaluated from its Chern numbers (Gamma_2k at nu = 0)."""
    return bernoulli_moment_from_chern(data, 0, k)


def bernoulli_moment_from_chern(data: ChernData, nu, k: int) -> Fraction:
    """Gamma_2k(V(X), nu) from Chern numbers; the nu argument becomes n - nu."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return bernoulli_moments_from_chern(data, nu, k)[k]


def bernoulli_moments_from_chern(data: ChernData, nu, kmax: int) -> list:
    """Gamma_2k(V(X), nu) for k = 0..kmax from Chern numbers.

    Every q_kj of every k is the weight-j part of one expansion to t^(2 kmax)
    at the rational value n - nu, with m = cap = n (stable in m, see the
    module docstring); the coefficients of a lower order do not depend on
    the order the expansion is carried to.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    series = _twisted_series(data.n, 2 * kmax, data.n, data.n - Fraction(nu))
    values = [data.number((data.n,))]
    for k in range(1, kmax + 1):
        total = Fraction(0)
        for j in range(0, min(2 * k - 1, data.n) + 1):
            total += (-1) ** j * _integrate(series[2 * k - j], data, j)
        values.append(factorial(2 * k) * total)
    return values


def partitions_of(n: int) -> list:
    """All partitions of n as descending tuples."""
    out = []

    def _build(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, largest), 0, -1):
            _build(remaining - part, part, prefix + [part])

    _build(n, n, [])
    return out


def chern_data_pn(n: int) -> ChernData:
    """Chern numbers of P^n from c(P^n) = (1+h)^(n+1), integral of h^n = 1."""
    return ChernData(n, {lam: prod(comb(n + 1, p) for p in lam) for lam in partitions_of(n)})


def chern_data_k3() -> ChernData:
    """A K3 surface: c_1 = 0 and Euler number 24."""
    return ChernData(2, {(2,): Fraction(24), (1, 1): Fraction(0)})


def _genus(g: int) -> int:
    if g < 0:
        raise ValueError("genus must be >= 0")
    return g


def chern_data_genus(g: int) -> ChernData:
    """A compact Riemann surface of genus g >= 0: integral of c_1 = 2 - 2g."""
    return ChernData(1, {(1,): Fraction(2 - 2 * _genus(g))})


def _builtin(spec: str, pn, k3, genus):
    """Parse 'pn:N', 'k3' or 'genus:G' and call the matching builder."""
    name, sep, arg = spec.lower().partition(":")
    if name == "pn":
        return pn(int(arg))
    if name == "k3" and not sep:
        return k3()
    if name == "genus":
        return genus(_genus(int(arg)))
    raise ValueError(f"unknown builtin manifold {spec!r}")


def builtin_chern_data(spec: str) -> ChernData:
    """Dispatch 'pn:N', 'k3' or 'genus:G' to the builders above."""
    return _builtin(spec, chern_data_pn, chern_data_k3, chern_data_genus)


def builtin_chi_vector(spec: str):
    """The chi vector of the same builtin manifolds."""
    from .moments import ChiVector

    return ChiVector(
        _builtin(spec, lambda n: (1,) * (n + 1), lambda: (2, 20, 2), lambda g: (1 - g, 1 - g))
    )
