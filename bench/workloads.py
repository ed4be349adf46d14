"""Seeded request generators for the bermoments benchmark.

A workload is a list of CLI requests, each the argv of one
``python -m bermoments.cli`` invocation.  The same seed always gives the
same list.  Every generated input is shown valid by arithmetic done here
(lcm band, hyperbolicity, Puiseux edge determinants), never by calling the
library, so that a library bug cannot quietly reshape the inputs.

Costs grow steeply with the sizes that matter (the common denominator D for
the quasihomogeneous expansion, kmax for the transform, n and kmax for the
Chern polynomials), so each workload is a fixed skeleton of slots with the
expensive size held in a narrow band per slot, and the seed varies the
concrete input inside the band.  That keeps the cost of a workload nearly
the same from seed to seed while the inputs, and therefore the outputs that
the exactness gate checks, differ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0

# expectation of a request: "ok" exits 0; "verdict" is a sign check that
# exits 0 (pass) or 1 (a genuine conjecture failure); "usage" is malformed
# input that must exit 2 with empty stdout and one line on stderr
OK, VERDICT, USAGE = "ok", "verdict", "usage"


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its output must satisfy."""

    rid: str
    argv: tuple
    expect: str = OK
    verify: tuple = ()  # cross-route check, interpreted by checks.verify


# -- input validity, by the benchmark's own arithmetic -------------------------


def is_hyperbolic(p: int, q: int, r: int) -> bool:
    """1/p + 1/q + 1/r < 1, decided over the integers."""
    return min(p, q, r) >= 2 and q * r + p * r + p * q < p * q * r


def puiseux_w(pairs) -> list:
    """w_1 = r_1, w_(k+1) = r_(k+1) - r_k n_(k+1) + n_k n_(k+1) w_k."""
    ws = [pairs[0][1]]
    for (n_prev, r_prev), (n_k, r_k) in zip(pairs, pairs[1:]):
        ws.append(r_k - r_prev * n_k + n_prev * n_k * ws[-1])
    return ws


def puiseux_deltas(pairs) -> list:
    """Edge determinants w_(k+1) - w_k n_k n_(k+1)."""
    ws = puiseux_w(pairs)
    return [
        ws[k + 1] - ws[k] * pairs[k][0] * pairs[k + 1][0] for k in range(len(pairs) - 1)
    ]


def puiseux_mu(pairs) -> int:
    """Milnor number: mu_1 = (n_1 - 1)(w_1 - 1), mu_(k+1) = n_(k+1) mu_k + (n_(k+1) - 1)(w_(k+1) - 1)."""
    ws = puiseux_w(pairs)
    mu = (pairs[0][0] - 1) * (ws[0] - 1)
    for (n, _), w in zip(pairs[1:], ws[1:]):
        mu = n * mu + (n - 1) * (w - 1)
    return mu


def is_valid_puiseux(pairs) -> bool:
    if not pairs or pairs[0][1] <= pairs[0][0]:
        return False
    if any(n < 2 or math.gcd(n, r) != 1 for n, r in pairs):
        return False
    return all(d > 0 for d in puiseux_deltas(pairs))


def puiseux_denominator(pairs) -> int:
    """Common denominator of the Eisenbud-Neumann expansion of the branch."""
    ws = puiseux_w(pairs)
    nprime = [1]
    for n, _ in reversed(pairs):
        nprime.append(nprime[-1] * n)
    nprime.reverse()
    moduli = {nprime[0], ws[0] * nprime[1]}
    for k in range(1, len(pairs)):
        moduli.update({ws[k] * nprime[k + 1], ws[k - 1] * nprime[k - 1], nprime[k]})
    return math.lcm(*moduli)


# -- generators -----------------------------------------------------------------


def spectrum_size(a: tuple) -> int:
    """Number of distinct sums k_1/a_1 + ... + k_m/a_m with 1 <= k_i < a_i.

    These are the distinct spectral numbers (plus one) of the Brieskorn-Pham
    singularity; the sums are kept as a bit set over the common denominator.
    """
    d = math.lcm(*a)
    sums = 1
    for ai in a:
        step, shifted = d // ai, 0
        for k in range(1, ai):
            shifted |= sums << (k * step)
        sums = shifted
    return sums.bit_count()


def brieskorn_pham(rng: random.Random, m: int, d_band: tuple, size_band: tuple) -> tuple:
    """m distinct exponents a_i in 2..40 with lcm D and spectrum size in the bands."""
    while True:
        a = tuple(sorted(rng.sample(range(2, 41), m)))
        if d_band[0] <= math.lcm(*a) <= d_band[1] and size_band[0] <= spectrum_size(a) <= size_band[1]:
            return a


def hyperbolic_triple(rng: random.Random, hi: int, product_band: tuple) -> tuple:
    """A hyperbolic triple p <= q <= r <= hi with p*q*r in the band."""
    while True:
        triple = tuple(sorted(rng.randint(2, hi) for _ in range(3)))
        if is_hyperbolic(*triple) and product_band[0] <= math.prod(triple) <= product_band[1]:
            return triple


def puiseux_data(rng: random.Random, denominator_band: tuple, mu_band: tuple) -> tuple:
    """Two Puiseux pairs with expansion denominator and mu in the bands."""
    while True:
        n1 = rng.choice((2, 3))
        r1 = rng.randint(n1 + 1, 11)
        pairs = ((n1, r1), (2, rng.randint(r1 * n1 + 1, 4 * r1 * n1)))
        if (
            is_valid_puiseux(pairs)
            and denominator_band[0] <= puiseux_denominator(pairs) <= denominator_band[1]
            and mu_band[0] <= puiseux_mu(pairs) <= mu_band[1]
        ):
            return pairs


def small_rational(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational in [lo, hi] with denominator at most 6."""
    q = rng.randint(1, 6)
    return Fraction(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)


def _weights_arg(a: tuple) -> str:
    return ",".join(f"1/{x}" for x in a)


def _triple_arg(t: tuple) -> str:
    return ",".join(map(str, t))


def _pairs_arg(pairs: tuple) -> str:
    return ",".join(f"{n}:{r}" for n, r in pairs)


# The 1/0 weight exits 1 with a ZeroDivisionError traceback at the seed
# commit instead of 2 with one line; it is kept in every workload so that
# error_rate shows it until the CLI is fixed.
ZERO_WEIGHT = Request("bad.zero-weight", ("gamma", "--weights", "1/0", "--mode", "S", "--kmax", "20"), USAGE)


# -- workloads ---------------------------------------------------------------------

# (number of weights, D band, spectrum size band): the expansion costs about
# D^2 and each moment sum is linear in the number of distinct spectral
# numbers.  The first two systems share a size band, so their four gamma and
# check requests cost about the same and the tail percentile lands on them
# whether a run fits two cycles or five.
QH_SLOTS = (
    (5, (900, 1300), (2000, 2400)),
    (4, (1200, 2500), (2000, 2400)),
    (3, (4500, 5500), (3000, 3500)),
)
QH_KMAX = 20


def qh_weights(seed: int) -> list:
    """Brieskorn-Pham systems (1/a_1..1/a_m): spectrum, gamma at S, check at W."""
    rng = random.Random(f"qh-weights/{seed}")
    requests = []
    for slot, (m, d_band, size_band) in enumerate(QH_SLOTS):
        a = brieskorn_pham(rng, m, d_band, size_band)
        w = _weights_arg(a)
        k = str(QH_KMAX)
        requests += [
            Request(f"qh{slot}.spectrum", ("spectrum", "qh", "--weights", w), OK, ("qh_spectrum", a)),
            Request(f"qh{slot}.gamma-S", ("gamma", "--weights", w, "--mode", "S", "--kmax", k), OK, ("qh_spread", a, QH_KMAX)),
            Request(f"qh{slot}.check-W", ("check", "--weights", w, "--mode", "W", "--kmax", k), VERDICT, ("qh_nplus1", a, QH_KMAX)),
        ]
    w = _weights_arg(brieskorn_pham(rng, 3, (10, 100), (1, 1000)))
    requests += [
        ZERO_WEIGHT,
        # a weight above 1/2 is rejected by argparse, which prints usage too
        Request("bad.weight-range", ("spectrum", "qh", "--weights", "1/3,3/4"), USAGE),
        Request("bad.nu-and-mode", ("gamma", "--weights", w, "--nu", "2", "--mode", "S", "--kmax", "5"), USAGE),
        Request("bad.negative-kmax", ("check", "--weights", w, "--mode", "W", "--kmax", "-1"), USAGE),
    ]
    return requests


# bit sizes in the transform grow with the log of the spectrum's
# denominators, and the moment sums with mu, so both are drawn from bands
DEEP_TPQR_MAX = 9
DEEP_TPQR_PRODUCT = (100, 200)
DEEP_CURVE_DENOMINATOR = (120, 400)
DEEP_CURVE_MU = (40, 60)


def deep_series(seed: int) -> list:
    """Small spectra pushed through high-order transforms."""
    rng = random.Random(f"deep-series/{seed}")
    t1 = hyperbolic_triple(rng, DEEP_TPQR_MAX, DEEP_TPQR_PRODUCT)
    t2 = hyperbolic_triple(rng, DEEP_TPQR_MAX, DEEP_TPQR_PRODUCT)
    curve = puiseux_data(rng, DEEP_CURVE_DENOMINATOR, DEEP_CURVE_MU)
    a1, a2 = _triple_arg(t1), _triple_arg(t2)
    c = _pairs_arg(curve)
    cap1, cap2 = rng.randint(24, 26), rng.randint(24, 26)
    trace_nu = small_rational(rng, Fraction(1), Fraction(3))
    k_lo, k_hi = rng.randint(150, 155), rng.randint(245, 250)
    x1, x2 = small_rational(rng, Fraction(-1, 2), Fraction(1, 2)), small_rational(rng, Fraction(-1, 2), Fraction(1, 2))
    nu1, nu2 = small_rational(rng, Fraction(1), Fraction(4)), small_rational(rng, Fraction(1), Fraction(4))
    return [
        Request("tpqr.gamma-S", ("gamma", "--tpqr", a1, "--mode", "S", "--kmax", "200"), OK, ("tpqr_closed", t1, 200)),
        Request("tpqr.check-S", ("check", "--tpqr", a2, "--mode", "S", "--kmax", "100"), VERDICT, ("tpqr_closed", t2, 100)),
        Request("tpqr.trace", ("trace", "--tpqr", a2, "--nu", str(trace_nu), "--kmax", "100"), OK, ("trace_rows", 100)),
        Request("curve.gamma-2", ("gamma", "--puiseux", c, "--nu", "2", "--kmax", "100"), OK),
        Request("curve.check-W", ("check", "--puiseux", c, "--mode", "W", "--kmax", "100"), VERDICT, ("same_values", "curve.gamma-2")),
        Request("tpqr.threshold", ("nu-threshold", "--tpqr", a1, "--k", "1", "--nu-hi", "2", "--steps", "24", "--k-cap", str(cap1)), OK, ("threshold", ("tpqr", t1), 1, cap1, 2, 24)),
        Request("curve.threshold", ("nu-threshold", "--puiseux", c, "--k", "1", "--nu-hi", "3", "--steps", "24", "--k-cap", str(cap2)), OK, ("threshold", ("puiseux", curve), 1, cap2, 3, 24)),
        # --x=... so that a negative x is not read as an option
        Request("apoly.value-lo", ("apoly", "--k", str(k_lo), f"--x={x1}", "--nu", str(nu1)), OK),
        Request("apoly.value-hi", ("apoly", "--k", str(k_hi), f"--x={x2}", "--nu", str(nu2)), OK),
        ZERO_WEIGHT,
        Request("bad.nu-hi-zero", ("nu-threshold", "--tpqr", a1, "--k", "1", "--nu-hi", "0", "--steps", "24"), USAGE),
        Request("bad.trace-nu-zero", ("trace", "--tpqr", a2, "--nu", "0", "--kmax", "5"), USAGE),
    ]


# (builtin, kmax): the Chern route costs grow steeply with both n and kmax.
# All six are sized to cost about the same (pn:4 a little more), so that
# twelve samples sit on that plateau even in a run of two cycles and the
# tail percentile lands on it whether a run fits two cycles or five.  The
# chi requests and both symbolic apoly requests form a second plateau, near
# interpreter start-up, that holds the median.
CHERN_SLOTS = (("pn:2", 16), ("pn:3", 9), ("pn:4", 8), ("pn:5", 6), ("k3", 16), ("genus", 22))


def chi_vector(builtin: str) -> tuple:
    """chi_p = (-1)^p chi(Omega^p) of the builtin manifolds."""
    name, _, arg = builtin.partition(":")
    if name == "pn":
        return (1,) * (int(arg) + 1)
    if name == "k3":
        return (2, 20, 2)
    g = int(arg)
    return (1 - g, 1 - g)


def chern_symbolic(seed: int) -> list:
    """Chern-number moments through the q_kj polynomials, each paired with chi."""
    rng = random.Random(f"chern-symbolic/{seed}")
    requests = []
    for name, kmax in CHERN_SLOTS:
        if name == "genus":
            builtin, n = f"genus:{rng.randint(2, 9)}", 1
        elif name == "k3":
            builtin, n = name, 2
        else:
            builtin, n = name, int(name.partition(":")[2])
        nu = str(small_rational(rng, Fraction(1, 2), Fraction(n + 1)))
        chi = ",".join(map(str, chi_vector(builtin)))
        tag = name.replace(":", "")
        requests += [
            Request(f"{tag}.chern", ("manifold", "chern", "--builtin", builtin, "--nu", nu, "--kmax", str(kmax)), OK, ("same_stdout", f"{tag}.chi")),
            # --chi=... so that a negative chi_0 is not read as an option
            Request(f"{tag}.chi", ("manifold", f"--chi={chi}", "--nu", nu, "--kmax", str(kmax)), OK),
        ]
    requests += [
        Request("apoly.symbolic-lo", ("apoly", "--k", str(rng.randint(30, 32))), OK),
        Request("apoly.symbolic-hi", ("apoly", "--k", str(rng.randint(45, 48))), OK),
        ZERO_WEIGHT,
        Request("bad.pn0", ("manifold", "chern", "--builtin", "pn:0", "--nu", "1", "--kmax", "3"), USAGE),
        Request("bad.serre", ("manifold", "--chi=1,2", "--nu", "1", "--kmax", "3"), USAGE),
    ]
    return requests


WORKLOADS = {
    "qh-weights": qh_weights,
    "deep-series": deep_series,
    "chern-symbolic": chern_symbolic,
}


def build(workload: str, seed: int) -> list:
    return WORKLOADS[workload](seed)
