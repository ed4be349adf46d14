"""Spectra of isolated hypersurface singularities.

A spectrum is a finite multiset of rational numbers alpha_1 <= ... <= alpha_mu
attached to a singularity in n+1 variables.  It always lies in (-1, n) and is
symmetric about (n-1)/2.  Multiplicities are positive integers for genuine
singularities; positive rationals are allowed so that abstract test spectra
can be written down directly.

Constructors:

* :func:`spectrum_from_weights` expands the product generating function of a
  quasihomogeneous singularity with normalized weights in (0, 1/2] by exact
  division of its numerator by each binomial 1 - S^a (the dense expansion of
  :mod:`bermoments.weights`).
* :func:`spectrum_tpqr` builds the hyperbolic surface singularity spectrum
  {0, 1} plus the interior fractions with denominators p, q, r.
* :func:`spectrum_curve` expands the Eisenbud-Neumann generating function of
  an irreducible plane curve branch given by its Puiseux pairs.

The Thom-Sebastiani join and spectra given directly are in
:mod:`bermoments.oracles`.  The parsers of ``--tpqr``, ``--puiseux`` and
``--spectrum-file`` are here too, each a plain ValueError parser that the
command line imports when it first reads its option.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

from . import MAX_DENSE_LENGTH, MAX_FILE_CHARS, MAX_TPQR_MU, _fraction
from ._record import record

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: --tpqr and spectrum tpqr never load weights
    from .weights import WeightSystem


def _read_records(text: str, record: str, label: str, kind: str) -> tuple:
    """(n, [(key, value), ...]) from 'n <int>' and '<record> <key> <label> <value>' lines.

    Blank lines and '#' comments are skipped; keys stay strings, and values are
    read under the exponent cap of the rational arguments.  The spectrum and
    Chern-number text formats are both read this way.
    """
    n = None
    records = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "n" and len(fields) == 2:
            if n is not None:
                raise ValueError(f"{kind} file has a second 'n' line: {line!r}")
            n = int(fields[1])
        elif fields[0] == record and len(fields) == 4 and fields[2] == label:
            records.append((fields[1], _fraction(fields[3])))
        else:
            raise ValueError(f"unrecognized {kind} file line: {line!r}")
    if n is None:
        raise ValueError(f"{kind} file is missing the 'n <int>' line")
    return n, records


@record
class Spectrum:
    """Ambient parameter n plus the sorted multiset of spectral numbers."""

    n: int
    entries: tuple

    def __post_init__(self):
        # one sort by alpha (n - 1 comparisons when the input is sorted, as
        # the dense constructors' is); equal alphas are then neighbours and
        # merge there.  Reduced alphas a/d and b/e mirror about (n-1)/2 iff
        # d = e and a + b = (n-1) d, so the checks compare integers and do
        # no Fraction arithmetic per entry.
        entries = sorted(
            [
                (a if type(a) is Fraction else Fraction(a), m if type(m) is Fraction else Fraction(m))
                for a, m in self.entries
            ],
            key=itemgetter(0),
        )
        merged, ratios, last = [], [], None
        for entry in entries:
            ratio = entry[0].as_integer_ratio()
            if ratio == last:
                merged[-1] = (entry[0], merged[-1][1] + entry[1])
            else:
                merged.append(entry)
                ratios.append(ratio)
                last = ratio
        if not merged:
            raise ValueError("a spectrum needs at least one spectral number")
        for alpha, mult in merged:
            if mult.numerator <= 0:
                raise ValueError(f"multiplicity of {alpha} must be positive")
        top = self.n - 1
        # the first half meets every mirrored pair, the lower alpha first
        half = (len(merged) + 1) // 2
        for (a, d), (b, e), (alpha, mult), (_, other) in zip(
            ratios[:half], reversed(ratios), merged, reversed(merged)
        ):
            if d != e or a + b != top * d or mult != other:
                raise ValueError(
                    f"spectrum is not symmetric about {Fraction(top, 2)}: alpha = {alpha}"
                )
        (low, low_den), (high, high_den) = ratios[0], ratios[-1]
        if not (-low_den < low and high < self.n * high_den):
            raise ValueError("spectral numbers must lie strictly between -1 and n")
        object.__setattr__(self, "entries", tuple(merged))

    @property
    def mu(self) -> Fraction:
        """Total multiplicity (the Milnor number for genuine spectra)."""
        return sum((m for _, m in self.entries), Fraction(0))

    @property
    def alpha_min(self) -> Fraction:
        return self.entries[0][0]

    @property
    def alpha_max(self) -> Fraction:
        return self.entries[-1][0]

    @property
    def spread(self) -> Fraction:
        """alpha_mu - alpha_1, the nu parameter of the strong sign conjecture."""
        return self.alpha_max - self.alpha_min

    def centered(self) -> tuple:
        """Entries shifted by (n-1)/2, i.e. symmetric about 0."""
        c = Fraction(self.n - 1, 2)
        return tuple((alpha - c, mult) for alpha, mult in self.entries)

    # -- text format -----------------------------------------------------------

    def text_chunks(self):
        """The text of :meth:`to_text` in chunks of at most 1024 lines, so that no more is held."""
        yield f"n {self.n}\n"
        for i in range(0, len(self.entries), 1024):
            yield "".join(f"alpha {alpha} mult {mult}\n" for alpha, mult in self.entries[i : i + 1024])

    def to_text(self) -> str:
        return "".join(self.text_chunks())

    @classmethod
    def from_text(cls, text: str) -> "Spectrum":
        n, records = _read_records(text, "alpha", "mult", "spectrum")
        return cls(n, tuple((_fraction(alpha), mult) for alpha, mult in records))


@record
class TpqrParams:
    """Parameters of the surface singularity family T_{p,q,r}."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 2:
            raise ValueError("p, q, r must all be >= 2")

    @property
    def is_hyperbolic(self) -> bool:
        return Fraction(1, self.p) + Fraction(1, self.q) + Fraction(1, self.r) < 1

    @property
    def mu(self) -> int:
        return self.p + self.q + self.r - 1


@record
class PuiseuxData:
    """Puiseux pairs (n_i, r_i) of an irreducible plane curve branch."""

    pairs: tuple

    def __post_init__(self):
        pairs = tuple((int(n), int(r)) for n, r in self.pairs)
        if not pairs:
            raise ValueError("need at least one Puiseux pair")
        for n, r in pairs:
            if n < 2:
                raise ValueError("each n_i must be >= 2")
            if math.gcd(n, r) != 1:
                raise ValueError(f"pair ({n}, {r}) is not coprime")
        if pairs[0][1] <= pairs[0][0]:
            raise ValueError("the first pair needs r_1 > n_1")
        object.__setattr__(self, "pairs", pairs)
        for k, delta in enumerate(self.deltas, start=1):
            if delta <= 0:
                raise ValueError(
                    f"edge determinant w_{k+1} - w_{k}*n_{k}*n_{k+1} = {delta} "
                    "must be positive"
                )

    @property
    def g(self) -> int:
        return len(self.pairs)

    @property
    def w(self) -> tuple:
        """w_1..w_g with w_1 = r_1, w_(k+1) = r_(k+1) - r_k n_(k+1) + n_k n_(k+1) w_k."""
        ws = [self.pairs[0][1]]
        for k in range(1, self.g):
            n_prev, r_prev = self.pairs[k - 1]
            n_k, r_k = self.pairs[k]
            ws.append(r_k - r_prev * n_k + n_prev * n_k * ws[-1])
        return tuple(ws)

    @property
    def nprime(self) -> tuple:
        """n'_0..n'_g with n'_k = n_(k+1)*...*n_g and n'_0 the full product."""
        out = [1]
        for n, _ in reversed(self.pairs):
            out.append(out[-1] * n)
        return tuple(reversed(out))

    @property
    def deltas(self) -> tuple:
        """Edge determinants w_(k+1) - w_k n_k n_(k+1), one per adjacent pair."""
        ws = self.w
        return tuple(
            ws[k + 1] - ws[k] * self.pairs[k][0] * self.pairs[k + 1][0]
            for k in range(self.g - 1)
        )


def _entries_from_dense(coeffs: list, denom: int):
    # one Fraction per distinct multiplicity, shared by its entries, so that
    # Spectrum converts none of them
    mults = {c: Fraction(c) for c in set(coeffs)}
    return [(Fraction(e - denom, denom), mults[c]) for e, c in enumerate(coeffs) if c]


def spectrum_from_weights(ws: WeightSystem) -> Spectrum:
    """Spectrum of the quasihomogeneous singularity with the given weights.

    The exponents of the expanded generating function (see
    ``weights._weight_quotient``), shifted down by 1, are the spectral numbers.
    """
    from .weights import _weight_quotient

    denom, quot = _weight_quotient(ws)
    return Spectrum(ws.n, tuple(_entries_from_dense(quot, denom)))


def spectrum_tpqr(params: TpqrParams) -> Spectrum:
    """Spectrum of T_{p,q,r}: {0, 1} plus i/p, i/q, i/r for interior i; n = 2."""
    interior = [(Fraction(i, m), 1) for m in (params.p, params.q, params.r) for i in range(1, m)]
    return Spectrum(2, ((0, 1), (1, 1), *interior))


def spectrum_curve(data: PuiseuxData) -> Spectrum:
    """Spectrum of an irreducible plane curve branch from its Puiseux pairs.

    Expands the alternating Eisenbud-Neumann sum of products of two geometric
    blocks (T^(1/m) - T)/(1 - T^(1/m)) over a common denominator and checks
    that the combination has nonnegative integer coefficients.
    """
    from .weights import _binomial_quotient, _dense_length, _nonnegative

    w = (None,) + data.w  # 1-based
    np = data.nprime  # 0-based: n'_0 .. n'_g
    # (sign, m1, m2): one signed product of the geometric blocks of m1 and m2
    terms = [(1, np[0], w[1] * np[1])]
    for k in range(1, data.g):
        terms += [(1, w[k + 1] * np[k + 1], np[k]), (-1, w[k] * np[k - 1], np[k])]
    denom = math.lcm(*(m for _, m1, m2 in terms for m in (m1, m2)))
    total = [0] * _dense_length(2, denom)
    for sign, m1, m2 in terms:
        for e, c in enumerate(_binomial_quotient((denom // m1, denom // m2), denom)):
            total[e] += sign * c
    return Spectrum(1, tuple(_entries_from_dense(_nonnegative(total), denom)))


# -- the parsers of the spectrum options -----------------------------------------


def _tpqr_params(p: int, q: int, r: int) -> TpqrParams:
    params = TpqrParams(p, q, r)
    if params.mu > MAX_TPQR_MU:
        raise ValueError(f"mu = p + q + r - 1 = {params.mu} is above the cap of {MAX_TPQR_MU}")
    return params


def _parse_tpqr(text: str) -> TpqrParams:
    p, q, r = (int(part) for part in text.split(","))
    return _tpqr_params(p, q, r)


def _parse_puiseux(text: str) -> PuiseuxData:
    pairs = (chunk.partition(":") for chunk in text.split(","))
    return PuiseuxData(tuple((int(n), int(r)) for n, _, r in pairs))


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        text = handle.read(MAX_FILE_CHARS + 1)  # no more of the file is read
    if len(text) > MAX_FILE_CHARS:
        raise ValueError(f"the file holds more than the cap of {MAX_FILE_CHARS} characters")
    return text


def _parse_spectrum_file(path: str) -> Spectrum:
    text = _read_text(path)
    # counted before any value is parsed; every spectrum qh or curve output fits
    records = sum(1 for line in text.splitlines() if line.strip()[:1] not in ("", "#"))
    if records > MAX_DENSE_LENGTH:
        raise ValueError(f"{records} record lines are above the cap of {MAX_DENSE_LENGTH}")
    return Spectrum.from_text(text)
