"""Sparse multivariate polynomials over the rationals.

Monomials are canonical tuples of (variable, exponent) pairs sorted by
variable name, with all exponents positive; the empty tuple is the constant
monomial.  Zero coefficients are never stored.  Instances are immutable in
practice: every operation returns a fresh polynomial.

These polynomials serve as coefficient entries of
:class:`bermoments.series.TruncatedSeries`, so they accept mixed arithmetic
with ``int`` and ``Fraction`` scalars.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

Monomial = tuple


def _as_scalar(value):
    if isinstance(value, float):
        raise TypeError("float coefficients are not allowed; use Fraction")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    return None


def _mono_canon(mono) -> Monomial:
    if isinstance(mono, Mapping):
        items = mono.items()
    else:
        items = mono
    pairs = [(str(name), int(e)) for name, e in items if e]
    for _, e in pairs:
        if e < 0:
            raise ValueError("negative exponents are not supported")
    return tuple(sorted(pairs))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _collect(pairs) -> dict:
    """Sum the coefficients of equal monomials and drop the zero sums."""
    terms: dict = {}
    for mono, coeff in pairs:
        if mono in terms:
            terms[mono] += coeff
        else:
            terms[mono] = coeff
    return {mono: coeff for mono, coeff in terms.items() if coeff}


class MPoly:
    """A polynomial in named variables with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        # internal constructor: terms must already be canonical
        self._terms = terms or {}

    # -- construction -------------------------------------------------------

    @classmethod
    def const(cls, value) -> "MPoly":
        value = _as_scalar(value)
        if value is None:
            raise TypeError("constants must be int or Fraction")
        if value == 0:
            return cls()
        return cls({(): value})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "MPoly":
        if exp < 0:
            raise ValueError("negative exponents are not supported")
        if exp == 0:
            return cls.const(1)
        return cls({((name, exp),): Fraction(1)})

    @classmethod
    def from_terms(cls, items: Iterable) -> "MPoly":
        return cls(_collect((_mono_canon(mono), Fraction(coeff)) for mono, coeff in items))

    # -- access ---------------------------------------------------------------

    def terms(self) -> list:
        """Sorted list of (monomial, coefficient) pairs."""
        return sorted(self._terms.items())

    def coefficient(self, mono) -> Fraction:
        return self._terms.get(_mono_canon(mono), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def variables(self) -> set:
        names = set()
        for mono in self._terms:
            names.update(name for name, _ in mono)
        return names

    def degree(self, name: str) -> int:
        """Largest exponent of `name`; 0 for the zero polynomial."""
        best = 0
        for mono in self._terms:
            for var, e in mono:
                if var == name and e > best:
                    best = e
        return best

    def value(self) -> Fraction:
        """The value of a constant polynomial."""
        if self.variables():
            raise ValueError(f"polynomial still has variables: {self}")
        return self._terms.get((), Fraction(0))

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            return other
        scalar = _as_scalar(other)
        if scalar is None:
            return None
        return MPoly.const(scalar)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly(_collect([*self._terms.items(), *other._terms.items()]))

    __radd__ = __add__

    def __neg__(self):
        return MPoly({mono: -c for mono, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly(
            _collect(
                (_mono_mul(m1, m2), c1 * c2)
                for m1, c1 in self._terms.items()
                for m2, c2 in other._terms.items()
            )
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        scalar = _as_scalar(other)
        if scalar is None:
            return NotImplemented
        return self * (Fraction(1) / scalar)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    # -- calculus and substitution ------------------------------------------------

    def derivative(self, name: str) -> "MPoly":
        pairs = []
        for mono, coeff in self._terms.items():
            exps = dict(mono)
            e = exps.get(name, 0)
            if e:
                exps[name] = e - 1
                pairs.append((_mono_canon(exps), coeff * e))
        return MPoly(_collect(pairs))

    def subs(self, mapping: Mapping) -> "MPoly":
        """Substitute variables; values may be scalars or polynomials."""
        values = {}
        for name, val in mapping.items():
            if isinstance(val, MPoly):
                values[name] = val
            else:
                values[name] = MPoly.const(val)
        total = MPoly()
        for mono, coeff in self._terms.items():
            term = MPoly.const(coeff)
            for name, e in mono:
                if name in values:
                    term = term * values[name] ** e
                else:
                    term = term * MPoly.var(name, e)
            total = total + term
        return total

    def eval(self, mapping: Mapping) -> Fraction:
        """Substitute every variable and return the resulting scalar."""
        return self.subs(mapping).value()

    # -- printing ----------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self._terms.items(), key=lambda t: (sum(e for _, e in t[0]), t[0])):
            factors = [f"{name}^{e}" if e > 1 else name for name, e in mono]
            if factors:
                body = "*".join(factors)
                if coeff == 1:
                    parts.append(body)
                elif coeff == -1:
                    parts.append(f"-{body}")
                else:
                    parts.append(f"{coeff}*{body}")
            else:
                parts.append(str(coeff))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"MPoly({self})"
