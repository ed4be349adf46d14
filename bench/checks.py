"""The exactness gate: pinned digests and cross-route checks of CLI output.

For the default seed every valid request's exit code and stdout sha256 are
pinned in ``pins.json``.  For any seed the output is also checked against a
second route: the closed product forms of the library, the chi-vector route
for Chern numbers, a second CLI command computing the same values, or
arithmetic done here (the Brieskorn-Pham spectrum as a lattice-point sum,
the sign verdicts, the bisection bracket).

Imports ``bermoments``; the caller puts the source tree on ``sys.path``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from bermoments import (
    PuiseuxData,
    TpqrParams,
    WeightSystem,
    bernoulli_moments,
    gamma_qh_product_nplus1,
    gamma_qh_product_spread,
    gamma_tpqr_closed,
    moments_of_spectrum,
    spectrum_curve,
    spectrum_tpqr,
)

from workloads import USAGE, VERDICT

PINS = Path(__file__).with_name("pins.json")


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)


def outcome_error(request, exit_code: int, stdout: bytes, stderr: bytes) -> str | None:
    """Whether the exit code and streams fit the request's expectation."""
    if request.expect == USAGE:
        lines = stderr.decode(errors="replace").splitlines()
        if exit_code != 2 or stdout or len(lines) != 1:
            return f"malformed input: exit {exit_code}, {len(stdout)} stdout bytes, {len(lines)} stderr lines (want 2, 0, 1)"
        return None
    allowed = (0, 1) if request.expect == VERDICT else (0,)
    if exit_code not in allowed:
        return f"exit {exit_code}: {stderr.decode(errors='replace').strip()[-200:]}"
    if stderr:
        return f"unexpected stderr: {stderr.decode(errors='replace').strip()[-200:]}"
    return None


def pin_error(request, exit_code: int, digest: str, pins: dict) -> str | None:
    pin = pins.get(request.rid)
    if pin is None or pin["argv"] != list(request.argv):
        return "no pin for this argv"
    if (pin["exit"], pin["sha256"]) != (exit_code, digest):
        return f"pinned exit {pin['exit']} sha256 {pin['sha256'][:12]}, got exit {exit_code} sha256 {digest[:12]}"
    return None


# -- output parsers ------------------------------------------------------------------


def _indexed_values(text: str) -> list:
    """Rows 'k<TAB>value' (gamma, manifold) as a list of Fractions, k = 0, 1, ..."""
    rows = [line.split("\t") for line in text.splitlines()]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError("row indices are not 0, 1, 2, ...")
    return [Fraction(r[1]) for r in rows]


def _check_rows(text: str, mode: str):
    """Rows of a sign check; raises if a verdict contradicts its value."""
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("overall\t"):
        raise ValueError("missing overall line")
    values, verdicts = [], []
    for k, line in enumerate(lines[:-1]):
        index, value, verdict = line.split("\t")
        if int(index) != k:
            raise ValueError("row indices are not 0, 1, 2, ...")
        value = Fraction(value)
        signed = (-1) ** k * value
        if (signed > 0 if mode == "W" else signed >= 0) != (verdict == "pass"):
            raise ValueError(f"verdict {verdict} contradicts the sign of row {k}")
        values.append(value)
        verdicts.append(verdict == "pass")
    overall = lines[-1].split("\t")[1]
    if (overall == "pass") != all(verdicts):
        raise ValueError("overall verdict contradicts the rows")
    return values, overall == "pass"


def _spectrum_entries(text: str) -> tuple:
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    entries = {}
    for line in lines[1:]:
        _, alpha, _, mult = line.split()
        entries[Fraction(alpha)] = Fraction(mult)
    return n, entries


def brieskorn_pham_spectrum(a: tuple) -> dict:
    """{sum k_i/a_i - 1 : 1 <= k_i < a_i} with multiplicities, over the integers."""
    d = math.lcm(*a)
    counts = {0: 1}
    for ai in a:
        step = d // ai
        nxt: dict = {}
        for e, c in counts.items():
            for k in range(1, ai):
                nxt[e + k * step] = nxt.get(e + k * step, 0) + c
        counts = nxt
    return {Fraction(e, d) - 1: Fraction(c) for e, c in counts.items()}


def _weights(a: tuple) -> WeightSystem:
    return WeightSystem(tuple(Fraction(1, x) for x in a))


def _moments(series, kmax: int) -> list:
    return [series.moment(2 * k) for k in range(kmax + 1)]


def _source_spectrum(source: tuple):
    kind, value = source
    if kind == "tpqr":
        return spectrum_tpqr(TpqrParams(*value))
    return spectrum_curve(PuiseuxData(value))


def _threshold_error(text: str, source, k: int, cap: int, nu_hi, steps: int) -> str | None:
    """The answer must be a probe point that passes, one step above a failing one."""
    estimate = Fraction(text.strip())
    unit = Fraction(nu_hi) / 2**steps
    if not 0 <= estimate <= nu_hi or (estimate / unit).denominator != 1:
        return f"{estimate} is not a bisection probe point of [0, {nu_hi}]"
    v = moments_of_spectrum(_source_spectrum(source), 2 * cap)

    def passes(nu):
        gamma = bernoulli_moments(v, nu)
        return all((-1) ** kk * gamma.moment(2 * kk) >= 0 for kk in range(k, cap + 1))

    if not passes(estimate):
        return f"sign property fails at the returned nu = {estimate}"
    if estimate > 0 and passes(estimate - unit):
        return f"sign property already holds one step below {estimate}"
    return None


def verify(request, stdout: bytes, outputs: dict) -> str | None:
    """Cross-route check of one valid request; `outputs` maps rid -> stdout."""
    if not request.verify:
        return None
    kind, *params = request.verify
    text = stdout.decode()
    try:
        if kind == "qh_spectrum":
            (a,) = params
            n, entries = _spectrum_entries(text)
            if n != len(a) - 1 or entries != brieskorn_pham_spectrum(a):
                return "spectrum differs from the lattice-point sum"
        elif kind == "qh_spread":
            a, kmax = params
            if _indexed_values(text) != _moments(gamma_qh_product_spread(_weights(a), 2 * kmax), kmax):
                return "differs from gamma_qh_product_spread"
        elif kind == "qh_nplus1":
            a, kmax = params
            values, _ = _check_rows(text, "W")
            if values != _moments(gamma_qh_product_nplus1(_weights(a), 2 * kmax), kmax):
                return "differs from gamma_qh_product_nplus1"
        elif kind == "tpqr_closed":
            triple, kmax = params
            closed = _moments(gamma_tpqr_closed(TpqrParams(*triple), 2 * kmax), kmax)
            values = _check_rows(text, "S")[0] if request.argv[0] == "check" else _indexed_values(text)
            if values != closed:
                return "differs from gamma_tpqr_closed"
        elif kind == "same_values":
            (other,) = params
            values, _ = _check_rows(text, "W")
            if values != _indexed_values(outputs[other].decode()):
                return f"values differ from {other}"
        elif kind == "same_stdout":
            (other,) = params
            if stdout != outputs[other]:
                return f"stdout differs from {other}"
        elif kind == "trace_rows":
            (kmax,) = params
            rows = [line.split("\t") for line in text.splitlines()]
            if [int(r[0]) for r in rows] != list(range(1, kmax + 1)) or not all(
                math.isfinite(float(r[1])) for r in rows
            ):
                return "trace rows are not k = 1..kmax with finite values"
        elif kind == "threshold":
            return _threshold_error(text, *params)
        else:
            raise KeyError(kind)
    except (ValueError, IndexError) as exc:
        return f"unparsable output: {exc}"
    return None
