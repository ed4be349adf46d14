"""Traced runs: spans around every library layer, from outside the library.

As a program, ``python bench/tracer.py SPANS_FILE REQUEST_ID ARGV...`` runs
``bermoments.cli.main(ARGV)`` like ``python -m bermoments.cli ARGV...``, with
timing wrappers installed first, and writes the spans it kept in memory to
SPANS_FILE when the command ends.  The parent process turns span files into
per-function and per-layer figures with :func:`function_table` and
:func:`layer_metrics`.

A span is ``[name, start, end, parent index or -1, attrs or None]``.  Spans
of one request share the request id of their file.  ``from .x import f``
copies the function reference into the importing module, so each wrapper is
installed at every module attribute that binds the original, and the
operator methods of ``TruncatedSeries`` and ``MPoly`` are wrapped on the
classes themselves.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from fractions import Fraction

LAYERS = ("cli", "spectra", "moments", "series", "polynomials", "bernpoly", "chern", "harness")

# private functions that do a layer's work under a public entry point
PRIVATE = {"series": ("_bernoulli",)}

METHODS = {
    ("series", "TruncatedSeries"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__",
        "scale", "scale_arg", "exp", "log",
    ),
    ("polynomials", "MPoly"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
        "__truediv__", "__pow__", "subs", "eval", "derivative",
    ),
}


def _bits(series) -> int:
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coeffs)


def _spectrum_sizes(spectrum, denominator: int) -> dict:
    return {"D": denominator, "mu": int(spectrum.mu), "entries": len(spectrum.entries)}


def _curve_denominator(data) -> int:
    w, np = (None,) + data.w, data.nprime
    moduli = {np[0], w[1] * np[1]}
    for k in range(1, data.g):
        moduli.update({w[k + 1] * np[k + 1], w[k] * np[k - 1], np[k]})
    return math.lcm(*moduli)


# sizes recorded on a span from (args, result)
PROBES = {
    "spectra.spectrum_from_weights": lambda a, r: _spectrum_sizes(
        r, math.lcm(*(w.denominator for w in a[0].weights))
    ),
    "spectra.spectrum_curve": lambda a, r: _spectrum_sizes(r, _curve_denominator(a[0])),
    "spectra.spectrum_tpqr": lambda a, r: _spectrum_sizes(r, math.lcm(a[0].p, a[0].q, a[0].r)),
    "moments.moments_of_spectrum": lambda a, r: {"bits": _bits(r.series)},
    "moments.moments_of_chi": lambda a, r: {"bits": _bits(r.series)},
    "moments.bernoulli_moments": lambda a, r: {"bits": _bits(r.series), "nu": str(r.nu)},
    "harness.nu_threshold": lambda a, r: {"result": str(r)},
}
for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__", "subs"):
    # an operator may return NotImplemented, which has no terms
    PROBES[f"polynomials.MPoly.{_name}"] = lambda a, r: {"terms": len(getattr(r, "_terms", ()))}


class Tracer:
    """Keeps the spans of one process in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.cached = {}  # span name -> the lru_cache wrapper it wraps

    def wrap(self, name: str, fn):
        spans, stack, clock, probe = self.spans, self._stack, time.perf_counter, PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                span[4] = probe(args, result)
            return result

        if hasattr(fn, "cache_info"):
            self.cached[name] = fn
        return traced

    def install(self):
        """Wrap the public functions of every layer wherever they are bound."""
        import bermoments

        modules = {layer: importlib.import_module(f"bermoments.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()) and not attr.startswith("_cmd_"):
                    continue
                wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for module in (bermoments, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
        handlers = modules["cli"]._HANDLERS
        for command, handler in handlers.items():
            handlers[command] = wrapped[id(handler)]
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for attr in names:
                setattr(cls, attr, self.wrap(f"{layer}.{cls_name}.{attr}", vars(cls)[attr]))

    def dump(self, path: str, rid: str):
        caches = {}
        for name, fn in self.cached.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"request": rid, "spans": self.spans, "caches": caches}, handle)


# -- aggregation in the parent -----------------------------------------------------


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children.

    Calls are nested and single-threaded, so children never overlap and
    their durations are exactly the part of the parent they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def function_table(span_files: list) -> dict:
    """name -> [calls, inclusive seconds, self seconds] over all requests.

    Inclusive time counts only the outermost span of a name, so recursion
    through the same function is not counted twice.
    """
    table: dict = {}
    for data in span_files:
        spans = data["spans"]
        own = self_times(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[2] += own[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                row[1] += end - start
    return table


def _attr_max(span_files, prefix: str, key: str) -> int:
    return max(
        (s[4][key] for data in span_files for s in data["spans"] if s[0].startswith(prefix) and s[4]),
        default=0,
    )


def _cache_counts(span_files, name: str) -> tuple:
    """(hits, misses) of one lru cache, summed over the requests."""
    hits = sum(data["caches"].get(name, [0, 0])[0] for data in span_files)
    misses = sum(data["caches"].get(name, [0, 0])[1] for data in span_files)
    return hits, misses


def _hit_ratio(span_files, name: str) -> float:
    hits, misses = _cache_counts(span_files, name)
    return hits / (hits + misses) if hits + misses else 0.0


def _threshold_probes(span_files):
    """(probes, passing probes) of every nu_threshold call.

    Each probe is one bernoulli_moments call directly under nu_threshold.
    Bisection returns the smallest passing probe and passing is monotone in
    nu, so a probe passed exactly when its nu is at least the result.
    """
    probes = passed = 0
    for data in span_files:
        spans = data["spans"]
        for name, _, _, parent, attrs in spans:
            if name == "moments.bernoulli_moments" and parent >= 0 and spans[parent][0] == "harness.nu_threshold":
                probes += 1
                passed += Fraction(attrs["nu"]) >= Fraction(spans[parent][4]["result"])
    return probes, passed


# metric -> span names whose self time / calls it sums
SELF_S = {
    "spectra.from_weights.self_s": ("spectra.spectrum_from_weights",),
    "spectra.curve.self_s": ("spectra.spectrum_curve",),
    "moments.of_spectrum.self_s": ("moments.moments_of_spectrum",),
    "moments.of_chi.self_s": ("moments.moments_of_chi",),
    "moments.bernoulli_moments.self_s": ("moments.bernoulli_moments",),
    "series.mul.self_s": ("series.TruncatedSeries.__mul__",),
    "series.exp.self_s": ("series.TruncatedSeries.exp",),
    "series.theta.self_s": ("series.theta_series",),
    "series.bernoulli.self_s": ("series._bernoulli", "series.bernoulli_numbers"),
    "polynomials.mul.self_s": ("polynomials.MPoly.__mul__", "polynomials.MPoly.__rmul__"),
    "polynomials.add.self_s": ("polynomials.MPoly.__add__", "polynomials.MPoly.__radd__"),
    "polynomials.subs.self_s": ("polynomials.MPoly.subs",),
    # the q_kj construction: chern_moment_poly and the chern helpers under it
    "chern.moment_poly.self_s": (
        "chern.chern_moment_poly", "chern.d_poly", "chern.twisted_todd_poly",
        "chern.todd_factor_poly", "chern.graded_part", "chern.weight_truncate",
        "chern.power_sum_in_elementary", "chern.shift_difference_poly",
    ),
    "chern.bernoulli_moment.self_s": ("chern.bernoulli_moment_from_chern",),
    "bernpoly.value.self_s": ("bernpoly.centered_bernoulli_value",),
    "bernpoly.poly.self_s": ("bernpoly.centered_bernoulli_poly",),
    "harness.check.self_s": ("harness.check_conjecture",),
    "harness.trace.self_s": ("harness.trace_convergence",),
    "harness.threshold.self_s": ("harness.nu_threshold",),
}
CALLS = {
    "moments.bernoulli_moments.calls": ("moments.bernoulli_moments",),
    "series.mul.calls": ("series.TruncatedSeries.__mul__",),
    "series.exp.calls": ("series.TruncatedSeries.exp",),
    "polynomials.mul.calls": ("polynomials.MPoly.__mul__", "polynomials.MPoly.__rmul__"),
    "polynomials.add.calls": ("polynomials.MPoly.__add__", "polynomials.MPoly.__radd__"),
    "chern.moment_poly.calls": ("chern.chern_moment_poly",),
    "chern.bernoulli_moment.calls": ("chern.bernoulli_moment_from_chern",),
    "bernpoly.scaled_to_cosine.calls": ("bernpoly.scaled_to_cosine",),
}


def layer_metrics(span_files: list, stdout_bytes: int) -> dict:
    """The per-layer metrics of one traced cycle, as name -> value."""
    table = function_table(span_files)
    out = {}
    for metric, names in SELF_S.items():
        out[metric] = sum(table.get(n, (0, 0.0, 0.0))[2] for n in names)
    for metric, names in CALLS.items():
        out[metric] = sum(table.get(n, (0, 0.0, 0.0))[0] for n in names)
    out["cli.self_s"] = sum(row[2] for name, row in table.items() if name.startswith("cli._cmd_"))
    out["cli.stdout_bytes"] = stdout_bytes
    out["spectra.D_max"] = _attr_max(span_files, "spectra.", "D")
    out["spectra.mu_max"] = _attr_max(span_files, "spectra.", "mu")
    out["spectra.entries_max"] = _attr_max(span_files, "spectra.", "entries")
    out["moments.max_bits"] = _attr_max(span_files, "moments.", "bits")
    out["polynomials.terms_max"] = _attr_max(span_files, "polynomials.", "terms")
    out["series.theta.hit_ratio"] = _hit_ratio(span_files, "series.theta_series")
    out["series.bernoulli.misses"] = _cache_counts(span_files, "series._bernoulli")[1]
    out["chern.moment_poly.hit_ratio"] = _hit_ratio(span_files, "chern.chern_moment_poly")
    probes, passed = _threshold_probes(span_files)
    out["harness.threshold.probes"] = probes
    out["harness.threshold.pass_ratio"] = passed / probes if probes else 0.0
    return out


def main(argv: list) -> int:
    spans_path, rid, *cli_argv = argv
    tracer = Tracer()
    tracer.install()
    from bermoments import cli

    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, rid)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
