"""Import graph: each command loads only the modules its answer needs, and
the package's lazy exports resolve to the objects of their modules."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bermoments

SRC = str(Path(bermoments.__file__).resolve().parents[1])

# every name the package exported before its exports became lazy
EXPORTS = {
    "bernpoly": (
        "centered_bernoulli_at_zero", "centered_bernoulli_poly", "centered_bernoulli_value",
        "cos_scaled_value", "fourier_partial_sum", "generalized_bernoulli_value", "periodize",
        "sin_scaled_value", "verify_multiplication_formula",
    ),
    "chern": (
        "ChernData", "bernoulli_moment_from_chern", "bernoulli_moments_from_chern",
        "builtin_chern_data", "builtin_chi_vector", "chern_data_genus", "chern_data_k3",
        "chern_data_pn", "chern_moment_poly", "moment_from_chern", "power_sum_in_elementary",
    ),
    "harness": (
        "ConjectureReport", "check_conjecture", "conjecture_nu", "nu_threshold",
        "trace_convergence", "trace_limit",
    ),
    "moments": (
        "ChiVector", "MomentSeries", "bernoulli_moment_direct", "bernoulli_moments",
        "gamma_genus_closed", "gamma_k3_closed", "gamma_pn_closed", "gamma_qh_product_nplus1",
        "gamma_qh_product_spread", "gamma_tpqr_closed", "moments_of_chi", "moments_of_spectrum",
        "moments_qh_product", "q_exponent_poly", "q_factor_series",
    ),
    "polynomials": ("MPoly",),
    "series": (
        "DEFAULT_ORDER", "Rational", "TruncatedSeries", "bernoulli_numbers", "exp_linear",
        "sinhc_half", "theta_series",
    ),
    "spectra": (
        "PuiseuxData", "Spectrum", "TpqrParams", "WeightSystem", "abstract_spectrum",
        "spectrum_curve", "spectrum_from_weights", "spectrum_tpqr", "thom_sebastiani",
    ),
}

# runs main(argv) in a fresh interpreter; prints its exit code and the modules
# it loaded: those of bermoments, and the start-up-heavy standard modules that
# no command needs
PROBE = """
import io, json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
from bermoments.cli import main
with redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
watched = ("bermoments", "dataclasses", "inspect")
print(json.dumps([code, sorted(m for m in set(sys.modules) - before if m.split(".")[0] in watched)]))
"""


def loaded_after(*argv) -> set:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )
    code, modules = json.loads(result.stdout)
    assert code == 0, result.stderr
    return {name.removeprefix("bermoments.") for name in modules}


def test_help_loads_no_computation_module():
    assert loaded_after("--help") == {"bermoments", "cli"}


def test_manifold_chi_loads_no_spectrum_or_chern_module():
    loaded = loaded_after("manifold", "--chi=1,1,1", "--nu", "2", "--kmax", "3")
    assert "moments" in loaded
    assert not loaded & {"chern", "harness", "spectra"}


def test_manifold_chern_loads_no_moment_module():
    loaded = loaded_after("manifold", "chern", "--builtin", "pn:2", "--nu", "2", "--kmax", "3")
    assert "chern" in loaded
    assert not loaded & {"moments", "bernpoly", "harness", "spectra"}
    assert loaded == {"bermoments", "cli", "_record", "chern", "series"}


@pytest.mark.parametrize("values", [(), ("--x", "1/3", "--nu", "5/2")])
def test_apoly_loads_only_the_polynomial_modules(values):
    loaded = loaded_after("apoly", "--k", "5", *values)
    # only the symbolic form builds an MPoly
    symbolic = set() if values else {"polynomials"}
    assert loaded == {"bermoments", "cli", "_record", "bernpoly", "series"} | symbolic


NUMERIC = [
    ("gamma", "--tpqr", "4,5,7", "--mode", "S", "--kmax", "2"),
    ("check", "--weights", "1/3,1/5", "--mode", "W", "--kmax", "3"),
    ("trace", "--puiseux", "2:3", "--nu", "2", "--kmax", "3"),
    ("nu-threshold", "--tpqr", "2,3,7", "--k", "1", "--nu-hi", "2", "--steps", "4"),
    ("manifold", "--chi=1,1,1", "--nu", "2", "--kmax", "3"),
]


@pytest.mark.parametrize("argv", NUMERIC)
def test_numeric_commands_load_no_polynomials(argv):
    assert "polynomials" not in loaded_after(*argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("spectrum", "qh", "--weights", "1/3,1/5"),
        ("manifold", "chern", "--builtin", "genus:2", "--nu", "1", "--kmax", "2"),
        ("apoly", "--k", "5"),
        ("apoly", "--k", "5", "--x", "1/3", "--nu", "5/2"),
    ]
    + NUMERIC,
)
def test_no_command_loads_dataclasses_or_inspect(argv):
    assert not loaded_after(*argv) & {"dataclasses", "inspect"}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_is_the_module_object(module, name):
    assert getattr(bermoments, name) is getattr(importlib.import_module(f"bermoments.{module}"), name)
    assert name in bermoments.__all__
    assert name in dir(bermoments)


def test_all_is_exactly_the_pinned_names():
    assert sorted(bermoments.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert len(bermoments.__all__) == 58
    # the package's table is the only list of public names
    for info in pkgutil.iter_modules(bermoments.__path__):
        assert not hasattr(importlib.import_module(f"bermoments.{info.name}"), "__all__"), info.name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bermoments.no_such_name
    with pytest.raises(ImportError):
        from bermoments import no_such_name  # noqa: F401
