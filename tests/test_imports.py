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
# the names that left the module above: the second routes, which no command
# runs, for the oracle module, and the integer kernels of every numeric command
MOVED = {
    **dict.fromkeys(("DEFAULT_ORDER", "bernoulli_numbers"), "kernels"),
    **dict.fromkeys(
        (
            "cos_scaled_value", "fourier_partial_sum", "generalized_bernoulli_value", "periodize",
            "sin_scaled_value", "verify_multiplication_formula", "chern_moment_poly",
            "power_sum_in_elementary", "trace_limit", "bernoulli_moment_direct", "bernoulli_moments",
            "gamma_genus_closed", "gamma_k3_closed", "gamma_pn_closed", "gamma_qh_product_nplus1",
            "gamma_qh_product_spread", "gamma_tpqr_closed", "moments_of_chi", "moments_of_spectrum",
            "moments_qh_product", "q_exponent_poly", "q_factor_series", "abstract_spectrum",
            "thom_sebastiani",
        ),
        "oracles",
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


def run_python(*args) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=path),
    )


def loaded_after(*argv) -> set:
    result = run_python("-c", PROBE, *argv)
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
    assert loaded == {"bermoments", "cli", "chern", "kernels"}


@pytest.mark.parametrize("values", [(), ("--x", "1/3", "--nu", "5/2")])
def test_apoly_loads_only_the_polynomial_modules(values):
    loaded = loaded_after("apoly", "--k", "5", *values)
    # only the symbolic form builds an MPoly
    symbolic = set() if values else {"polynomials"}
    assert loaded == {"bermoments", "cli", "bernpoly", "kernels"} | symbolic


# argv -> the modules it loads besides bermoments and bermoments.cli; FILE is a
# spectrum file.  A --weights source loads spectra for its admissibility check
SOURCE = {"_record", "spectra", "moments", "harness", "kernels"}
SOURCES = [("--weights", "1/3,1/5"), ("--tpqr", "2,3,7"), ("--puiseux", "2:5,2:23"), ("--spectrum-file", "FILE")]
LOADS = [
    (("bernoulli", "--count", "6"), {"kernels"}),
    (("theta", "--order", "6"), {"_record", "series", "kernels"}),
    (("spectrum", "qh", "--weights", "1/3,1/5"), {"_record", "spectra"}),
    (("spectrum", "tpqr", "--p", "2", "--q", "3", "--r", "7"), {"_record", "spectra"}),
    (("spectrum", "curve", "--puiseux", "2:5,2:23"), {"_record", "spectra"}),
    (("manifold", "--chi=1,1,1", "--nu", "2", "--kmax", "3"), {"_record", "moments", "kernels"}),
    (("manifold", "chern", "--builtin", "k3", "--nu", "2", "--kmax", "3"), {"chern", "kernels"}),
    (("manifold", "chern", "--file", "FILE", "--nu", "2", "--kmax", "3"), {"_record", "chern", "kernels", "spectra"}),
]
for source in SOURCES:
    LOADS += [
        (("gamma", *source, "--mode", "S", "--kmax", "3"), SOURCE),
        (("check", *source, "--mode", "W", "--kmax", "3"), SOURCE),
        (("trace", *source, "--nu", "2", "--kmax", "3"), SOURCE | {"bernpoly"}),
        (("nu-threshold", *source, "--k", "1", "--nu-hi", "4", "--steps", "4"), SOURCE),
    ]
FILES = {"chern": "n 2\npartition 2 value 24\npartition 1,1 value 0\n", "spectrum": "n 1\nalpha -1/6 mult 1\nalpha 1/6 mult 1\n"}


def with_file(argv, tmp_path) -> tuple:
    """argv with FILE replaced by the path of a small Chern or spectrum file."""
    kind = "chern" if "chern" in argv else "spectrum"
    path = tmp_path / kind
    path.write_text(FILES[kind])
    return tuple(str(path) if word == "FILE" else word for word in argv)


@pytest.mark.parametrize("argv, modules", LOADS, ids=[" ".join(argv) for argv, _ in LOADS])
def test_each_command_loads_exactly_its_modules(tmp_path, argv, modules):
    assert loaded_after(*with_file(argv, tmp_path)) == {"bermoments", "cli"} | modules


# every command in one interpreter, which then has not loaded the oracle module
ALL_COMMANDS = """
import io, json, sys
from contextlib import redirect_stdout
from bermoments.cli import main
with redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("bermoments."))]))
"""


def test_no_command_loads_the_oracles(tmp_path):
    argvs = [with_file(argv, tmp_path) for argv, _ in LOADS]
    argvs += [("apoly", "--k", "5"), ("apoly", "--k", "5", "--x", "1/3", "--nu", "5/2"), ("--help",)]
    codes, modules = json.loads(run_python("-c", ALL_COMMANDS, json.dumps(argvs)).stdout)
    assert codes == [0] * len(argvs)
    # every other module of the package is loaded by some command
    package = {f"bermoments.{info.name}" for info in pkgutil.iter_modules(bermoments.__path__)}
    assert set(modules) == package - {"bermoments.oracles"}


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


# a numeric and a symbolic command in one interpreter started without site,
# whose .pth files may import typing on their own
NO_SITE = """
import io, json, sys
from contextlib import redirect_stdout
from bermoments.cli import main
with redirect_stdout(io.StringIO()):
    codes = [main(["gamma", "--tpqr", "2,3,7", "--nu", "1", "--kmax", "3"]), main(["apoly", "--k", "4"])]
print(json.dumps([codes, "typing" in sys.modules]))
"""


def test_no_command_loads_typing():
    # every annotation is a string, so no module imports typing to write one
    assert json.loads(run_python("-S", "-c", NO_SITE).stdout) == [[0, 0], False]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_export_is_the_module_object(module, name):
    home = MOVED.get(name, module)
    assert getattr(bermoments, name) is getattr(importlib.import_module(f"bermoments.{home}"), name)
    # a name that moved is no longer bound in its old module
    assert home == module or not hasattr(importlib.import_module(f"bermoments.{module}"), name)
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
