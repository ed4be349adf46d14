"""Command-line surface: formats and exit codes."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bermoments.cli import (
    MAX_APOLY_BITS_K,
    MAX_APOLY_K,
    MAX_CHERN_DIMENSION,
    MAX_EXPONENT,
    MAX_KMAX,
    MAX_NU_BITS_KMAX,
    MAX_ORDER,
    MAX_POWER_SUM_BITS,
    MAX_STEPS,
    MAX_THRESHOLD_BITS_K,
    MAX_THRESHOLD_K,
    MAX_TPQR_MU,
    MAX_WEIGHTS,
    _build_parser,
    main,
)

from bermoments import WeightSystem
from bermoments.weights import MAX_DENSE_LENGTH

from helpers import FIXED_SYSTEMS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bernoulli(capsys):
    code, out, _ = run(capsys, "bernoulli", "--count", "4")
    assert code == 0
    assert out.splitlines() == ["1", "-1/2", "1/6", "0"]


def test_theta(capsys):
    code, out, _ = run(capsys, "theta", "--order", "4")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[2] == ["2", "-1/24"]
    assert rows[4] == ["4", "1/2880"]


def test_theta_prints_the_series_coefficients(capsys):
    # theta prints from the kernels; TruncatedSeries stays its oracle
    from bermoments import theta_series

    for order in range(65):
        code, out, err = run(capsys, "theta", "--order", str(order))
        expected = "".join(f"{k}\t{c}\n" for k, c in enumerate(theta_series(order).coeffs))
        assert (code, out, err) == (0, expected, ""), order


def test_apoly_monomials(capsys):
    code, out, _ = run(capsys, "apoly", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["x^2 nu^0 -> 1", "x^0 nu^1 -> -1/12"]


def test_apoly_evaluation(capsys):
    code, out, _ = run(capsys, "apoly", "--k", "2", "--x", "1/2", "--nu", "3")
    assert code == 0
    assert out.strip() == "0"


def test_apoly_needs_both_arguments(capsys):
    code, _, err = run(capsys, "apoly", "--k", "2", "--x", "1/2")
    assert code == 2
    assert "both" in err


def test_spectrum_qh(capsys):
    code, out, _ = run(capsys, "spectrum", "qh", "--weights", "1/3,1/2")
    assert code == 0
    assert out == "n 1\nalpha -1/6 mult 1\nalpha 1/6 mult 1\n"


def test_spectrum_tpqr_flags_non_hyperbolic(capsys):
    code, out, _ = run(capsys, "spectrum", "tpqr", "--p", "2", "--q", "2", "--r", "2")
    assert code == 0
    assert out.startswith("# non-hyperbolic")
    code, out, _ = run(capsys, "spectrum", "tpqr", "--p", "2", "--q", "3", "--r", "7")
    assert code == 0
    assert not out.startswith("#")


def test_spectrum_curve(capsys):
    code, out, _ = run(capsys, "spectrum", "curve", "--puiseux", "2:3")
    assert code == 0
    assert out == "n 1\nalpha -1/6 mult 1\nalpha 1/6 mult 1\n"


def test_spectrum_curve_invalid_pairs(capsys):
    code, _, err = run(capsys, "spectrum", "curve", "--puiseux", "2:3,2:5")
    assert code == 2
    assert "determinant" in err


def test_gamma_with_weights_and_mode(capsys):
    code, out, _ = run(capsys, "gamma", "--weights", "1/3,1/2", "--mode", "S", "--kmax", "2")
    assert code == 0
    assert out.splitlines() == ["0\t2", "1\t0", "2\t1/405"]


def test_gamma_with_spectrum_file(tmp_path, capsys):
    path = tmp_path / "cusp.spectrum"
    path.write_text("n 1\nalpha -1/6 mult 1\nalpha 1/6 mult 1\n")
    code, out, _ = run(capsys, "gamma", "--spectrum-file", str(path), "--nu", "2", "--kmax", "1")
    assert code == 0
    assert out.splitlines() == ["0\t2", "1\t-5/18"]


def test_gamma_needs_exactly_one_parameter_source(capsys):
    code, _, err = run(capsys, "gamma", "--weights", "1/2", "--kmax", "2")
    assert code == 2
    code, _, err = run(
        capsys, "gamma", "--weights", "1/2", "--nu", "1", "--mode", "S", "--kmax", "2"
    )
    assert code == 2


def test_gamma_missing_file(capsys):
    code, _, err = run(capsys, "gamma", "--spectrum-file", "/nonexistent", "--nu", "1", "--kmax", "1")
    assert code == 2
    assert "error" in err


def test_check_passing(capsys):
    code, out, _ = run(capsys, "check", "--mode", "S", "--weights", "1/3,1/2", "--kmax", "10")
    assert code == 0
    assert out.splitlines()[-1] == "overall\tpass"


def test_check_exit_one_on_failure(tmp_path, capsys):
    path = tmp_path / "lopsided.spectrum"
    path.write_text(
        "n 2\nalpha 0 mult 5\nalpha 1/2 mult 2\nalpha 1 mult 5\n"
    )
    code, out, _ = run(capsys, "check", "--mode", "W", "--spectrum-file", str(path), "--kmax", "6")
    assert code == 1
    assert out.splitlines()[-1] == "overall\tfail"


def test_check_deterministic_output(capsys):
    args = ("check", "--mode", "W", "--tpqr", "2,3,7", "--kmax", "8")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_trace_format(capsys):
    code, out, _ = run(capsys, "trace", "--tpqr", "2,3,7", "--nu", "1", "--kmax", "5")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
    assert abs(float(rows[4][1]) - 1.0) < 0.01


@pytest.mark.parametrize(
    "nu, says",
    [("1e-400", "float range, not 1/1"), ("1e400", "float range, not 1000"), ("1e20", "k = 1 overflows")],
)
def test_trace_refuses_a_nu_beyond_the_floats(capsys, monkeypatch, nu, says):
    # 1e-400 and 1e400 are refused before the exact transform, which takes
    # minutes at --kmax 256; 1e20 names the row whose scaling overflows
    from bermoments import harness

    ran = []
    gamma_of = harness.gamma_of
    monkeypatch.setattr(harness, "gamma_of", lambda *args: ran.append(args) or gamma_of(*args))
    code, out, err = run(capsys, "trace", "--tpqr", "2,3,7", "--nu", nu, "--kmax", "2")
    assert_one_error_line(code, out, err)
    assert says in err
    assert bool(ran) == (nu == "1e20")


def test_nu_threshold(capsys):
    code, out, _ = run(
        capsys, "nu-threshold", "--weights", "1/3,1/2", "--k", "1", "--nu-hi", "1", "--steps", "20"
    )
    assert code == 0
    estimate = F(out.strip())
    assert F(1, 3) <= estimate <= F(1, 3) + F(1, 2**20)


def test_weights_never_build_the_spectrum(capsys, monkeypatch):
    # Gamma of a weight system is one exp of the closed weight product per nu:
    # no Spectrum, no power sum over spectral numbers, and neither the
    # transform of a raw series nor its A_2j(0, nu) table is formed
    from bermoments import kernels, oracles, spectra

    def refuse(*args, **kwargs):
        raise AssertionError("the --weights route left the one-exp route")

    originals = (
        spectra.Spectrum,
        oracles.moments_of_spectrum,
        oracles.bernoulli_moments,
        kernels._scaled_zero_values,
    )
    # `from .x import f` binds f in each importing module, so every binding
    # in the package is patched
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bermoments"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, attr, refuse)
    for rest, rows in (
        (("gamma", "--mode", "S", "--kmax", "10"), 11),
        (("check", "--mode", "W", "--kmax", "10"), 12),
        (("trace", "--nu", "5/2", "--kmax", "10"), 10),
        (("nu-threshold", "--k", "1", "--nu-hi", "4", "--steps", "8", "--k-cap", "6"), 1),
    ):
        command, *tail = rest
        code, out, err = run(capsys, command, "--weights", "1/3,1/5,1/7", *tail)
        assert code == 0 and err == "" and len(out.splitlines()) == rows


def test_weights_power_sums_run_once_per_source(capsys, monkeypatch):
    # every nu-threshold probe is one exp: the signed power sums of the
    # weights are nu-free and run once for the whole bisection
    from bermoments import moments

    calls = []
    power_sums = moments._power_sums
    monkeypatch.setattr(moments, "_power_sums", lambda *args: calls.append(args) or power_sums(*args))
    argv = ("--k", "1", "--nu-hi", "4", "--steps", "8", "--k-cap", "6")
    code, out, err = run(capsys, "nu-threshold", "--weights", "1/3,1/5,1/7", *argv)
    assert code == 0 and err == "" and len(calls) == 1


def test_numeric_transforms_never_build_tangent_numbers(capsys, monkeypatch):
    # A_2j(0, nu) at a rational nu comes from the power recurrence of
    # sinh(t/2)/(t/2), so no numeric command of a spectrum, a chi vector or
    # apoly --x --nu reads a Bernoulli number or theta; every command that
    # does builds them from the tangent numbers
    from bermoments import kernels

    calls = []
    tangent_numbers = kernels._tangent_numbers
    monkeypatch.setattr(kernels, "_tangent_numbers", lambda n: calls.append(n) or tangent_numbers(n))
    for source in (("--tpqr", "2,3,7"), ("--puiseux", "2:5,2:23")):
        for command, *rest in (
            ("gamma", "--nu", "5/2", "--kmax", "30"),
            ("check", "--mode", "W", "--kmax", "30"),
            ("trace", "--nu", "3/2", "--kmax", "20"),
            ("nu-threshold", "--k", "1", "--nu-hi", "3", "--steps", "8", "--k-cap", "8"),
        ):
            code, out, err = run(capsys, command, *source, *rest)
            assert code == 0 and err == "" and out
    for argv in (
        ("manifold", "--chi=2,-20,2", "--nu", "7/3", "--kmax", "30"),
        ("apoly", "--k", "60", "--x", "1/3", "--nu", "5/7"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out
    assert calls == []
    for argv in (
        ("apoly", "--k", "12"),
        ("gamma", "--weights", "1/3,1/5,1/7", "--mode", "S", "--kmax", "12"),
        ("theta", "--order", "12"),
        ("bernoulli", "--count", "12"),
        ("manifold", "chern", "--builtin", "pn:2", "--nu", "4/3", "--kmax", "3"),
    ):
        calls.clear()
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out and calls, argv[0]


def _with_bits(bits: int) -> str:
    return str(2 ** (bits - 1))


def test_joint_bit_caps_admit_their_bounds_and_refuse_one_bit_more(capsys):
    # each product is taken to its cap at a small order, where the accepted
    # input runs in well under a second; one more bit is refused before any
    # series is built (trace refuses it before its check of the float range)
    kmax = 16
    nu_bits = MAX_NU_BITS_KMAX // kmax
    cases = [
        (lambda b: ("gamma", "--tpqr", "2,3,7", "--kmax", str(kmax), "--nu", "1/" + _with_bits(b)), nu_bits),
        (lambda b: ("manifold", "--chi=1,1", "--kmax", str(kmax), "--nu", _with_bits(b)), nu_bits),
        (lambda b: ("manifold", "chern", "--builtin", "pn:2", "--kmax", str(kmax), "--nu", _with_bits(b)), nu_bits),
        (lambda b: ("nu-threshold", "--tpqr", "2,3,7", "--k", "1", "--steps", "64", "--k-cap", "4",
                    "--nu-hi", _with_bits(b)), MAX_THRESHOLD_BITS_K // 4 - 64),
        (lambda b: ("apoly", "--k", "64", "--nu", "1/3", "--x=-" + _with_bits(b)), MAX_APOLY_BITS_K // 64 - 2),
    ]
    for argv, bits in cases:
        code, out, err = run(capsys, *argv(bits))
        assert code == 0 and err == "" and out, argv(bits)[0]
        code, out, err = run(capsys, *argv(bits + 1))
        assert_one_error_line(code, out, err)
        assert "is above the cap of" in err
    code, out, err = run(capsys, "trace", "--tpqr", "2,3,7", "--kmax", str(kmax), "--nu", "1/" + _with_bits(nu_bits + 1))
    assert_one_error_line(code, out, err)
    assert f"(bits of nu) * --kmax = {nu_bits + 1} * {kmax}" in err



def test_mode_s_spread_of_a_spectrum_file_is_capped(tmp_path, capsys):
    # the spread is the nu of --mode S, so it is under the same joint cap
    kmax = 16
    x = F(1, 2 ** (MAX_NU_BITS_KMAX // kmax) + 1)
    path = tmp_path / "wide.spectrum"
    path.write_text(f"n 1\nalpha {-x} mult 1\nalpha {x} mult 1\n")
    for command in ("gamma", "check"):
        code, out, err = run(capsys, command, "--mode", "S", "--spectrum-file", str(path), "--kmax", str(kmax))
        assert_one_error_line(code, out, err)
        assert f"(bits of nu) * --kmax = {MAX_NU_BITS_KMAX // kmax + 1} * {kmax}" in err


def test_bits_of_a_spectrum_file_are_capped_against_the_order(tmp_path, capsys):
    # row k of the power sums carries the centered spectral numbers over
    # their scale, the lcm of their denominators, to the power 2k whatever
    # nu is; each cap admits its bound and refuses one bit more, of the
    # scale or of the numerators (a large n), before any power sum
    def spectrum_file(bits: int, wide: bool) -> str:
        path = tmp_path / f"{'wide' if wide else 'long'}{bits}.spectrum"
        if wide:
            scale = 2 ** (bits - 1) + 1
            path.write_text(f"n 1\nalpha -1/{scale} mult 1\nalpha 1/{scale} mult 1\n")
        else:
            # centered about (n - 1)/2: scale 2, numerators +-(2^bits - 1)
            path.write_text(f"n {2 ** bits}\nalpha 0 mult 1\nalpha {2 ** bits - 1} mult 1\n")
        return str(path)

    kmax, k_cap = 16, 8
    cases = [
        (("gamma", "--nu", "1", "--kmax", str(kmax)), "--kmax", MAX_NU_BITS_KMAX // kmax),
        (("check", "--mode", "W", "--kmax", str(kmax)), "--kmax", MAX_NU_BITS_KMAX // kmax),
        (("trace", "--nu", "1", "--kmax", str(kmax)), "--kmax", MAX_NU_BITS_KMAX // kmax),
        (("nu-threshold", "--k", "1", "--nu-hi", "3", "--steps", "8", "--k-cap", str(k_cap)),
         "--k-cap", MAX_THRESHOLD_BITS_K // k_cap),
    ]
    for argv, what, bits in cases:
        code, out, err = run(capsys, *argv, "--spectrum-file", spectrum_file(bits, True))
        assert code == 0 and err == "" and out, argv[0]
        for wide in (True, False):
            code, out, err = run(capsys, *argv, "--spectrum-file", spectrum_file(bits + 1, wide))
            assert_one_error_line(code, out, err)
            # the nu of check --mode W, n + 1, is as long as the long file's
            # numerators and is refused first
            if wide or argv[0] != "check":
                assert f"(bits of the centered spectrum) * {what} = {bits + 1} * {argv[-1]}" in err
    # the long file at the bound is accepted too
    code, out, err = run(capsys, "gamma", "--nu", "1", "--kmax", str(kmax), "--spectrum-file",
                         spectrum_file(MAX_NU_BITS_KMAX // kmax, False))
    assert code == 0 and err == "" and out


ORACLE_COMMANDS = [
    ("gamma", "--mode", "S", "--kmax", "12"),
    ("gamma", "--nu", "5/2", "--kmax", "12"),
    ("check", "--mode", "W", "--kmax", "12"),
    ("check", "--mode", "S", "--kmax", "12"),
    ("trace", "--nu", "3/2", "--kmax", "12"),
    ("nu-threshold", "--k", "1", "--nu-hi", "4", "--steps", "12", "--k-cap", "6"),
]


# (the source option, the spectrum command that prints its spectrum)
SPECTRUM_SOURCES = [
    (("--weights", w), ("qh", "--weights", w))
    for w in (",".join(map(str, ws.weights)) for ws in FIXED_SYSTEMS
              + [WeightSystem((F(2, 5), F(1, 5))), WeightSystem((F(1, 3), F(1, 3), F(1, 5)))])
] + [
    (("--tpqr", "2,3,7"), ("tpqr", "--p", "2", "--q", "3", "--r", "7")),
    (("--tpqr", "3,4,5"), ("tpqr", "--p", "3", "--q", "4", "--r", "5")),
    (("--puiseux", "2:3"), ("curve", "--puiseux", "2:3")),
    (("--puiseux", "2:5,2:23"), ("curve", "--puiseux", "2:5,2:23")),
]


@pytest.mark.parametrize(
    "source, spectrum",
    SPECTRUM_SOURCES,
    ids=[value if option == "--weights" else f"{option} {value}" for (option, value), _ in SPECTRUM_SOURCES],
)
def test_weights_print_what_their_spectrum_file_prints(tmp_path, capsys, source, spectrum):
    # the closed product of --weights, and the spectrum that --tpqr and
    # --puiseux build from their checked records, against the power sums of
    # the spectrum command's output read back, byte for byte
    code, text, _ = run(capsys, "spectrum", *spectrum)
    assert code == 0
    path = tmp_path / "source.spectrum"
    path.write_text(text)
    for command, *rest in ORACLE_COMMANDS:
        by_source = run(capsys, command, *source, *rest)
        assert by_source[1] and by_source == run(capsys, command, "--spectrum-file", str(path), *rest)


@pytest.mark.parametrize("pairs", ["2:3,2:5", "2", "2:4"])
def test_invalid_puiseux_is_refused_as_it_is_parsed(capsys, pairs):
    # --puiseux builds its checked PuiseuxData as the arguments are parsed,
    # so every command refuses it as an argument error
    for argv in (
        ("spectrum", "curve"),
        ("gamma", "--nu", "1", "--kmax", "2"),
        ("check", "--mode", "W", "--kmax", "2"),
        ("trace", "--nu", "1", "--kmax", "2"),
        ("nu-threshold", "--k", "1", "--nu-hi", "2", "--steps", "4"),
    ):
        code, out, err = run(capsys, *argv, "--puiseux", pairs)
        assert_one_error_line(code, out, err)
        assert err.startswith(f"error: argument --puiseux: invalid value '{pairs}' ("), argv


def test_manifold_chi(capsys):
    code, out, _ = run(capsys, "manifold", "--chi", "2,20,2", "--nu", "2", "--kmax", "2")
    assert code == 0
    assert out.splitlines() == ["0\t24", "1\t0", "2\t12/5"]


def test_manifold_chi_needs_arguments(capsys):
    code, _, err = run(capsys, "manifold", "--chi", "2,20,2")
    assert code == 2


def test_manifold_chern_builtin(capsys):
    code, out, _ = run(capsys, "manifold", "chern", "--builtin", "k3", "--nu", "2", "--kmax", "1")
    assert code == 0
    assert out.splitlines() == ["0\t24", "1\t0"]


def test_manifold_chern_file(tmp_path, capsys):
    path = tmp_path / "p2.chern"
    path.write_text("# projective plane\nn 2\npartition 2 value 3\npartition 1,1 value 9\n")
    code, out, _ = run(capsys, "manifold", "chern", "--file", str(path), "--nu", "0", "--kmax", "1")
    assert code == 0
    assert out.splitlines() == ["0\t3", "1\t2"]


def test_manifold_chern_file_with_rational_chern_numbers(tmp_path, capsys):
    # numbers of no manifold: their chi vector (-1/8, 33/40, 33/40, -1/8) is rational
    from bermoments import ChernData
    from bermoments.oracles import bernoulli_moments_by_expansion

    path = tmp_path / "made-up.chern"
    path.write_text("n 3\npartition 3 value 7/5\npartition 2,1 value -3\npartition 1,1,1 value 11/2\n")
    code, out, err = run(capsys, "manifold", "chern", "--file", str(path), "--nu", "5/7", "--kmax", "10")
    data = ChernData(3, {(3,): F(7, 5), (2, 1): F(-3), (1, 1, 1): F(11, 2)})
    expected = "".join(f"{k}\t{v}\n" for k, v in enumerate(bernoulli_moments_by_expansion(data, F(5, 7), 10)))
    assert (code, out, err) == (0, expected, "")


def test_manifold_chern_expands_to_its_dimension_only(capsys, monkeypatch):
    # the Chern numbers enter through one expansion to t^(2 floor(n/2)) at
    # nu = 0, whatever --kmax and --nu are
    from bermoments import chern

    calls = []
    twisted_series = chern._twisted_series
    monkeypatch.setattr(chern, "_twisted_series", lambda *args: calls.append(args) or twisted_series(*args))
    for spec, n in (("genus:3", 1), ("k3", 2), ("pn:5", 5), ("pn:8", 8)):
        for nu, kmax in (("0", "0"), ("7/3", "1"), ("5/7", "64"), ("1/" + str(2**340 + 1), "24")):
            calls.clear()
            code, out, err = run(capsys, "manifold", "chern", "--builtin", spec, "--nu", nu, "--kmax", kmax)
            assert code == 0 and err == "" and len(out.splitlines()) == int(kmax) + 1
            assert [(m, t_order, cap, twist) for m, t_order, cap, twist in calls] == [(n, 2 * (n // 2), n, n)]


def test_manifold_chern_requires_one_source(capsys):
    code, _, err = run(capsys, "manifold", "chern", "--nu", "2", "--kmax", "1")
    assert code == 2
    code, _, err = run(
        capsys,
        "manifold", "chern", "--builtin", "k3", "--file", "x", "--nu", "2", "--kmax", "1",
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("manifold", "--chi=1,1", "chern", "--builtin", "pn:2", "--nu", "1", "--kmax", "2"),
        ("manifold", "--nu", "3", "--kmax", "200", "chern", "--builtin", "pn:2", "--nu", "1", "--kmax", "2"),
        ("manifold", "--kmax", "2", "chern", "--builtin", "k3", "--nu", "1", "--kmax", "2"),
    ],
)
def test_manifold_options_do_not_go_with_chern(capsys, argv):
    # manifold's own --chi would be ignored, and its --nu and --kmax replaced
    # by those of chern, so each is refused with chern
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert "do not go with chern" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("manifold", "--chi=1,x", "--nu", "1", "--kmax", "2"),
        ("manifold", "--chi=1,2", "--nu", "1", "--kmax", "2"),
        ("manifold", "chern", "--builtin", "pn", "--nu", "1", "--kmax", "2"),
        ("manifold", "chern", "--builtin", f"pn:{MAX_CHERN_DIMENSION + 1}", "--nu", "1", "--kmax", "1"),
        ("manifold", "chern", "--builtin", "genus:-3", "--nu", "1", "--kmax", "2"),
    ],
)
def test_manifold_sources_are_refused_as_their_option(capsys, argv):
    # --chi and --builtin are parsed by their argparse types, so an error
    # names the option and its value
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    option, value = argv[-6:-4] if argv[1] == "chern" else argv[1].split("=")
    assert err.startswith(f"error: argument {option}: invalid value {value!r}")


def test_usage_error_exit_code(capsys):
    assert main(["spectrum", "qh"]) == 2
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# size options under the least value their library function accepts, each
# the last option of its command line
BELOW_LEAST = [
    ("gamma", "--weights", "1/256,1/511", "--nu", "1", "--kmax", "-1"),
    ("check", "--tpqr", "2,3,7", "--mode", "S", "--kmax", "-1"),
    ("trace", "--tpqr", "2,3,7", "--nu", "1", "--kmax", "0"),
    ("manifold", "--chi=1,1", "--nu", "1", "--kmax", "-1"),
    ("manifold", "chern", "--builtin", "k3", "--nu", "1", "--kmax", "-2"),
    ("theta", "--order", "-1"),
    ("bernoulli", "--count", "0"),
    ("apoly", "--k", "-1"),
    ("nu-threshold", "--tpqr", "2,3,7", "--nu-hi", "2", "--steps", "4", "--k", "-1"),
    ("nu-threshold", "--tpqr", "2,3,7", "--nu-hi", "2", "--steps", "4", "--k", "0", "--k-cap", "-1"),
    ("nu-threshold", "--tpqr", "2,3,7", "--nu-hi", "2", "--k", "1", "--steps", "0"),
]


# weights that leave a division remainder: every command refuses them as
# spectrum qh does, though only spectrum qh builds their spectrum
UNREALIZABLE = [
    (command, "--weights", weights, *rest)
    for weights in ("2/5,1/3", "3/7,2/9,1/2")
    for command, *rest in (
        ("gamma", "--mode", "S", "--kmax", "2"),
        ("check", "--mode", "W", "--kmax", "2"),
        ("trace", "--nu", "1", "--kmax", "2"),
        ("nu-threshold", "--k", "1", "--nu-hi", "2", "--steps", "4"),
    )
]


@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", "--weights", "1/0", "--nu", "1", "--kmax", "2"),
        ("spectrum", "qh", "--weights", "1/3,3/4"),
        ("gamma", "--tpqr", "2,3", "--nu", "1", "--kmax", "2"),
        ("spectrum", "curve", "--puiseux", "2"),
        ("gamma", "--weights", "1/3,1/2", "--nu", "1/0", "--kmax", "2"),
        ("spectrum", "qh", "--weights", "2/5,1/3"),
        ("spectrum", "qh"),
        ("no-such-command",),
        ("gamma", "--weights", "1/2", "--kmax", "2"),
        ("spectrum", "qh", "--weights", "1/10000019"),
        ("gamma", "--weights", "1e-9", "--mode", "S", "--kmax", "2"),
        # size options above their caps
        ("gamma", "--tpqr", "2,3,7", "--nu", "1", "--kmax", str(MAX_KMAX + 1)),
        ("check", "--tpqr", "2,3,7", "--mode", "S", "--kmax", "100000000"),
        ("trace", "--tpqr", "2,3,7", "--nu", "1", "--kmax", str(MAX_KMAX + 1)),
        ("manifold", "--chi=1,1", "--nu", "1", "--kmax", str(MAX_KMAX + 1)),
        ("apoly", "--k", str(MAX_APOLY_K + 1)),
        ("apoly", "--k", str(MAX_APOLY_K + 1), "--x", "0", "--nu", "1"),
        ("nu-threshold", "--tpqr", "2,3,7", "--nu-hi", "2", "--steps", "4",
         "--k", str(MAX_THRESHOLD_K + 1)),
        ("nu-threshold", "--tpqr", "2,3,7", "--nu-hi", "2", "--steps", "4", "--k", "1",
         "--k-cap", str(MAX_THRESHOLD_K + 1)),
        ("nu-threshold", "--tpqr", "2,3,7", "--nu-hi", "2", "--k", "1",
         "--steps", str(MAX_STEPS + 1)),
        ("theta", "--order", str(MAX_ORDER + 1)),
        ("bernoulli", "--count", str(MAX_ORDER + 1)),
        ("manifold", "chern", "--builtin", "k3", "--nu", "1", "--kmax", str(MAX_KMAX + 1)),
        ("manifold", "chern", "--builtin", f"pn:{MAX_CHERN_DIMENSION + 1}", "--nu", "1", "--kmax", "1"),
        ("manifold", "chern", "--builtin", "pn:100000", "--nu", "1", "--kmax", "1"),
        ("manifold", "chern", "--builtin", "k3", "--nu", "1", "--kmax", "-1"),
        # T_{p,q,r} spectra with more than MAX_TPQR_MU entries
        ("gamma", "--tpqr", "2,3,200000", "--nu", "1", "--kmax", "2"),
        ("spectrum", "tpqr", "--p", "2", "--q", "2", "--r", "200000"),
        ("spectrum", "tpqr", "--p", "2", "--q", "2", "--r", str(MAX_TPQR_MU - 2)),
        # decimal exponents above the cap are refused before 10**e is formed
        ("gamma", "--tpqr", "2,3,7", "--nu", "1e10000000", "--kmax", "2"),
        ("gamma", "--tpqr", "2,3,7", "--nu", f"1e{MAX_EXPONENT + 1}", "--kmax", "2"),
        ("gamma", "--tpqr", "2,3,7", f"--nu=-2.5E-{MAX_EXPONENT + 1}", "--kmax", "2"),
        ("spectrum", "qh", "--weights", "1e-100000000"),
        ("gamma", "--weights", "1/3,1e-100000000", "--nu", "1", "--kmax", "2"),
        ("apoly", "--k", "2", "--x", "1e9999999", "--nu", "1"),
        ("nu-threshold", "--tpqr", "2,3,7", "--nu-hi", "1e1_0000000", "--steps", "4", "--k", "1"),
        # more weights than the cap, each of them small
        ("gamma", "--weights", ",".join(["1/2"] * (MAX_WEIGHTS + 1)), "--nu", "1", "--kmax", "2"),
        ("manifold", "chern", "--builtin", "k3:5", "--nu", "1", "--kmax", "2"),
        ("manifold", "chern", "--builtin", "genus:-3", "--nu", "1", "--kmax", "3"),
    ]
    + BELOW_LEAST
    # an empty --builtin is a source of its own, not a missing one
    + [("manifold", "chern", "--builtin", "", "--nu", "1", "--kmax", "2")]
    + UNREALIZABLE,
)
def test_input_errors_are_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    if argv in BELOW_LEAST:
        # refused as parsed, before any spectrum is built, naming the option
        assert f"argument {argv[-2]}: {argv[-1]} is below the least value" in err
    if argv in UNREALIZABLE:
        _, _, spectrum_err = run(capsys, "spectrum", "qh", "--weights", argv[2])
        assert "remainder" in err and err == spectrum_err


@pytest.mark.parametrize(
    "name, text",
    [
        ("big.spectrum", "n 1\nalpha 1e10000000 mult 1\n"),
        ("small.spectrum", "n 1\nalpha -1e-10000000 mult 1\nalpha 1e-10000000 mult 1\n"),
        ("big.chern", "n 1\npartition 1 value 1e10000000\n"),
        ("small.chern", "n 1\npartition 1 value 1e-10000000\n"),
    ],
)
def test_file_values_obey_the_exponent_cap(tmp_path, capsys, name, text):
    # the files are read with the rule of the rational arguments, before
    # Fraction('1e10000000') would compute 10**10000000
    path = tmp_path / name
    path.write_text(text)
    if name.endswith(".chern"):
        argv = ("manifold", "chern", "--file", str(path), "--nu", "0", "--kmax", "1")
    else:
        argv = ("gamma", "--spectrum-file", str(path), "--nu", "1", "--kmax", "1")
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert f"cap of +-{MAX_EXPONENT}" in err


@pytest.mark.parametrize("digits", [MAX_EXPONENT, MAX_EXPONENT + 1])
@pytest.mark.parametrize("kind", ["spectrum", "chern"])
def test_file_values_obey_the_digit_limit(tmp_path, capsys, kind, digits):
    # a plain p/q in a file is parsed with the arguments, under the digit
    # limit of int(), as the same value in argv is
    one, six = "1" + "0" * (digits - 1), "6" + "0" * (digits - 1)
    path = tmp_path / f"plain.{kind}"
    if kind == "chern":
        path.write_text(f"n 1\npartition 1 value {six}/{one}\n")
        argv = ("manifold", "chern", "--file", str(path), "--nu", "0", "--kmax", "1")
        expected = ["0\t6", "1\t3/2"]
    else:
        path.write_text(f"n 1\nalpha -{one}/{six} mult 1\nalpha {one}/{six} mult 1\n")
        argv = ("gamma", "--spectrum-file", str(path), "--nu", "2", "--kmax", "1")
        expected = ["0\t2", "1\t-5/18"]
    code, out, err = run(capsys, *argv)
    if digits > sys.get_int_max_str_digits():
        assert_one_error_line(code, out, err)
        assert f"has {digits} digits" in err
    else:
        assert code == 0 and out.splitlines() == expected


def _parsed(parser, argv) -> tuple:
    """(namespace or exit code, stdout, stderr) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


COMMANDS = ("bernoulli", "theta", "apoly", "spectrum", "gamma", "check", "trace", "nu-threshold", "manifold")


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["-h"], ["nope"], ["-"], ["--kmax", "2"], ["-1", "gamma"], ["gamma", "gamma"]]
    + [[command, "--help"] for command in COMMANDS]
    + [[command] for command in COMMANDS]
    + [
        ["spectrum", "qh", "--help"], ["spectrum", "tpqr", "--p", "2"], ["spectrum", "curve", "--puiseux", "2:3"],
        ["manifold", "chern", "--help"], ["manifold", "chern", "--builtin", "k3", "--nu", "1"],
        ["manifold", "--chi=2,20,2", "--nu", "1", "--kmax", "2"],
        ["gamma", "--tpqr", "2,3,7", "--nu", "1", "--kmax", str(MAX_KMAX + 1)],
        ["gamma", "--tpqr", "2,3,7", "--weights", "1/3", "--nu", "1", "--kmax", "2"],
        ["gamma", "--tpqr", "2,3,7", "--nu", "1", "--kmax", "2", "--steps", "3"],
        ["check", "--puiseux", "2:3", "--mode", "X", "--kmax", "2"],
        ["nu-threshold", "--tpqr", "2,3,7", "--k", "1", "--nu-hi", "2", "--steps", "4", "--k-ca", "3"],
        ["apoly", "--k", "x"], ["apoly", "--k", "4", "--nu", "1/0"], ["theta", "--order", "4", "extra"],
        ["--help", "gamma"], ["bernoulli", "--count", "0"], ["trace", "--tpqr", "2,3,7", "--nu", "1", "--kmax", "0"],
    ],
)
def test_one_sub_parser_reads_as_all_of_them(argv):
    # main builds the arguments of the named sub-command only; help, usage
    # errors and the parsed arguments are those of the parser of all of them
    assert _parsed(_build_parser(argv), argv) == _parsed(_build_parser(), argv)


def test_caps_admit_their_bounds():
    parser = _build_parser()
    accepted = [
        ["gamma", "--tpqr", "2,3,7", "--nu", "1", "--kmax", str(MAX_KMAX)],
        ["apoly", "--k", str(MAX_APOLY_K)],
        ["nu-threshold", "--tpqr", "2,3,7", "--nu-hi", "2", "--steps", str(MAX_STEPS),
         "--k", str(MAX_THRESHOLD_K), "--k-cap", str(MAX_THRESHOLD_K)],
        ["theta", "--order", str(MAX_ORDER)],
        ["bernoulli", "--count", str(MAX_ORDER)],
        ["manifold", "chern", "--builtin", "pn:8", "--nu", "1", "--kmax", str(MAX_KMAX)],
        ["gamma", "--tpqr", "2,3,7", "--nu", f"1e{MAX_EXPONENT}", "--kmax", "1"],
        ["apoly", "--k", "2", f"--x=-1.5e-{MAX_EXPONENT}", "--nu", "1"],
        ["gamma", "--weights", ",".join(["1/2"] * MAX_WEIGHTS), "--nu", "1", "--kmax", "2"],
        # and their least values
        ["gamma", "--tpqr", "2,3,7", "--nu", "1", "--kmax", "0"],
        ["trace", "--tpqr", "2,3,7", "--nu", "1", "--kmax", "1"],
        ["manifold", "chern", "--builtin", "k3", "--nu", "1", "--kmax", "0"],
        ["theta", "--order", "0"],
        ["bernoulli", "--count", "1"],
        ["apoly", "--k", "0"],
        ["nu-threshold", "--tpqr", "2,3,7", "--nu-hi", "2", "--steps", "1", "--k", "0", "--k-cap", "0"],
    ]
    for argv in accepted:
        parser.parse_args(argv)
    assert parser.parse_args(["gamma", "--tpqr", "2,3,7", "--nu", "1e400", "--kmax", "1"]).nu == 10**400
    # mu = p + q + r - 1 = MAX_TPQR_MU
    third = MAX_TPQR_MU // 3
    triple = f"{third},{third},{MAX_TPQR_MU + 1 - 2 * third}"
    parser.parse_args(["gamma", "--tpqr", triple, "--nu", "1", "--kmax", "1"])
    # the largest benchmark sizes sit inside the caps
    assert MAX_KMAX >= 200 and MAX_APOLY_K >= 250 and MAX_THRESHOLD_K >= 26
    assert MAX_WEIGHTS >= 5


def test_coprime_tpqr_is_accepted(capsys):
    # lcm(50, 51, 53) = 135150 is far above the dense cap, but mu is 153
    code, out, _ = run(capsys, "gamma", "--tpqr", "50,51,53", "--nu", "1", "--kmax", "4")
    assert code == 0 and len(out.splitlines()) == 5


def test_chern_file_dimension_cap(tmp_path, capsys):
    n = MAX_CHERN_DIMENSION + 1
    path = tmp_path / "big.chern"
    path.write_text(f"n {n}\npartition {n} value 1\n")
    argv = ("manifold", "chern", "--file", str(path), "--nu", "0", "--kmax", "1")
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert err.startswith("error: argument --file:") and "dimension" in err


def _mirrored_spectrum_file(path, entries: int, bits: int):
    """A spectrum file (n = 1) of `entries` distinct spectral numbers +-i/N, and 0, N of `bits` bits."""
    denominator = 2 ** (bits - 1) + 1
    lines = ["n 1"] + (["alpha 0 mult 1"] if entries % 2 else [])
    lines += [f"alpha {sign}{i}/{denominator} mult 1" for i in range(1, entries // 2 + 1) for sign in "-+"]
    path.write_text("\n".join(lines) + "\n")


def _stop_at_the_power_sums(monkeypatch) -> list:
    """Make moments._power_sums record its call and end the command there."""
    from bermoments import moments

    calls = []

    def reached(*args):
        calls.append(args)
        raise ValueError("power sums reached")

    monkeypatch.setattr(moments, "_power_sums", reached)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("gamma", "--nu", "1", "--kmax", str(MAX_KMAX)),
        ("check", "--mode", "S", "--kmax", str(MAX_KMAX)),
        ("trace", "--nu", "1", "--kmax", str(MAX_KMAX)),
        ("nu-threshold", "--k", "1", "--nu-hi", "3", "--steps", "4", "--k-cap", str(MAX_THRESHOLD_K)),
    ],
)
def test_spectrum_file_entries_are_capped_against_the_order(tmp_path, capsys, monkeypatch, argv):
    # entries * bits * order is capped: the last row of the power sums holds
    # about twice as many bits.  A file at the bound passes the check and
    # reaches the power sums, which stop here; one entry more is refused
    # before any power sum runs
    calls = _stop_at_the_power_sums(monkeypatch)
    what, order = argv[-2], int(argv[-1])
    entries = 15625
    bits = MAX_POWER_SUM_BITS // (entries * order)  # 25 at --kmax 256, 100 at --k-cap 64
    assert entries * bits * order == MAX_POWER_SUM_BITS
    path = tmp_path / "wide.spectrum"
    for count, message, runs in [
        (entries + 1, f"(entries * bits of the centered spectrum) * {what} = {(entries + 1) * bits} * {order}", 0),
        (entries, "power sums reached", 1),
    ]:
        _mirrored_spectrum_file(path, count, bits)
        code, out, err = run(capsys, argv[0], "--spectrum-file", str(path), *argv[1:])
        assert_one_error_line(code, out, err)
        assert message in err and len(calls) == runs


def test_the_unit_of_the_multiplicities_counts_in_the_entries_cap(tmp_path, capsys, monkeypatch):
    # every power sum carries the multiplicities over their lcm, the unit, so
    # entries * (bits over the unit) * order is capped as well: rational
    # multiplicities of a spectrum file with distinct long denominators, or a
    # chi vector read off such Chern numbers, are refused before any power
    # sum, and the unit is built only until it alone is above the cap
    calls = _stop_at_the_power_sums(monkeypatch)
    long_denominators = [10**1999 + 2 * i + 1 for i in range(200)]
    spectrum = tmp_path / "rational.spectrum"
    for denominators, message in [
        (long_denominators, "(entries * bits of the centered spectrum) * --kmax"),
        ([3] * 200, "power sums reached"),
    ]:
        lines = [f"alpha {sign}{i + 1}/401 mult 1/{d}" for i, d in enumerate(denominators) for sign in "-+"]
        spectrum.write_text("\n".join(["n 1"] + lines) + "\n")
        code, out, err = run(capsys, "gamma", "--spectrum-file", str(spectrum), "--nu", "1", "--kmax", "1")
        assert_one_error_line(code, out, err)
        assert message in err
    assert len(calls) == 1
    # eleven Chern numbers of a sixfold over distinct 2000-digit denominators:
    # their chi vector has a unit of about 73000 bits, above the cap at --kmax 256
    from bermoments.chern import partitions_of

    chern = tmp_path / "rational.chern"
    values = zip(partitions_of(6), long_denominators)
    chern.write_text("n 6\n" + "".join(f"partition {','.join(map(str, p))} value 1/{d}\n" for p, d in values))
    for kmax, message in [(MAX_KMAX, "(entries * bits of the centered chi vector) * --kmax"), (2, "power sums reached")]:
        code, out, err = run(capsys, "manifold", "chern", "--file", str(chern), "--nu", "1", "--kmax", str(kmax))
        assert_one_error_line(code, out, err)
        assert message in err
    assert len(calls) == 2


@pytest.mark.parametrize("kind", ["spectrum", "chern"])
def test_file_characters_are_capped(tmp_path, capsys, monkeypatch, kind):
    # at most MAX_FILE_CHARS + 1 characters are read, before any line is
    # counted or parsed: a file at the cap is read in full, and a longer one,
    # however long, is refused as an error of its option; both files are
    # read by spectra._read_text
    from bermoments import spectra

    monkeypatch.setattr(spectra, "MAX_FILE_CHARS", 100)
    if kind == "chern":
        text, option = "n 1\npartition 1 value 2\n", "--file"
        argv, expected = ("manifold", "chern", "--file"), ["0\t2", "1\t1/2"]
        rest = ("--nu", "0", "--kmax", "1")
    else:
        text, option = "n 1\nalpha -1/6 mult 1\nalpha 1/6 mult 1\n", "--spectrum-file"
        argv, expected = ("gamma", "--spectrum-file"), ["0\t2", "1\t1/18"]
        rest = ("--nu", "0", "--kmax", "1")
    path = tmp_path / kind
    for padding, accepted in [(100 - len(text) - 1, True), (100 - len(text), False), (10**6, False)]:
        path.write_text(text + "#" * padding + "\n")
        code, out, err = run(capsys, *argv, str(path), *rest)
        if accepted:
            assert (code, out.splitlines(), err) == (0, expected, "")
        else:
            assert_one_error_line(code, out, err)
            assert err.startswith(f"error: argument {option}:")
            assert "the file holds more than the cap of 100 characters" in err


def test_a_file_at_the_character_cap_round_trips(tmp_path, capsys):
    # the cap is above the longest spectrum qh output the dense cap admits
    # that was found, 6.02 * 10^7 characters (64 weights 1/4093); an output
    # padded by a comment to exactly MAX_FILE_CHARS characters is read back
    # as the spectrum it prints, and one character more is refused
    from bermoments.cli import MAX_FILE_CHARS

    assert MAX_FILE_CHARS > 61 * 10**6
    code, text, _ = run(capsys, "spectrum", "qh", "--weights", "1/3,1/5,1/7")
    path = tmp_path / "padded.spectrum"
    argv = ("--nu", "5/2", "--kmax", "6")
    _, direct, _ = run(capsys, "gamma", "--weights", "1/3,1/5,1/7", *argv)
    for extra, accepted in [(0, True), (1, False)]:
        padding = "#" * (MAX_FILE_CHARS - len(text) - 1 + extra) + "\n"
        path.write_text(text + padding)
        code, out, err = run(capsys, "gamma", "--spectrum-file", str(path), *argv)
        if accepted:
            assert (code, out, err) == (0, direct, "")
        else:
            assert_one_error_line(code, out, err)
            assert f"more than the cap of {MAX_FILE_CHARS} characters" in err
    path.unlink()


def test_spectrum_file_record_lines_are_capped(tmp_path, capsys, monkeypatch):
    # the record lines are counted before any value is parsed, so that the
    # work that does not shrink with the order is bounded too: a file of
    # MAX_DENSE_LENGTH of them, as many as any spectrum qh or curve output
    # has, is parsed; one more is refused as an error of --spectrum-file
    from bermoments import spectra

    parsed = []

    def parse(text):
        parsed.append(text)
        raise ValueError("parsed")

    monkeypatch.setattr(spectra.Spectrum, "from_text", parse)
    path = tmp_path / "long.spectrum"
    for records, says, runs in [
        (MAX_DENSE_LENGTH + 1, f"{MAX_DENSE_LENGTH + 1} record lines are above the cap of {MAX_DENSE_LENGTH}", 0),
        (MAX_DENSE_LENGTH, "parsed", 1),
    ]:
        path.write_text("# not a record\n\nn 1\n" + "alpha 0 mult 1\n" * (records - 1))
        code, out, err = run(capsys, "gamma", "--nu", "1", "--kmax", "0", "--spectrum-file", str(path))
        assert_one_error_line(code, out, err)
        assert err.startswith("error: argument --spectrum-file:") and says in err and len(parsed) == runs


def test_chi_entries_are_capped_against_the_order(capsys, monkeypatch):
    # --chi feeds the same power sums: n = 62499 gives 62500 entries of 16
    # bits (scale 2, largest numerator n), at the bound at --kmax 100
    calls = _stop_at_the_power_sums(monkeypatch)
    chi = "--chi=" + ",".join(["1"] * 62500)
    assert 62500 * 16 * 100 == MAX_POWER_SUM_BITS
    for kmax, message, runs in [
        (101, "(entries * bits of the centered chi vector) * --kmax = 1000000 * 101", 0),
        (100, "power sums reached", 1),
    ]:
        code, out, err = run(capsys, "manifold", chi, "--nu", "1", "--kmax", str(kmax))
        assert_one_error_line(code, out, err)
        assert message in err and len(calls) == runs


def test_large_denominators_are_refused_before_their_lcm(tmp_path, capsys):
    # the scale is built only until it alone is above a cap: 200 pairs of
    # distinct 4000-digit denominators took 44 s in that lcm at --kmax 1;
    # --kmax 0 counts as 1, since the power sums form the scale at any order
    path = tmp_path / "deep.spectrum"
    lines = ["n 1"]
    for i in range(200):
        denominator = 10**3999 + 2 * i + 1
        lines += [f"alpha -1/{denominator} mult 1", f"alpha 1/{denominator} mult 1"]
    path.write_text("\n".join(lines) + "\n")
    for kmax in ("0", "1"):
        code, out, err = run(capsys, "gamma", "--nu", "1", "--kmax", kmax, "--spectrum-file", str(path))
        assert_one_error_line(code, out, err)
        assert "(bits of the centered spectrum) * --kmax" in err and "* 1 =" in err


def test_chern_file_missing_a_partition_is_refused(tmp_path, capsys):
    # the format has one value per partition of n; a file that lacks one is
    # refused as an error of --file, whatever --kmax the expansion would reach
    path = tmp_path / "partial.chern"
    path.write_text("n 2\npartition 2 value 3\n")
    for kmax in ("0", "1"):
        code, out, err = run(capsys, "manifold", "chern", "--file", str(path), "--nu", "0", "--kmax", kmax)
        assert_one_error_line(code, out, err)
        assert err.startswith("error: argument --file:")
        assert "missing Chern number for partition (1, 1)" in err


def test_key_error_is_printed_without_quotes(capsys, monkeypatch):
    # a partial ChernData built in the library fails lazily with a KeyError,
    # whose str() would quote its message
    from bermoments import chern

    chi_vector = chern.chi_vector
    partial = chern.ChernData(2, {(2,): 24})
    monkeypatch.setattr(chern, "chi_vector", lambda data: chi_vector(partial))
    code, out, err = run(capsys, "manifold", "chern", "--builtin", "k3", "--nu", "0", "--kmax", "1")
    assert (code, out, err) == (2, "", "error: missing Chern number for partition (1, 1)\n")


def test_every_source_reaches_gamma_through_its_power_sums_once(tmp_path, capsys, monkeypatch):
    # moments.gamma_of is the one nu-entry of every command: the power sums
    # of the source run once, and no raw series is built or transformed
    from bermoments import moments, oracles

    def refuse(*args, **kwargs):
        raise AssertionError("a command left the power-sum route")

    originals = (oracles.bernoulli_moments, oracles.moments_of_spectrum, oracles.moments_of_chi)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bermoments"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, attr, refuse)
    calls = []
    power_sums = moments._power_sums
    monkeypatch.setattr(moments, "_power_sums", lambda *args: calls.append(args) or power_sums(*args))
    path = tmp_path / "t237.spectrum"
    path.write_text(run(capsys, "spectrum", "tpqr", "--p", "2", "--q", "3", "--r", "7")[1])
    argvs = [
        ("manifold", "--chi=2,-20,2", "--nu", "7/3", "--kmax", "30"),
        ("manifold", "chern", "--builtin", "k3", "--nu", "7/3", "--kmax", "30"),
        ("manifold", "chern", "--builtin", "pn:5", "--nu", "1/2", "--kmax", "30"),
    ]
    for source in (("--tpqr", "2,3,7"), ("--puiseux", "2:5,2:23"), ("--spectrum-file", str(path))):
        for command, *rest in (
            ("gamma", "--nu", "5/2", "--kmax", "30"),
            ("check", "--mode", "W", "--kmax", "30"),
            ("trace", "--nu", "3/2", "--kmax", "20"),
            ("nu-threshold", "--k", "1", "--nu-hi", "3", "--steps", "8", "--k-cap", "8"),
        ):
            argvs.append((command, *source, *rest))
    for argv in argvs:
        calls.clear()
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out and len(calls) == 1, argv


def test_each_request_centers_its_source_once(tmp_path, capsys, monkeypatch):
    # the caps on the centered pairs of a --spectrum-file or a chi vector and
    # the power sums read one centered tuple, built once per request
    from bermoments import moments, spectra

    calls = []
    for cls in (spectra.Spectrum, moments.ChiVector):
        monkeypatch.setattr(cls, "centered", lambda self, centered=cls.centered: calls.append(self) or centered(self))
    spectrum = tmp_path / "t237.spectrum"
    spectrum.write_text(run(capsys, "spectrum", "tpqr", "--p", "2", "--q", "3", "--r", "7")[1])
    chern = tmp_path / "k3.chern"
    chern.write_text("n 2\npartition 2 value 24\npartition 1,1 value 0\n")
    argvs = [
        ("manifold", "--chi=2,-20,2", "--nu", "7/3", "--kmax", "8"),
        ("manifold", "chern", "--builtin", "pn:3", "--nu", "1/2", "--kmax", "8"),
        ("manifold", "chern", "--file", str(chern), "--nu", "1/2", "--kmax", "8"),
    ]
    for command, *rest in (
        ("gamma", "--nu", "5/2", "--kmax", "8"),
        ("gamma", "--mode", "S", "--kmax", "8"),
        ("check", "--mode", "W", "--kmax", "8"),
        ("trace", "--nu", "3/2", "--kmax", "8"),
        ("nu-threshold", "--k", "1", "--nu-hi", "3", "--steps", "8", "--k-cap", "8"),
    ):
        argvs.append((command, "--spectrum-file", str(spectrum), *rest))
    for argv in argvs:
        calls.clear()
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and out and len(calls) == 1, argv


def test_manifold_chern_reads_every_k_from_one_expansion(capsys):
    # the one expansion gives the chi vector; pn:6..8 at the kmax cap as well
    for n, nu, kmax in [(3, "1/2", 6), (6, "1/3", MAX_KMAX), (7, "1/3", MAX_KMAX), (8, "1/3", MAX_KMAX)]:
        argv = ("--nu", nu, "--kmax", str(kmax))
        code, out, _ = run(capsys, "manifold", "chern", "--builtin", f"pn:{n}", *argv)
        assert code == 0
        chi_code, chi_out, _ = run(capsys, "manifold", "--chi=" + ",".join(["1"] * (n + 1)), *argv)
        assert chi_code == 0 and out == chi_out and len(out.splitlines()) == kmax + 1


def test_answer_beyond_int_digit_limit_is_printed_in_full(capsys):
    # from row 180 on, Gamma_2k has more digits than int <-> str converts by
    # default; every row is printed and the caller's limit is left as it was
    limit = sys.get_int_max_str_digits()
    argv = ("gamma", "--tpqr", "5,7,11", "--nu", "9999999999999989/10000000000000061", "--kmax", "256")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    rows = out.splitlines()
    assert [row.split("\t")[0] for row in rows] == [str(k) for k in range(257)]
    assert max(len(row) for row in rows) > limit
    assert sys.get_int_max_str_digits() == limit  # restored for the caller


@given(text=st.text(alphabet="0123456789/,-+ .e", max_size=6))
@settings(max_examples=150, deadline=None)
def test_weights_fuzz(text):
    # the dense cap bounds the work of any accepted string; the largest
    # common denominator six characters reach is D = 10^5 ('1e-5', seconds)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["spectrum", "qh", "--weights", text])
    if code == 0:
        assert out.getvalue().startswith("n ") and not err.getvalue()
    else:
        assert_one_error_line(code, out.getvalue(), err.getvalue())
