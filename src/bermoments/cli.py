"""Command-line interface.

Subcommands emit TSV with exact p/q rationals; floats are printed with 12
significant digits.  Exit codes: 0 success (and conjecture pass), 1
conjecture failure, 2 usage or input error, reported as one 'error: ...'
line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from math import factorial

# The caps of the size options live in the package, beside MAX_EXPONENT, which
# caps the decimal exponent of each rational argument (--nu, --x, --nu-hi, each
# --weights part) as it caps the values of the text files; they are bound here
# too, as bermoments.cli.MAX_...
from . import (
    MAX_APOLY_BITS_K,
    MAX_APOLY_K,
    MAX_CHERN_DIMENSION,
    MAX_EXPONENT,
    MAX_FILE_CHARS,
    MAX_KMAX,
    MAX_NU_BITS_KMAX,
    MAX_ORDER,
    MAX_POWER_SUM_BITS,
    MAX_STEPS,
    MAX_THRESHOLD_BITS_K,
    MAX_THRESHOLD_K,
    MAX_TPQR_MU,
    MAX_WEIGHTS,
    _check_bits,
    _fraction,
)

# The computation modules are imported by the handlers and argument types
# that use them, so each command loads only what its answer needs.


def _bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _type_error(parse):
    """Report the ValueError, ZeroDivisionError or OSError of `parse` as an argparse type error."""

    def parse_or_fail(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError, OSError) as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r} ({exc})") from None

    return parse_or_fail


def _route_parser(module: str, name: str):
    """The parser `name` of the module of its route, imported when argparse first calls it."""
    return _type_error(lambda text: getattr(import_module(f"{__package__}.{module}"), name)(text))


_parse_fraction = _type_error(_fraction)
_parse_tpqr = _route_parser("spectra", "_parse_tpqr")
_parse_puiseux = _route_parser("spectra", "_parse_puiseux")
_parse_spectrum_file = _route_parser("spectra", "_parse_spectrum_file")
_parse_chern_file = _route_parser("chern", "_parse_chern_file")
_parse_builtin = _route_parser("chern", "_parse_builtin")
_parse_chi = _route_parser("moments", "_parse_chi")


def _at_most(limit: int, least: int = 0):
    """An integer option that is refused above `limit` and below `least`."""

    def parse(text: str) -> int:
        value = int(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"{value} is above the cap of {limit}")
        if value < least:
            raise argparse.ArgumentTypeError(f"{value} is below the least value {least}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


@_type_error
def _parse_weights(text: str) -> WeightSystem:
    parts = text.split(",")
    if len(parts) > MAX_WEIGHTS:
        raise ValueError(f"{len(parts)} weights are above the cap of {MAX_WEIGHTS}")
    weights = tuple(_fraction(part) for part in parts)  # an unreadable part loads no weights module
    from .weights import WeightSystem

    return WeightSystem(weights)


def _add_spectrum_source(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--weights", type=_parse_weights, help="quasihomogeneous weights, e.g. 1/3,1/2")
    group.add_argument("--tpqr", type=_parse_tpqr, help="hyperbolic triple, e.g. 2,3,7")
    group.add_argument("--puiseux", type=_parse_puiseux, help="Puiseux pairs, e.g. 2:3,2:7")
    group.add_argument("--spectrum-file", type=_parse_spectrum_file, help="path of a spectrum text file")


def _spectrum_from_args(args) -> Spectrum | WeightSystem:
    """The spectrum the arguments name; --weights is passed on as its weight system."""
    if args.weights is not None:
        return args.weights
    if args.spectrum_file is not None:
        return args.spectrum_file
    from .spectra import spectrum_curve, spectrum_tpqr

    if args.tpqr is not None:
        return spectrum_tpqr(args.tpqr)
    return spectrum_curve(args.puiseux)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one 'error: ...' line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every sub-command or, given argv, with the arguments of the one it names only."""
    # every sub-command keeps its help line, so --help and usage errors read the same either
    # way; argparse takes the first word not led by '-' as the sub-command, since no option
    # before it takes a value
    parser = _Parser(
        prog="bermoments",
        description="Exact spectra, Bernoulli moments, and sign-conjecture checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = None if argv is None else next((word for word in argv if word[:1] != "-"), None)

    def command(name: str, text: str):
        p = sub.add_parser(name, help=text)
        return p if argv is None or name == named else None

    if p := command("bernoulli", "print Bernoulli numbers B_0..B_{N-1}"):
        p.add_argument("--count", type=_at_most(MAX_ORDER, 1), required=True)
    if p := command("theta", "Taylor coefficients of log((t/2)/sinh(t/2))"):
        p.add_argument("--order", type=_at_most(MAX_ORDER), required=True)
    if p := command("apoly", "centered generalized Bernoulli polynomial"):
        p.add_argument("--k", type=_at_most(MAX_APOLY_K), required=True)
        p.add_argument("--x", type=_parse_fraction)
        p.add_argument("--nu", type=_parse_fraction)
    if p := command("spectrum", "construct a spectrum and print it"):
        spectrum_sub = p.add_subparsers(dest="kind", required=True)
        p_qh = spectrum_sub.add_parser("qh", help="quasihomogeneous, from weights")
        p_qh.add_argument("--weights", type=_parse_weights, required=True)
        p_tpqr = spectrum_sub.add_parser("tpqr", help="hyperbolic T_{p,q,r}")
        for side in ("--p", "--q", "--r"):
            p_tpqr.add_argument(side, type=int, required=True)
        p_curve = spectrum_sub.add_parser("curve", help="irreducible plane curve branch")
        p_curve.add_argument("--puiseux", type=_parse_puiseux, required=True)
    if p := command("gamma", "Bernoulli moments of a spectrum"):
        _add_spectrum_source(p)
        nu_source = p.add_mutually_exclusive_group(required=True)
        nu_source.add_argument("--nu", type=_parse_fraction, help="transform parameter")
        nu_source.add_argument("--mode", choices=("W", "S"), help="use nu = n+1 (W) or the spread (S)")
        p.add_argument("--kmax", type=_at_most(MAX_KMAX), required=True)
    if p := command("check", "verify the sign conjecture on a spectrum"):
        _add_spectrum_source(p)
        p.add_argument("--mode", choices=("W", "S"), required=True)
        p.add_argument("--kmax", type=_at_most(MAX_KMAX), required=True)
    if p := command("trace", "cosine-normalized moment sequence"):
        _add_spectrum_source(p)
        p.add_argument("--nu", type=_parse_fraction, required=True)
        p.add_argument("--kmax", type=_at_most(MAX_KMAX, 1), required=True)
    if p := command("nu-threshold", "bisect the smallest admissible nu"):
        _add_spectrum_source(p)
        p.add_argument("--k", type=_at_most(MAX_THRESHOLD_K), required=True)
        p.add_argument("--nu-hi", type=_parse_fraction, required=True)
        p.add_argument("--steps", type=_at_most(MAX_STEPS, 1), required=True)
        p.add_argument("--k-cap", type=_at_most(MAX_THRESHOLD_K))
    if p := command("manifold", "moments of a compact complex manifold"):
        # the chern subcommand has its own --nu and --kmax, so these keep their own dests
        p.add_argument("--chi", type=_parse_chi, help="comma-separated chi_0..chi_n, e.g. 2,20,2")
        p.add_argument("--nu", type=_parse_fraction, dest="chi_nu", metavar="NU")
        p.add_argument("--kmax", type=_at_most(MAX_KMAX), dest="chi_kmax", metavar="KMAX")
        p_chern = p.add_subparsers(dest="mode").add_parser("chern", help="from Chern numbers")
        chern_source = p_chern.add_mutually_exclusive_group(required=True)
        chern_source.add_argument("--builtin", type=_parse_builtin, help="pn:N, k3 or genus:G")
        chern_source.add_argument("--file", type=_parse_chern_file, help="Chern number file")
        p_chern.add_argument("--nu", type=_parse_fraction, required=True)
        p_chern.add_argument("--kmax", type=_at_most(MAX_KMAX), required=True)
    return parser


def _print_rows(values) -> int:
    """One 'k<TAB>value' row per value, k counting from 0."""
    for k, value in enumerate(values):
        print(f"{k}\t{value}")
    return 0


def _cmd_bernoulli(args) -> int:
    from .kernels import bernoulli_numbers

    for value in bernoulli_numbers(args.count):
        print(value)
    return 0


def _cmd_theta(args) -> int:
    from .kernels import _theta_values

    theta = _theta_values(args.order // 2 + 1)
    return _print_rows(0 if k % 2 else theta[k // 2] / factorial(k) for k in range(args.order + 1))


def _cmd_apoly(args) -> int:
    from .bernpoly import centered_bernoulli_poly, centered_bernoulli_value

    if (args.x is None) != (args.nu is None):
        raise ValueError("apoly needs both --x and --nu, or neither")
    if args.x is not None:
        bits = _bits(args.x) + _bits(args.nu)
        _check_bits(bits, args.k, "(bits of --x + bits of --nu) * --k", MAX_APOLY_BITS_K)
        print(centered_bernoulli_value(args.k, args.x, args.nu))
        return 0
    poly = centered_bernoulli_poly(args.k)
    monomials = {}
    for mono, coeff in poly.terms():
        exps = dict(mono)
        monomials[(exps.get("x", 0), exps.get("nu", 0))] = coeff
    for (a, b) in sorted(monomials, reverse=True):
        print(f"x^{a} nu^{b} -> {monomials[(a, b)]}")
    return 0


def _cmd_spectrum(args) -> int:
    from .spectra import _tpqr_params, spectrum_curve, spectrum_from_weights, spectrum_tpqr

    if args.kind == "qh":
        spectrum = spectrum_from_weights(args.weights)
    elif args.kind == "tpqr":
        params = _tpqr_params(args.p, args.q, args.r)
        if not params.is_hyperbolic:
            print("# non-hyperbolic triple (1/p + 1/q + 1/r >= 1)")
        spectrum = spectrum_tpqr(params)
    else:
        spectrum = spectrum_curve(args.puiseux)
    sys.stdout.writelines(spectrum.text_chunks())  # never the whole text at once
    return 0


def _check_kmax(nu, source, kmax: int):
    """The joint caps against --kmax: of the bits of nu, then of a --spectrum-file or a chi vector."""
    from .moments import _check_source

    _check_bits(_bits(nu), kmax, "(bits of nu) * --kmax", MAX_NU_BITS_KMAX)
    _check_source(source, kmax)


def _cmd_gamma(args) -> int:
    from .moments import conjecture_nu, gamma_of

    spectrum = _spectrum_from_args(args)
    nu = conjecture_nu(spectrum, args.mode) if args.nu is None else args.nu
    _check_kmax(nu, args.spectrum_file, args.kmax)
    return _print_rows(gamma_of(spectrum, 2 * args.kmax)(nu).values)


def _cmd_check(args) -> int:
    from .harness import check_conjecture
    from .moments import conjecture_nu

    spectrum = _spectrum_from_args(args)
    _check_kmax(conjecture_nu(spectrum, args.mode), args.spectrum_file, args.kmax)
    report = check_conjecture(spectrum, args.mode, args.kmax)
    for k, value, ok in report.rows:
        print(f"{k}\t{value}\t{'pass' if ok else 'fail'}")
    print(f"overall\t{'pass' if report.overall else 'fail'}")
    return 0 if report.overall else 1


def _cmd_trace(args) -> int:
    from .harness import trace_convergence

    _check_kmax(args.nu, args.spectrum_file, args.kmax)
    spectrum = _spectrum_from_args(args)
    for k, value in enumerate(trace_convergence(spectrum, args.nu, args.kmax), start=1):
        print(f"{k}\t{value:.12g}")
    return 0


def _cmd_nu_threshold(args) -> int:
    from .harness import nu_threshold
    from .moments import _check_source

    k_cap = args.k if args.k_cap is None else args.k_cap
    bits = _bits(args.nu_hi) + args.steps
    _check_bits(bits, k_cap, "(bits of --nu-hi + --steps) * --k-cap", MAX_THRESHOLD_BITS_K)
    _check_source(args.spectrum_file, k_cap, "--k-cap", MAX_THRESHOLD_BITS_K)
    spectrum = _spectrum_from_args(args)
    print(nu_threshold(spectrum, args.k, args.nu_hi, args.steps, args.k_cap))
    return 0


def _cmd_manifold(args) -> int:
    from .moments import gamma_of

    chi, nu, kmax = args.chi, args.chi_nu, args.chi_kmax
    if args.mode == "chern":
        if (chi, nu, kmax) != (None, None, None):
            raise ValueError("manifold's own --chi, --nu and --kmax do not go with chern")
        from .chern import chi_vector  # its expansion, to t^(2 floor(n/2)) at nu = 0, costs what n sets

        chi, nu, kmax = chi_vector(args.builtin or args.file), args.nu, args.kmax
    elif None in (chi, nu, kmax):
        raise ValueError("manifold needs --chi, --nu and --kmax (or the chern subcommand)")
    _check_kmax(nu, chi, kmax)
    return _print_rows(gamma_of(chi, 2 * kmax)(nu).values)


_HANDLERS = {
    "bernoulli": _cmd_bernoulli,
    "theta": _cmd_theta,
    "apoly": _cmd_apoly,
    "spectrum": _cmd_spectrum,
    "gamma": _cmd_gamma,
    "check": _cmd_check,
    "trace": _cmd_trace,
    "nu-threshold": _cmd_nu_threshold,
    "manifold": _cmd_manifold,
}


def main(argv=None) -> int:
    parser = _build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    # argv and the files it names were parsed under the interpreter's limit on
    # the digits of an int <-> str conversion (3.10.7+); the exact answer is
    # printed in full
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ArithmeticError, KeyError, OSError) as exc:
        # the str() of a KeyError is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
