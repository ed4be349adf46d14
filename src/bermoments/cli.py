"""Command-line interface.

Subcommands emit TSV with exact p/q rationals; floats are printed with 12
significant digits.  Exit codes: 0 success (and conjecture pass), 1
conjecture failure, 2 usage or input error, reported as one 'error: ...'
line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from math import lcm

# MAX_EXPONENT caps the decimal exponent of each rational argument (--nu,
# --x, --nu-hi, each --weights part) as it caps the values of the text files
from . import MAX_EXPONENT, _fraction

# The computation modules are imported by the handlers and argument types
# that use them, so each command loads only what its answer needs.

# Upper bounds of the size options.  Each is checked as the arguments are
# parsed, before any series is built, so that no input runs for minutes; the
# README lists the slowest accepted input of each command.
MAX_KMAX = 256  # --kmax of gamma, check, trace and manifold --chi
MAX_ORDER = 512  # --order of theta and --count of bernoulli
MAX_APOLY_K = 256  # --k of apoly
MAX_THRESHOLD_K = 64  # --k and --k-cap of nu-threshold
MAX_STEPS = 64  # --steps of nu-threshold; each step is one transform
MAX_CHERN_KMAX = 24  # --kmax of manifold chern
MAX_CHERN_DIMENSION = 8  # the dimension n of manifold chern (--builtin or --file)
MAX_TPQR_MU = 2**14  # mu = p + q + r - 1, the spectrum size, of --tpqr and spectrum tpqr
MAX_WEIGHTS = 64  # --weights parts; r weights 1/2 pass the dense cap but cost about r^3
# characters of a --spectrum-file or chern --file; the longest spectrum qh output found has 6.02 * 10^7
MAX_FILE_CHARS = 2**26

# Joint caps on the bits of a rational argument (of its larger term), or of the
# centered pairs of a --spectrum-file or --chi, times its order, since row k
# has k times as many bits.
MAX_NU_BITS_KMAX = 2**16  # (bits of nu, or of a source) * --kmax of gamma, check, trace, manifold --chi
MAX_THRESHOLD_BITS_K = 2**15  # (bits of --nu-hi + --steps, or of a file) * --k-cap of nu-threshold
MAX_APOLY_BITS_K = 2**18  # (bits of --x + bits of --nu) * --k of apoly
MAX_CHERN_BITS_KMAX = 2**13  # (bits of nu) * --kmax of manifold chern
# (entries) * (bits) * --kmax (or --k-cap) of a --spectrum-file or --chi: the
# power sums hold about twice as many bits at their last order
MAX_POWER_SUM_BITS = 10**8


def _bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _check_bits(bits: int, size: int, what: str, cap: int):
    if bits * size > cap:
        raise ValueError(f"{what} = {bits} * {size} = {bits * size} is above the cap of {cap}")


def _type_error(parse):
    """Report the ValueError, ZeroDivisionError or OSError of `parse` as an argparse type error."""

    def parse_or_fail(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError, OSError) as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r} ({exc})") from None

    return parse_or_fail


_parse_fraction = _type_error(_fraction)


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
    from .spectra import WeightSystem

    parts = text.split(",")
    if len(parts) > MAX_WEIGHTS:
        raise ValueError(f"{len(parts)} weights are above the cap of {MAX_WEIGHTS}")
    return WeightSystem(tuple(_fraction(part) for part in parts))


def _tpqr_params(p: int, q: int, r: int) -> TpqrParams:
    from .spectra import TpqrParams

    params = TpqrParams(p, q, r)
    if params.mu > MAX_TPQR_MU:
        raise ValueError(f"mu = p + q + r - 1 = {params.mu} is above the cap of {MAX_TPQR_MU}")
    return params


@_type_error
def _parse_tpqr(text: str) -> TpqrParams:
    p, q, r = (int(part) for part in text.split(","))
    return _tpqr_params(p, q, r)


@_type_error
def _parse_puiseux(text: str) -> tuple:
    # only the syntax is checked here; the invariants are checked when
    # PuiseuxData is built, with their own diagnostics
    pairs = []
    for chunk in text.split(","):
        n, _, r = chunk.partition(":")
        pairs.append((int(n), int(r)))
    return tuple(pairs)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        text = handle.read(MAX_FILE_CHARS + 1)  # no more of the file is read
    if len(text) > MAX_FILE_CHARS:
        raise ValueError(f"the file holds more than the cap of {MAX_FILE_CHARS} characters")
    return text


@_type_error
def _parse_spectrum_file(path: str) -> Spectrum:
    from .spectra import MAX_DENSE_LENGTH, Spectrum

    text = _read_text(path)
    # counted before any value is parsed; every spectrum qh or curve output fits
    records = sum(1 for line in text.splitlines() if line.strip()[:1] not in ("", "#"))
    if records > MAX_DENSE_LENGTH:
        raise ValueError(f"{records} record lines are above the cap of {MAX_DENSE_LENGTH}")
    return Spectrum.from_text(text)


def _chern_dimension(n: int) -> int:
    if n > MAX_CHERN_DIMENSION:
        raise ValueError(f"dimension {n} is above the cap of {MAX_CHERN_DIMENSION}")
    return n


@_type_error
def _parse_chern_file(path: str) -> ChernData:
    from .chern import ChernData, partitions_of

    data = ChernData.from_text(_read_text(path))
    for partition in partitions_of(_chern_dimension(data.n)):
        if partition not in data.numbers:
            raise ValueError(f"missing Chern number for partition {partition}")
    return data


@_type_error
def _parse_builtin(spec: str) -> ChernData:
    from .chern import _builtin, chern_data_genus, chern_data_k3, chern_data_pn

    # the cap is checked on N before pn:N lists the partitions of N
    return _builtin(spec, lambda n: chern_data_pn(_chern_dimension(n)), chern_data_k3, chern_data_genus)


@_type_error
def _parse_chi(text: str) -> ChiVector:
    from .moments import ChiVector

    return ChiVector(tuple(int(part) for part in text.split(",")))


def _add_spectrum_source(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--weights", type=_parse_weights, help="quasihomogeneous weights, e.g. 1/3,1/2")
    group.add_argument("--tpqr", type=_parse_tpqr, help="hyperbolic triple, e.g. 2,3,7")
    group.add_argument("--puiseux", type=_parse_puiseux, help="Puiseux pairs, e.g. 2:3,2:7")
    group.add_argument("--spectrum-file", type=_parse_spectrum_file, help="path of a spectrum text file")


def _spectrum_from_args(args) -> Spectrum | WeightSystem:
    """The spectrum the arguments name; --weights is passed on as its weight system."""
    from .spectra import PuiseuxData, spectrum_curve, spectrum_tpqr

    if args.weights is not None:
        return args.weights
    if args.tpqr is not None:
        return spectrum_tpqr(args.tpqr)
    if args.puiseux is not None:
        return spectrum_curve(PuiseuxData(args.puiseux))
    return args.spectrum_file


def _check_source(source, name: str, size: int, what="--kmax", cap=MAX_NU_BITS_KMAX):
    """Cap the bits of the centered pairs of a --spectrum-file or --chi (the larger of their
    scale, the lcm of their denominators, and of their largest numerator over it) to `cap`, and
    (entries) * (bits) to MAX_POWER_SUM_BITS, each times the order, before any power sum runs.

    The order counts as at least 1, since the power sums form the scale at every order, and
    the scale is built only until it alone is above a cap."""
    if source is None:
        return
    size = max(size, 1)
    centered = source.centered()  # symmetric about 0, so the last is the largest
    most = min(cap // size, MAX_POWER_SUM_BITS // (len(centered) * size))
    scale = 1
    for denominator in {a.denominator for a, _ in centered}:
        scale = lcm(scale, denominator)
        if scale.bit_length() > most:
            break
    bits = max(scale, centered[-1][0] * scale).numerator.bit_length()
    _check_bits(bits, size, f"(bits of the centered {name}) * {what}", cap)
    entries_bits = len(centered) * bits
    _check_bits(entries_bits, size, f"(entries * bits of the centered {name}) * {what}", MAX_POWER_SUM_BITS)


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
        p_chern.add_argument("--kmax", type=_at_most(MAX_CHERN_KMAX), required=True)
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
    from .series import theta_series

    return _print_rows(theta_series(args.order).coeffs)


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
    from .spectra import PuiseuxData, spectrum_curve, spectrum_from_weights, spectrum_tpqr

    if args.kind == "qh":
        spectrum = spectrum_from_weights(args.weights)
    elif args.kind == "tpqr":
        params = _tpqr_params(args.p, args.q, args.r)
        if not params.is_hyperbolic:
            print("# non-hyperbolic triple (1/p + 1/q + 1/r >= 1)")
        spectrum = spectrum_tpqr(params)
    else:
        spectrum = spectrum_curve(PuiseuxData(args.puiseux))
    sys.stdout.write(spectrum.to_text())
    return 0


def _check_nu_bits(nu, kmax: int, cap: int = MAX_NU_BITS_KMAX):
    _check_bits(_bits(nu), kmax, "(bits of nu) * --kmax", cap)


def _cmd_gamma(args) -> int:
    from .harness import conjecture_nu
    from .moments import gamma_of

    spectrum = _spectrum_from_args(args)
    nu = args.nu if args.nu is not None else conjecture_nu(spectrum, args.mode)
    _check_nu_bits(nu, args.kmax)
    _check_source(args.spectrum_file, "spectrum", args.kmax)
    return _print_rows(gamma_of(spectrum, 2 * args.kmax)(nu).values)


def _cmd_check(args) -> int:
    from .harness import check_conjecture, conjecture_nu

    spectrum = _spectrum_from_args(args)
    _check_nu_bits(conjecture_nu(spectrum, args.mode), args.kmax)
    _check_source(args.spectrum_file, "spectrum", args.kmax)
    report = check_conjecture(spectrum, args.mode, args.kmax)
    for k, value, ok in report.rows:
        print(f"{k}\t{value}\t{'pass' if ok else 'fail'}")
    print(f"overall\t{'pass' if report.overall else 'fail'}")
    return 0 if report.overall else 1


def _cmd_trace(args) -> int:
    from .harness import trace_convergence

    _check_nu_bits(args.nu, args.kmax)
    _check_source(args.spectrum_file, "spectrum", args.kmax)
    spectrum = _spectrum_from_args(args)
    for k, value in enumerate(trace_convergence(spectrum, args.nu, args.kmax), start=1):
        print(f"{k}\t{value:.12g}")
    return 0


def _cmd_nu_threshold(args) -> int:
    from .harness import nu_threshold

    k_cap = args.k if args.k_cap is None else args.k_cap
    bits = _bits(args.nu_hi) + args.steps
    _check_bits(bits, k_cap, "(bits of --nu-hi + --steps) * --k-cap", MAX_THRESHOLD_BITS_K)
    _check_source(args.spectrum_file, "spectrum", k_cap, "--k-cap", MAX_THRESHOLD_BITS_K)
    spectrum = _spectrum_from_args(args)
    print(nu_threshold(spectrum, args.k, args.nu_hi, args.steps, args.k_cap))
    return 0


def _cmd_manifold(args) -> int:
    chi_route = (args.chi, args.chi_nu, args.chi_kmax)
    if args.mode == "chern":
        if chi_route != (None, None, None):
            raise ValueError("manifold's own --chi, --nu and --kmax do not go with chern")
        _check_nu_bits(args.nu, args.kmax, MAX_CHERN_BITS_KMAX)
        from .chern import bernoulli_moments_from_chern

        return _print_rows(bernoulli_moments_from_chern(args.builtin or args.file, args.nu, args.kmax))
    if None in chi_route:
        raise ValueError("manifold needs --chi, --nu and --kmax (or the chern subcommand)")
    _check_nu_bits(args.chi_nu, args.chi_kmax)
    _check_source(args.chi, "chi vector", args.chi_kmax)
    from .moments import gamma_of

    return _print_rows(gamma_of(args.chi, 2 * args.chi_kmax)(args.chi_nu).values)


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
