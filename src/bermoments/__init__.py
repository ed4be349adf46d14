"""Exact Bernoulli moments of singularity spectra and manifold invariants.

The package computes, entirely in rational arithmetic:

* spectra of isolated hypersurface singularities (quasihomogeneous,
  hyperbolic T_{p,q,r}, irreducible plane curves, Thom-Sebastiani sums),
* their higher moments and Bernoulli moments, with closed product forms,
* generalized Bernoulli polynomials in the centered normalization,
* moments of compact complex manifolds, both from chi vectors and from
  Chern numbers via the Hirzebruch-Riemann-Roch expansion,
* exact verification of the alternating-sign predictions for the
  Bernoulli moments, threshold search, and asymptotic trace sequences.

Every public name below is imported from its module on first access
(PEP 562), so ``import bermoments`` loads no computation module and a
command line run loads only the modules its command uses.
"""

import importlib

# |e| of the decimal exponent of a rational read from argv or a text file, checked
# before Fraction('1e<e>') computes 10**|e|; equal to the default digit limit of
# int(), which bounds a plain 'p/q' the same way
MAX_EXPONENT = 4300

# Upper bounds of the size options of the command line.  Each is checked as the
# arguments are parsed, before any series is built, so that no input runs for
# minutes; the README lists the slowest accepted input of each command.  They
# are here, not in bermoments.cli, so that the module of each option's parser
# reads its cap without compiling the command line a second time.
MAX_KMAX = 256  # --kmax of gamma, check, trace and manifold (--chi or chern)
MAX_ORDER = 512  # --order of theta and --count of bernoulli
MAX_APOLY_K = 256  # --k of apoly
MAX_THRESHOLD_K = 64  # --k and --k-cap of nu-threshold
MAX_STEPS = 64  # --steps of nu-threshold; each step is one transform
MAX_CHERN_DIMENSION = 8  # the dimension n of manifold chern (--builtin or --file)
MAX_TPQR_MU = 2**14  # mu = p + q + r - 1, the spectrum size, of --tpqr and spectrum tpqr
MAX_WEIGHTS = 64  # --weights parts; r weights 1/2 pass the dense cap but cost about r^3
# characters of a --spectrum-file or chern --file; the longest spectrum qh output found has 6.02 * 10^7
MAX_FILE_CHARS = 2**26
# Largest dense expansion (coefficients of S = T^(1/D)) a spectrum may need, and the
# record lines of a --spectrum-file; (1/11, 1/13, 1/17, 1/19) needs 4 * 46189 + 1 = 184757.
MAX_DENSE_LENGTH = 2**18

# Joint caps on the bits of a rational argument (of its larger term), or of the
# centered pairs of a --spectrum-file or --chi, times its order, since row k
# has k times as many bits.
MAX_NU_BITS_KMAX = 2**16  # (bits of nu, or of a source) * --kmax of gamma, check, trace, manifold
MAX_THRESHOLD_BITS_K = 2**15  # (bits of --nu-hi + --steps, or of a file) * --k-cap of nu-threshold
MAX_APOLY_BITS_K = 2**18  # (bits of --x + bits of --nu) * --k of apoly
# (entries) * (bits) * --kmax (or --k-cap) of a --spectrum-file or a chi vector:
# the power sums hold about twice as many bits at their last order
MAX_POWER_SUM_BITS = 10**8


def _check_bits(bits: int, size: int, what: str, cap: int):
    if bits * size > cap:
        raise ValueError(f"{what} = {bits} * {size} = {bits * size} is above the cap of {cap}")


def _fraction(text: str):
    """Fraction(text), with the exponent of '1e400' read off the text first."""
    from fractions import Fraction  # here, so that importing the package stays cheap
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > MAX_EXPONENT:
        raise ValueError(f"exponent {exponent.strip()} is beyond the cap of +-{MAX_EXPONENT}")
    return Fraction(text)


# module -> the public names it exports here
_EXPORTS = {
    "bernpoly": ("centered_bernoulli_at_zero", "centered_bernoulli_poly", "centered_bernoulli_value"),
    "chern": (
        "ChernData",
        "bernoulli_moment_from_chern",
        "bernoulli_moments_from_chern",
        "builtin_chern_data",
        "builtin_chi_vector",
        "chern_data_genus",
        "chern_data_k3",
        "chern_data_pn",
        "moment_from_chern",
    ),
    "harness": ("ConjectureReport", "check_conjecture", "nu_threshold", "trace_convergence"),
    "kernels": ("DEFAULT_ORDER", "bernoulli_numbers"),
    "moments": ("ChiVector", "MomentSeries", "conjecture_nu"),
    # the second routes, which no command loads
    "oracles": (
        "abstract_spectrum",
        "bernoulli_moment_direct",
        "bernoulli_moments",
        "chern_moment_poly",
        "cos_scaled_value",
        "fourier_partial_sum",
        "gamma_genus_closed",
        "gamma_k3_closed",
        "gamma_pn_closed",
        "gamma_qh_product_nplus1",
        "gamma_qh_product_spread",
        "gamma_tpqr_closed",
        "generalized_bernoulli_value",
        "moments_of_chi",
        "moments_of_spectrum",
        "moments_qh_product",
        "periodize",
        "power_sum_in_elementary",
        "q_exponent_poly",
        "q_factor_series",
        "sin_scaled_value",
        "thom_sebastiani",
        "trace_limit",
        "verify_multiplication_formula",
    ),
    "polynomials": ("MPoly",),
    "series": ("Rational", "TruncatedSeries", "exp_linear", "sinhc_half", "theta_series"),
    "spectra": (
        "PuiseuxData",
        "Spectrum",
        "TpqrParams",
        "spectrum_curve",
        "spectrum_from_weights",
        "spectrum_tpqr",
    ),
    "weights": ("WeightSystem",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
