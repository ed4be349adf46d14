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
    "harness": ("ConjectureReport", "check_conjecture", "conjecture_nu", "nu_threshold", "trace_convergence"),
    "kernels": ("DEFAULT_ORDER", "bernoulli_numbers"),
    "moments": ("ChiVector", "MomentSeries"),
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
        "WeightSystem",
        "spectrum_curve",
        "spectrum_from_weights",
        "spectrum_tpqr",
    ),
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
