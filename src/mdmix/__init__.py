"""Multivariate Dirichlet-multinomial count tables with theta-correction.

Several profiles drawing alleles from one shared latent Dirichlet vector
stay positively correlated even though each profile alone is
Dirichlet-multinomial.  This package provides the joint pmf and its chain
factorization, marginals and conditionals over profiles and categories,
factorial moments, an exact sampler, and the weight-of-evidence ratios
used to quantify the effect of the correction on two-contributor
DNA-mixture match probabilities.  The exhaustive enumeration oracles live
in mdmix.oracle and the log-domain helpers in mdmix.logspace.

The names from mdmix.evidence, mdmix.moments and mdmix.oracle, and those
three modules themselves, load on first use, because each imports numpy:
a program that uses only the pmf, such as `mdmix pmf`, runs without it.
"""

from importlib import import_module

from .mdm import (
    MdmParams,
    conditional_over_alleles,
    conditional_over_profiles,
    hypergeometric_log_pmf,
    marginal_over_alleles,
    marginal_over_profiles,
    mdm_chain_log_pmf,
    mdm_log_pmf,
)
from .model import (
    AlleleFrequencies,
    CountTable,
    DispersionModel,
    FrequencyFileError,
    LocusFrequencies,
    MdmixError,
    ParameterError,
    ProfileCounts,
    SizeGuardError,
    SubsetSpec,
    TableError,
    read_frequency_csv,
    theta_to_alpha,
)

__version__ = "0.1.0"

# exported name -> the numpy-backed module that defines it
_LAZY = {
    **dict.fromkeys((
        "GenotypePair",
        "MultiplicityClass",
        "genotype_from_alleles",
        "pair_ratio",
        "pair_ratio_curves",
        "pair_ratio_via_pmfs",
        "pair_ratio_via_steps",
        "woe_curve",
        "woe_margin_grid",
        "woe_step",
    ), "evidence"),
    **dict.fromkeys((
        "covariance_matrix",
        "factorial_moment",
        "mean_matrix",
    ), "moments"),
    "MdmSampler": "oracle",
}


def __getattr__(name):
    """Import a name of `_LAZY`, or one of its modules, on first access
    (PEP 562); the name is then bound here, so later reads are plain."""
    if name in _LAZY.values():
        return import_module("." + name, __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module("." + _LAZY[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})

__all__ = [
    "AlleleFrequencies",
    "CountTable",
    "DispersionModel",
    "FrequencyFileError",
    "GenotypePair",
    "LocusFrequencies",
    "MdmParams",
    "MdmSampler",
    "MdmixError",
    "MultiplicityClass",
    "ParameterError",
    "ProfileCounts",
    "SizeGuardError",
    "SubsetSpec",
    "TableError",
    "conditional_over_alleles",
    "conditional_over_profiles",
    "covariance_matrix",
    "factorial_moment",
    "genotype_from_alleles",
    "hypergeometric_log_pmf",
    "marginal_over_alleles",
    "marginal_over_profiles",
    "mdm_chain_log_pmf",
    "mdm_log_pmf",
    "mean_matrix",
    "pair_ratio",
    "pair_ratio_curves",
    "pair_ratio_via_pmfs",
    "pair_ratio_via_steps",
    "read_frequency_csv",
    "theta_to_alpha",
    "woe_curve",
    "woe_margin_grid",
    "woe_step",
]
