"""Multivariate Dirichlet-multinomial count tables with theta-correction.

Several profiles drawing alleles from one shared latent Dirichlet vector
stay positively correlated even though each profile alone is
Dirichlet-multinomial.  This package provides the joint pmf and its chain
factorization, marginals and conditionals over profiles and categories,
factorial moments, an exact sampler, and the weight-of-evidence ratios
used to quantify the effect of the correction on two-contributor
DNA-mixture match probabilities.  The exhaustive enumeration oracles live
in mdmix.oracle and the log-domain helpers in mdmix.logspace.
"""

from .evidence import (
    GenotypePair,
    MultiplicityClass,
    genotype_from_alleles,
    pair_ratio,
    pair_ratio_curves,
    pair_ratio_via_pmfs,
    pair_ratio_via_steps,
    woe_curve,
    woe_margin_grid,
    woe_step,
)
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
from .moments import (
    covariance_matrix,
    factorial_moment,
    mean_matrix,
)
from .oracle import MdmSampler

__version__ = "0.1.0"

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
