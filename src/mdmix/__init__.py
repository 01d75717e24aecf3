"""Multivariate Dirichlet-multinomial count tables with theta-correction.

Several profiles drawing alleles from one shared latent Dirichlet vector
stay positively correlated even though each profile alone is
Dirichlet-multinomial.  This package provides the joint pmf and its chain
factorization, marginals and conditionals over profiles and categories,
factorial moments, an exhaustive enumeration oracle with an exact
sampler, and the weight-of-evidence ratios used to quantify the effect of
the correction on two-contributor DNA-mixture match probabilities.
"""

from .evidence import (
    GenotypePair,
    MultiplicityClass,
    enumerate_genotype_pairs,
    genotype_from_alleles,
    multiplicity_class,
    pair_ratio,
    pair_ratio_curves,
    pair_ratio_via_pmfs,
    pair_ratio_via_steps,
    woe_curve,
    woe_margin_grid,
    woe_step,
)
from .logspace import LOG_ZERO, log_binomial, log_factorial
from .mdm import (
    MdmParams,
    conditional_over_alleles,
    conditional_over_profiles,
    hypergeometric_log_pmf,
    joint_step_conditional,
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
    MarginState,
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
    FactorialOrder,
    covariance,
    covariance_matrix,
    factorial_moment,
    falling_factorial,
    mean_matrix,
)
from .oracle import (
    MdmSampler,
    count_tables,
    enumerate_tables,
    enumerate_tables_with_margins,
    oracle_marginal_over_alleles,
    oracle_marginal_over_profiles,
    oracle_moment,
    oracle_pmf_sum,
)

__version__ = "0.1.0"

__all__ = [
    "AlleleFrequencies",
    "CountTable",
    "DispersionModel",
    "FactorialOrder",
    "FrequencyFileError",
    "GenotypePair",
    "LocusFrequencies",
    "LOG_ZERO",
    "MarginState",
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
    "count_tables",
    "covariance",
    "covariance_matrix",
    "enumerate_genotype_pairs",
    "enumerate_tables",
    "enumerate_tables_with_margins",
    "factorial_moment",
    "falling_factorial",
    "genotype_from_alleles",
    "hypergeometric_log_pmf",
    "joint_step_conditional",
    "log_binomial",
    "log_factorial",
    "marginal_over_alleles",
    "marginal_over_profiles",
    "mdm_chain_log_pmf",
    "mdm_log_pmf",
    "mean_matrix",
    "multiplicity_class",
    "oracle_marginal_over_alleles",
    "oracle_marginal_over_profiles",
    "oracle_moment",
    "oracle_pmf_sum",
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
