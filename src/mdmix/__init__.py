"""Multivariate Dirichlet-multinomial count tables with theta-correction.

Several profiles drawing alleles from one shared latent Dirichlet vector
stay positively correlated even though each profile alone is
Dirichlet-multinomial.  This package provides the joint pmf and its chain
factorization, marginals and conditionals over profiles and categories,
factorial moments, an exact sampler, and the weight-of-evidence ratios
used to quantify the effect of the correction on two-contributor
DNA-mixture match probabilities.  The exhaustive enumeration oracles live
in mdmix.oracle and the log-domain helpers in mdmix.logspace.

Each public name is declared once: in model.__all__, in mdm.__all__, or
in the table _LAZY below for the names of mdmix.evidence, mdmix.moments
and mdmix.oracle; __all__ is their union.  The _LAZY names, and those
three modules themselves, load on first use, because each imports numpy:
a program that uses only the pmf, such as `mdmix pmf`, runs without it.
"""

from importlib import import_module

from . import mdm, model
from .mdm import *
from .model import *

__version__ = "0.1.0"

# exported name -> the numpy-backed module that defines it
_LAZY = {
    **dict.fromkeys((
        "GenotypePair", "MultiplicityClass", "genotype_from_alleles",
        "pair_ratio", "pair_ratio_curves", "pair_ratio_via_pmfs",
        "pair_ratio_via_steps", "woe_curve", "woe_margin_grid", "woe_step",
    ), "evidence"),
    **dict.fromkeys(
        ("covariance_matrix", "factorial_moment", "mean_matrix"), "moments"),
    "MdmSampler": "oracle",
}

__all__ = sorted({*model.__all__, *mdm.__all__, *_LAZY})


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

