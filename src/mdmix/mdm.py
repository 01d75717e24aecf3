"""Joint counts for several profiles sharing one latent Dirichlet draw.

For an I x A table n with fixed row sums n_i. and theta > 0,

    P(n) = { prod_i C(n_i.; n_i1 .. n_iA) }
           * Gamma(a.) / Gamma(n.. + a.)
           * prod_a Gamma(n.a + a_a) / Gamma(a_a),

i.e. the pooled column counts are Dirichlet-multinomial and, given the
column sums, tables follow the exact multivariate hypergeometric law
(which is free of alpha).  At theta = 0 rows are independent multinomials
and the entry points below dispatch to that product.

A single profile is the one-row case I = 1: for counts (n_1 .. n_A) with
total n the law is the Dirichlet-multinomial

    P(n) = n! Gamma(a.) / Gamma(n + a.)
           * prod_b Gamma(n_b + a_b) / (n_b! Gamma(a_b)),

where a. = sum(alpha).  The same mass factors into a chain of
beta-binomial conditionals over the cumulative sums, and in the theta = 0
limit into a chain of plain binomials with tail-scaled success
probabilities Q_a = q_a / sum_{b >= a} q_b, which multiplies out to the
multinomial pmf.  For several rows the chain steps through the pooled
column counts, each split hypergeometrically across the rows' remaining
counts; one step is the private kernel _log_step, and mdm_chain_log_pmf
is their sum.

Marginalizing rows, conditioning on rows, and collapsing columns all stay
inside the family; the helpers here return the transformed parameter sets.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, compress

from .logspace import log_binomial, log_factorial, log_rising
from .model import (
    AlleleFrequencies,
    CountTable,
    DispersionModel,
    ParameterError,
    SubsetSpec,
    TableError,
    theta_to_alpha,
    _as_ints,
)


@dataclass(frozen=True)
class MdmParams:
    """Fixed row sums plus the shared dispersion model."""

    row_sums: tuple[int, ...]
    model: DispersionModel

    def __post_init__(self):
        rows = _as_ints(self.row_sums, "row_sums")
        if not rows:
            raise ParameterError("at least one profile row is required")
        if min(rows) < 0:
            raise ParameterError(f"row sums {rows} contain a negative entry")
        object.__setattr__(self, "row_sums", rows)

    @property
    def n_profiles(self) -> int:
        return len(self.row_sums)

    @property
    def n_total(self) -> int:
        return sum(self.row_sums)

    @property
    def n_categories(self) -> int:
        return self.model.n_categories


def _check_table(table: CountTable, params: MdmParams) -> None:
    if table.n_profiles != params.n_profiles:
        raise TableError(
            f"table has {table.n_profiles} rows, params expect "
            f"{params.n_profiles}"
        )
    if table.n_categories != params.n_categories:
        raise TableError(
            f"table has {table.n_categories} columns, model has "
            f"{params.n_categories}"
        )
    if table.row_sums != params.row_sums:
        raise TableError(
            f"table row sums {table.row_sums} do not match params "
            f"{params.row_sums}"
        )


def _suffix_sums(values) -> list[float]:
    """suffix[a] = values[a] + ... + values[-1], and suffix[len] = 0.0."""
    suffix = [0.0] * (len(values) + 1)
    for a in range(len(values) - 1, -1, -1):
        suffix[a] = suffix[a + 1] + values[a]
    return suffix


def _multinomial_row_log_pmf(row, q) -> float:
    """Log multinomial pmf of one row over the extended probabilities q;
    a zero cell adds only exact zeros to the fsum and is skipped."""
    terms = [log_factorial(sum(row))]
    for n_a, q_a in compress(zip(row, q), row):
        terms.append(-log_factorial(n_a))
        terms.append(n_a * math.log(q_a))
    return math.fsum(terms)


def _binomial_chain_row_log_pmf(row, q) -> float:
    """Log pmf of one row as the theta = 0 chain of binomials.

    Step a draws n_a of the remaining counts with Q_a = q_a / tail_a; the
    product multiplies out to _multinomial_row_log_pmf.
    """
    suffix = _suffix_sums(q)
    terms = []
    rem = sum(row)
    for a in range(len(q) - 1):
        n_a = row[a]
        terms.append(log_binomial(rem, n_a))
        if n_a > 0:
            terms.append(n_a * math.log(q[a] / suffix[a]))
        rem -= n_a
        if rem > 0:
            terms.append(rem * math.log(suffix[a + 1] / suffix[a]))
    return math.fsum(terms)


def mdm_log_pmf(table: CountTable, params: MdmParams) -> float:
    """Log pmf of the joint table; independent multinomials at theta = 0."""
    _check_table(table, params)
    model = params.model
    if model.theta == 0.0:
        q = model.freqs.extended_probs
        return math.fsum(_multinomial_row_log_pmf(row, q)
                         for row in table.counts)
    # log 0! = log 1! = log_rising(a, 0) = 0.0 exactly, and fsum is exactly
    # rounded, so only cells above 1 and nonzero columns need terms
    cols = table.col_sums
    terms = [-log_rising(model.alpha_total, table.total)]
    terms += map(log_factorial, table.row_sums)
    terms += map(operator.neg, map(log_factorial, filter(
        (1).__lt__, chain.from_iterable(table.counts))))
    terms += map(log_rising, compress(model.alpha, cols), filter(None, cols))
    return math.fsum(terms)


def _log_step(alpha_a: float, alpha_tail: float, col, free) -> float:
    """Log mass of one chain step, unchecked: the rows draw col[i] of their
    free[i] remaining counts into category a.  With n = sum(col) and
    rem = sum(free), the pooled count is beta-binomial and its split across
    the rows hypergeometric, which multiplies into

        { prod_i C(free_i, col_i) } * B-ratio(n, rem; alpha_a, alpha_tail).
    """
    n = sum(col)
    rem = sum(free)
    terms = [log_binomial(f, c) for f, c in zip(free, col)]
    terms += [log_rising(alpha_a, n), log_rising(alpha_tail, rem - n),
              -log_rising(alpha_a + alpha_tail, rem)]
    return math.fsum(terms)


def mdm_chain_log_pmf(table: CountTable, params: MdmParams) -> float:
    """Log pmf assembled column by column from _log_step.

    Telescopes to mdm_log_pmf; independent code path for cross-checks.
    At theta = 0 it is the product of per-row binomial chains.
    """
    _check_table(table, params)
    model = params.model
    if model.theta == 0.0:
        q = model.freqs.extended_probs
        return math.fsum(_binomial_chain_row_log_pmf(row, q)
                         for row in table.counts)
    alpha = model.alpha
    suffix = _suffix_sums(alpha)
    free = table.row_sums
    terms = []
    for a, col in enumerate(list(zip(*table.counts))[:-1]):
        terms.append(_log_step(alpha[a], suffix[a + 1], col, free))
        free = [f - c for f, c in zip(free, col)]
    return math.fsum(terms)


def marginal_over_alleles(params: MdmParams, keep: SubsetSpec) -> MdmParams:
    """Collapse the complement of `keep` into one category.

    The kept columns retain their parameters and the collapsed category
    gets the summed parameter, so row sums and theta are unchanged.
    """
    width = params.n_categories
    keep.validate_for(width)
    dropped = keep.complement(width)
    if not dropped:
        raise ParameterError("keep must be a proper subset of the categories")
    model = params.model
    if model.theta == 0.0:
        q = model.freqs.extended_probs
        probs = tuple(q[a] for a in keep.indices) + (
            math.fsum(q[a] for a in dropped),)
        new_model = theta_to_alpha(AlleleFrequencies(probs), 0.0)
    else:
        alpha = model.alpha
        new_alpha = tuple(alpha[a] for a in keep.indices) + (
            math.fsum(alpha[a] for a in dropped),)
        new_model = DispersionModel.from_alpha(new_alpha)
    return MdmParams(row_sums=params.row_sums, model=new_model)


def conditional_over_alleles(params: MdmParams, observed: CountTable,
                             observed_subset: SubsetSpec) -> MdmParams:
    """Condition on the counts of the observed category subset.

    The remaining columns follow the same family with row sums reduced by
    the observed rows; for theta > 0 their parameters are simply the
    remaining alphas (the implied theta changes), for theta = 0 the
    remaining probabilities renormalize.
    """
    width = params.n_categories
    observed_subset.validate_for(width)
    kept = observed_subset.complement(width)
    if not kept:
        raise ParameterError("conditioning on every category leaves nothing")
    if observed.n_profiles != params.n_profiles:
        raise TableError(
            f"observed table has {observed.n_profiles} rows, params expect "
            f"{params.n_profiles}"
        )
    if observed.n_categories != len(observed_subset.indices):
        raise TableError(
            f"observed table has {observed.n_categories} columns, subset "
            f"names {len(observed_subset.indices)}"
        )
    new_rows = []
    for i, (full, part) in enumerate(zip(params.row_sums, observed.row_sums)):
        if part > full:
            raise TableError(
                f"observed row {i} sums to {part} > row sum {full}"
            )
        new_rows.append(full - part)
    model = params.model
    if model.theta == 0.0:
        q = model.freqs.extended_probs
        kept_q = [q[a] for a in kept]
        norm = math.fsum(kept_q)
        new_model = theta_to_alpha(
            AlleleFrequencies(tuple(x / norm for x in kept_q)), 0.0)
    else:
        new_model = DispersionModel.from_alpha(
            tuple(model.alpha[a] for a in kept))
    return MdmParams(row_sums=tuple(new_rows), model=new_model)


def marginal_over_profiles(params: MdmParams, keep: SubsetSpec) -> MdmParams:
    """Drop every profile outside `keep`; the model is unchanged."""
    keep.validate_for(params.n_profiles)
    rows = tuple(params.row_sums[i] for i in keep.indices)
    return MdmParams(row_sums=rows, model=params.model)


def conditional_over_profiles(params: MdmParams, observed: CountTable,
                              observed_subset: SubsetSpec) -> MdmParams:
    """Condition on fully observed profile rows.

    The remaining rows follow the same family with each alpha shifted by
    the observed column sums (posterior updating of the shared Dirichlet
    draw); at theta = 0 rows are independent and the model is unchanged.
    """
    observed_subset.validate_for(params.n_profiles)
    kept = observed_subset.complement(params.n_profiles)
    if not kept:
        raise ParameterError("conditioning on every profile leaves nothing")
    if observed.n_profiles != len(observed_subset.indices):
        raise TableError(
            f"observed table has {observed.n_profiles} rows, subset names "
            f"{len(observed_subset.indices)}"
        )
    if observed.n_categories != params.n_categories:
        raise TableError(
            f"observed table has {observed.n_categories} columns, model has "
            f"{params.n_categories}"
        )
    for row_i, i in zip(observed.row_sums, observed_subset.indices):
        if row_i != params.row_sums[i]:
            raise TableError(
                f"observed row for profile {i} sums to {row_i}, expected "
                f"{params.row_sums[i]}"
            )
    rows = tuple(params.row_sums[i] for i in kept)
    model = params.model
    if model.theta == 0.0:
        return MdmParams(row_sums=rows, model=model)
    new_alpha = tuple(a + c for a, c in zip(model.alpha, observed.col_sums))
    return MdmParams(row_sums=rows, model=DispersionModel.from_alpha(new_alpha))


def hypergeometric_log_pmf(table: CountTable) -> float:
    """Log probability of the table given both margins; free of alpha.

    P(n | rows, cols) = prod_i n_i.! prod_a n.a! / (n..! prod_ia n_ia!).
    """
    terms = [-log_factorial(table.total)]
    for r in table.row_sums:
        terms.append(log_factorial(r))
    for c in table.col_sums:
        terms.append(log_factorial(c))
    for row in table.counts:
        for x in row:
            terms.append(-log_factorial(x))
    return math.fsum(terms)
