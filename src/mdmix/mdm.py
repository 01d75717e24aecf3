"""Joint counts for several profiles sharing one latent Dirichlet draw.

For an I x A table n with fixed row sums n_i., frequencies q and Dirichlet
parameters alpha_a = q_a a. (a. = alpha_total),

    P(n) = { prod_i C(n_i.; n_i1 .. n_iA) }
           * Gamma(a.) / Gamma(n.. + a.)
           * prod_a Gamma(n.a + alpha_a) / Gamma(alpha_a),

i.e. the pooled column counts are Dirichlet-multinomial and, given the
column sums, tables follow the exact multivariate hypergeometric law
(which is free of alpha).  Writing each gamma ratio as
log (x)_n = n log x + L(x, n) with the scaled rising kernel L of
logspace, the n log x parts collapse to sum_a n.a log q_a, so

    log P(n) = multinomial terms + sum_a L(alpha_a, n.a) - L(a., n..).

At theta = 0 (a. = inf) every L is exactly 0 and the pmf is the product
of independent row multinomials: the limit, with no case of its own.

The same mass factors into a chain over the categories.  Step a draws the
pooled column count n.a of the draws still free, a beta-binomial with
success probability Q_a = q_a / sum_{b >= a} q_b (a binomial at
theta = 0), split hypergeometrically across the rows' remaining counts;
one step is the private kernel _log_step, and mdm_chain_log_pmf is their
sum.  A step over an empty column is the chance that none of the free
draws lands in it, which leaves three terms.  What a step needs of q and
a. (log Q_a, log(1 - Q_a) and a memo of L for each of its three Dirichlet
masses) is built once per DispersionModel, on the first chain call, with
one memo per mass: step a's tail mass suffix[a+1] a. is step a+1's pool
mass, so the two steps share that memo, and a step's memo at q_a a. is
the direct pmf's.  So each L term is computed once per model and count,
for every MdmParams over the model, while its memo keeps fewer than
logspace._MEMO_SIZE counts.

Marginalizing rows, conditioning on rows, and collapsing columns all stay
inside the family; the helpers here return the transformed parameter sets.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, compress

from .logspace import log_binomial, log_factorial
from .model import (
    CountTable,
    DispersionModel,
    ParameterError,
    SubsetSpec,
    TableError,
    _MAX_TOTAL,
    _as_counts,
    _check_shape,
    _scaled_model,
    _type_error,
)

__all__ = [
    "MdmParams", "conditional_over_alleles", "conditional_over_profiles",
    "hypergeometric_log_pmf", "marginal_over_alleles",
    "marginal_over_profiles", "mdm_chain_log_pmf", "mdm_log_pmf",
]


@dataclass(frozen=True)
class MdmParams:
    """Fixed row sums plus the shared dispersion model."""

    row_sums: tuple[int, ...]
    model: DispersionModel

    def __post_init__(self):
        rows = _as_counts(self.row_sums, "row_sums", error=ParameterError)
        if not rows:
            raise ParameterError("row_sums: expected a non-empty list")
        if sum(rows) > _MAX_TOTAL:
            raise ParameterError("row_sums: the total is above 10**300")
        if not isinstance(self.model, DispersionModel):
            raise _type_error(self.model, DispersionModel, "model")
        object.__setattr__(self, "row_sums", rows)

    @property
    def n_profiles(self) -> int:
        return len(self.row_sums)

    @property
    def n_total(self) -> int:
        return sum(self.row_sums)

    @property
    def n_categories(self) -> int:
        return self.model.freqs.n_categories


def _check_table(table: CountTable, params: MdmParams,
                 name: str = "table") -> None:
    # equal row sums imply an equal row count, so a table that fits costs
    # two comparisons, and the shape rule runs only to name a mismatch
    if (table.row_sums != params.row_sums
            or table.n_categories != params.n_categories):
        _check_shape(name, table, params.n_profiles, params.n_categories)
        raise TableError(f"{name} row sums {table.row_sums} do not match "
                         f"params {params.row_sums}")


def _dirichlet_terms(model: DispersionModel, cols, total: int) -> list:
    """Log terms of the Dirichlet moment prod_a (alpha_a)_{c_a} / (a.)_total
    with total = sum_a c_a: c_a log q_a + L(q_a a., c_a) per nonzero column,
    and -L(a., total), for mdm_log_pmf and moments.factorial_moment to add
    their own terms to.  Each L is read from the model's memo at its mass,
    which holds the value log_scaled_rising gives.  A zero column adds only
    exact zeros, and both sum with the exactly rounded fsum, so it gets no
    terms."""
    memos = model._memos
    counts = list(filter(None, cols))
    terms = [-memos[-1][total]]
    terms += map(operator.mul, counts,
                 compress(model.freqs.log_extended_probs, cols))
    # the last memo, at a., is past the columns, so compress never picks it
    terms += map(operator.getitem, compress(memos, cols), counts)
    return terms


def mdm_log_pmf(table: CountTable, params: MdmParams) -> float:
    """Log pmf of the joint table; independent multinomials at theta = 0."""
    _check_table(table, params)
    terms = _dirichlet_terms(params.model, table.col_sums, table.total)
    terms += map(log_factorial, table.row_sums)
    # a zero cell adds log 0! = 0.0, so it gets no term either
    terms += map(operator.neg, map(log_factorial, filter(
        None, chain.from_iterable(table.counts))))
    return math.fsum(terms)


def _log_step(step: tuple, col, n: int, free, rem: int) -> float:
    """Log mass of one chain step, unchecked: the rows draw col[i] of their
    free[i] remaining counts, n = sum(col) of rem = sum(free), into the
    category of step, a _chain_steps record.  The pooled count is
    beta-binomial and its split across the rows hypergeometric:

        { prod_i C(free_i, col_i) } Q^n (1-Q)^(rem-n)
        * exp(L(q_a scale, n) + L(q_tail scale, rem-n) - L(pool scale, rem)),

    a binomial at scale = inf.  Each L is read from its memo, which holds
    the value log_scaled_rising gives, so a warm step has a cold one's
    bits; the pool memo is the tail memo of the step before, so in a chain
    L(pool scale, rem) is the value that step has just read.  Every term
    left out, a binomial of a zero cell or, for an empty column (n = 0),
    the terms in n, is an exact zero, and fsum is exactly rounded, so the
    bits are those of the full sum.
    """
    log_q, log_tail, memo_a, memo_tail, memo_pool = step
    neg_pool = -memo_pool[rem]
    l_tail = memo_tail[rem - n]
    if not n:
        return math.fsum((rem * log_tail, l_tail, neg_pool))
    terms = [log_binomial(f, c) for f, c in zip(free, col) if c]
    terms += [n * log_q, (rem - n) * log_tail, memo_a[n], l_tail, neg_pool]
    return math.fsum(terms)


def mdm_chain_log_pmf(table: CountTable, params: MdmParams) -> float:
    """Log pmf assembled column by column from _log_step.

    Telescopes to mdm_log_pmf; independent code path for cross-checks.
    The last column's step is certain (its tail is empty), and once no
    draw is free every later step is an exact zero, so neither is taken.
    """
    _check_table(table, params)
    free = table.row_sums
    rem = table.total
    terms = []
    for step, col, n in zip(params.model._steps, zip(*table.counts),
                            table.col_sums):
        if not rem:
            break
        terms.append(_log_step(step, col, n, free, rem))
        if n:
            free = list(map(operator.sub, free, col))
            rem -= n
    return math.fsum(terms)


def marginal_over_alleles(params: MdmParams, keep: SubsetSpec) -> MdmParams:
    """Collapse the complement of `keep` into one category.

    The kept columns retain their frequencies and the collapsed category
    gets the summed frequency; row sums, theta and alpha_total are
    unchanged.
    """
    dropped = keep.complement(params.n_categories)
    if not dropped:
        raise ParameterError("keep must be a proper subset of the categories")
    model = params.model
    q = model.freqs.extended_probs
    probs = tuple(q[a] for a in keep.indices) + (
        math.fsum(q[a] for a in dropped),)
    return MdmParams(row_sums=params.row_sums, model=_scaled_model(
        probs, model.alpha_total, model.theta))


def conditional_over_alleles(params: MdmParams, observed: CountTable,
                             observed_subset: SubsetSpec) -> MdmParams:
    """Condition on the counts of the observed category subset.

    The remaining columns follow the same family with row sums reduced by
    the observed rows and their own alphas: the remaining frequencies
    renormalize and alpha_total scales by their mass, so the implied theta
    changes (and stays 0 at theta = 0).
    """
    kept = observed_subset.complement(params.n_categories)
    if not kept:
        raise ParameterError("conditioning on every category leaves nothing")
    _check_shape("observed", observed, params.n_profiles,
                 len(observed_subset.indices))
    new_rows = []
    for i, (full, part) in enumerate(zip(params.row_sums, observed.row_sums)):
        if part > full:
            raise TableError(
                f"observed row {i} sums to {part} > row sum {full}"
            )
        new_rows.append(full - part)
    model = params.model
    kept_q = [model.freqs.extended_probs[a] for a in kept]
    mass = math.fsum(kept_q)
    new_model = _scaled_model([x / mass for x in kept_q],
                              model.alpha_total * mass)
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
    draw): q' = (alpha + c) / (a. + n) and a.' = a. + n.  At theta = 0
    (a. = inf) rows are independent, and q and theta come out unchanged.
    """
    kept = observed_subset.complement(params.n_profiles)
    if not kept:
        raise ParameterError("conditioning on every profile leaves nothing")
    _check_table(observed, marginal_over_profiles(params, observed_subset),
                 "observed")
    rows = tuple(params.row_sums[i] for i in kept)
    model = params.model
    a_total = model.alpha_total
    # (alpha_a + c_a) / (a. + n) with numerator and denominator divided by
    # a., which stays finite (and is q_a itself) as a. -> inf
    shrink = 1.0 + observed.total / a_total
    probs = [(q_a + c / a_total) / shrink
             for q_a, c in zip(model.freqs.extended_probs, observed.col_sums)]
    return MdmParams(row_sums=rows,
                     model=_scaled_model(probs, a_total + observed.total))


def hypergeometric_log_pmf(table: CountTable) -> float:
    """Log probability of the table given both margins; free of alpha.

    P(n | rows, cols) = prod_i n_i.! prod_a n.a! / (n..! prod_ia n_ia!).
    """
    terms = [-log_factorial(table.total)]
    terms += map(log_factorial, chain(table.row_sums, table.col_sums))
    # a zero cell adds -log 0! = -0.0, so it gets no term either
    terms += map(operator.neg, map(log_factorial, filter(
        None, chain.from_iterable(table.counts))))
    return math.fsum(terms)
