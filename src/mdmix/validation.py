"""Oracle suites behind the `validate` CLI command and acceptance tests 1-5.

Each suite checks a closed form against an independent route (exhaustive
enumeration, a second factorization, or an exact identity) over the cases
it is given and reports its worst error against a fixed tolerance.
`run_all_suites` runs them on small embedded grids; the acceptance tests
run the same functions on larger ones.  The suites are deterministic; a
green run is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .evidence import (
    enumerate_genotype_pairs,
    pair_ratio,
    pair_ratio_via_pmfs,
    pair_ratio_via_steps,
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
    SubsetSpec,
    theta_to_alpha,
)
from .moments import covariance_matrix, factorial_moment
from .oracle import (
    MdmSampler,
    enumerate_tables,
    enumerate_tables_with_margins,
    oracle_marginal_over_alleles,
    oracle_marginal_over_profiles,
    oracle_moment,
    oracle_pmf_sum,
)

NORMALIZATION_TOL = 1e-12
CHAIN_TOL = 1e-10
MARGINAL_TOL = 1e-12
HYPERGEOMETRIC_TOL = 1e-12
MOMENT_TOL = 1e-10
WOE_TOL = 1e-10


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    n_checks: int
    max_error: float
    tolerance: float
    note: str = ""


def _result(name: str, errors: list[float], tol: float,
            n_checks: int | None = None, note: str = "") -> SuiteResult:
    """Passed when every error is within tol.  max_error is the largest
    error, or nan when any error is nan, which max() would skip."""
    worst = (math.nan if any(map(math.isnan, errors))
             else max(errors, default=0.0))
    return SuiteResult(name, all(e <= tol for e in errors),
                       len(errors) if n_checks is None else n_checks,
                       worst, tol, note)


def _grid_params():
    """Small parameter grid shared by the normalization and chain suites."""
    out = []
    asym = (0.5, 1.0, 2.0, 4.0)
    qs = (0.15, 0.25, 0.35, 0.25)
    for n_profiles, rows in ((1, (2,)), (2, (1, 2)), (2, (2, 2)), (3, (1, 2, 2))):
        for width in (2, 3):
            models = [
                DispersionModel.from_alpha((1.0,) * width),
                DispersionModel.from_alpha(asym[:width]),
            ]
            for theta in (0.03, 0.1):
                probs = tuple(q / sum(qs[:width]) for q in qs[:width])
                models.append(theta_to_alpha(AlleleFrequencies(probs), theta))
            for model in models:
                out.append(MdmParams(row_sums=rows, model=model))
    return out


def suite_normalization(cases) -> SuiteResult:
    """|sum of the pmf over the support - 1| for each MdmParams."""
    errors = [abs(oracle_pmf_sum(params) - 1.0) for params in cases]
    return _result("normalization", errors, NORMALIZATION_TOL)


def suite_chain_equivalence(cases) -> SuiteResult:
    """|chain log pmf - direct log pmf| on the support of each MdmParams."""
    errors = [abs(mdm_chain_log_pmf(t, params) - mdm_log_pmf(t, params))
              for params in cases
              for t in enumerate_tables(params.row_sums, params.n_categories)]
    return _result("chain-equivalence", errors, CHAIN_TOL)


def _columns(table: CountTable, indices) -> CountTable:
    return CountTable(tuple(tuple(row[a] for a in indices)
                            for row in table.counts))


def _collapsed(table: CountTable, subset: SubsetSpec) -> CountTable:
    """The columns in `subset`, then one column with the sum of the rest."""
    rest = subset.complement(table.n_categories)
    return CountTable(tuple(tuple(row[a] for a in subset.indices)
                            + (sum(row[a] for a in rest),)
                            for row in table.counts))


def suite_marginal_conditional(cases) -> SuiteResult:
    """Each case is (params, kept alleles, observed alleles, observed
    profiles), the last three as SubsetSpec.  On every table of the
    support: the allele and the profile marginal against enumeration, and
    the joint against marginal times conditional, over the observed
    alleles and over the observed profiles."""
    errors = []
    for params, keep, seen, first in cases:
        kept_marg = marginal_over_alleles(params, keep)
        seen_marg = marginal_over_alleles(params, seen)
        head = seen.complement(params.n_categories)
        p_marg = marginal_over_profiles(params, first)
        rest = first.complement(params.n_profiles)
        for t in enumerate_tables(params.row_sums, params.n_categories):
            joint = math.exp(mdm_log_pmf(t, params))
            collapsed = _collapsed(t, keep)
            errors.append(abs(
                math.exp(mdm_log_pmf(collapsed, kept_marg))
                - oracle_marginal_over_alleles(params, keep, collapsed)))
            c_params = conditional_over_alleles(
                params, _columns(t, seen.indices), seen)
            errors.append(abs(joint - math.exp(
                mdm_log_pmf(_collapsed(t, seen), seen_marg)
                + mdm_log_pmf(_columns(t, head), c_params))))
            top = CountTable(tuple(t.counts[i] for i in first.indices))
            bottom = CountTable(tuple(t.counts[i] for i in rest))
            errors.append(abs(
                math.exp(mdm_log_pmf(top, p_marg))
                - oracle_marginal_over_profiles(params, first, top)))
            c_params = conditional_over_profiles(params, top, first)
            errors.append(abs(joint - math.exp(
                mdm_log_pmf(top, p_marg) + mdm_log_pmf(bottom, c_params))))
    return _result("marginal-conditional", errors, MARGINAL_TOL)


def suite_hypergeometric(cases) -> SuiteResult:
    """Each case is (row sums, column sums, alphas).  The hypergeometric
    law sums to 1 over the tables with both margins, and under each alpha
    the pmf renormalized over those tables equals it; plus the spot value
    P(((1, 1), (1, 1))) = 2/3."""
    errors = []
    for rows, cols, alphas in cases:
        support = list(enumerate_tables_with_margins(rows, cols))
        hyper = [math.exp(hypergeometric_log_pmf(t)) for t in support]
        errors.append(abs(math.fsum(hyper) - 1.0))
        for alpha in alphas:
            params = MdmParams(row_sums=rows,
                               model=DispersionModel.from_alpha(alpha))
            probs = [math.exp(mdm_log_pmf(t, params)) for t in support]
            total = math.fsum(probs)
            errors.extend(abs(p / total - h) for p, h in zip(probs, hyper))
    spot = CountTable(((1, 1), (1, 1)))
    errors.append(abs(math.exp(hypergeometric_log_pmf(spot)) - 2.0 / 3.0))
    return _result("hypergeometric", errors, HYPERGEOMETRIC_TOL)


def _unit_order(params: MdmParams, *cells) -> CountTable:
    """The order with r_ia raised by one for each (i, a) in `cells`."""
    counts = [[0] * params.n_categories for _ in range(params.n_profiles)]
    for i, a in cells:
        counts[i][a] += 1
    return CountTable(tuple(map(tuple, counts)))


def _second_orders(params: MdmParams) -> list[CountTable]:
    """Every factorial order of total 2."""
    cells = itertools.product(range(params.n_profiles),
                              range(params.n_categories))
    return [_unit_order(params, c, d)
            for c, d in itertools.combinations_with_replacement(cells, 2)]


def suite_moments(cases) -> SuiteResult:
    """Each case is (params, factorial orders).  Each closed-form moment
    against enumeration, relative (absolute where the moment is 0), and
    each covariance of params against the one derived from its factorial
    moments."""
    errors = []
    for params, orders in cases:
        for order in orders:
            closed = factorial_moment(order, params)
            brute = oracle_moment(order, params)
            errors.append(abs(closed - brute) / abs(brute) if brute
                          else abs(closed))

        def fm(*cells):
            return factorial_moment(_unit_order(params, *cells), params)

        cov = covariance_matrix(params).tolist()
        width = params.n_categories
        for i, a, j, b in itertools.product(
                range(params.n_profiles), range(params.n_categories),
                repeat=2):
            second = fm((i, a), (j, b))
            if (i, a) == (j, b):
                second += fm((i, a))
            derived = second - fm((i, a)) * fm((j, b))
            errors.append(abs(cov[i * width + a][j * width + b] - derived))
    return _result("moment-oracle", errors, MOMENT_TOL)


def suite_woe() -> SuiteResult:
    grid = woe_margin_grid(2)
    flagged = [s for s, free in grid if free]
    if len(grid) != 15 or len(flagged) != 3:
        return _result("woe-properties", [math.inf], WOE_TOL, 1,
                       f"grid sizes {len(grid)}/{len(flagged)}")
    if len(woe_margin_grid(1)) != 6:
        return _result("woe-properties", [math.inf], WOE_TOL, 2,
                       "single-contributor grid size")
    checks = 2
    errors = []
    note = ""
    for state, _ in grid:
        if woe_step(state, 0.1, 0.0) != 1.0:
            errors.append(float("inf"))
            note = "theta = 0 step not exactly 1"
        checks += 1
    for state, _ in grid:
        if state.n_col != 1:
            continue
        for q in (0.01, 0.05, 0.2, 0.5):
            for theta in (0.01, 0.1, 0.3, 0.5):
                val = woe_step(state, q, theta)
                if not val >= 1.0:
                    errors.append(1.0 - val)
                    note = note or "single-count step below 1"
                checks += 1
    freqs = AlleleFrequencies((0.1, 0.2, 0.3, 0.4))
    # relabelling check: pairs alike but for their singletons agree bitwise
    seen: dict[tuple, float] = {}
    for pair in enumerate_genotype_pairs(4):
        sig = tuple(c if c >= 2 else 0 for c in pair.pooled)
        for theta in (0.01, 0.1, 0.3):
            a = pair_ratio_via_pmfs(pair, freqs, theta)
            b = pair_ratio_via_steps(pair, freqs, theta)
            c = pair_ratio(pair, freqs, theta)
            errors += [abs(a - b), abs(a - c)]
            if seen.setdefault((sig, theta), c) != c:
                errors.append(float("inf"))
                note = note or f"relabelling check: {sig} at theta {theta}"
            checks += 4
    return _result("woe-properties", errors, WOE_TOL, checks, note)


def suite_sampler() -> SuiteResult:
    params = MdmParams(
        row_sums=(2, 2),
        model=theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)), 0.1))
    first = MdmSampler(params, seed=20240901)
    second = MdmSampler(params, seed=20240901)
    seq_a = [first.draw().counts for _ in range(200)]
    seq_b = [second.draw().counts for _ in range(200)]
    same = seq_a == seq_b
    one_shot = MdmSampler(params, 20240901).draw().counts == seq_a[0]
    return _result("sampler-determinism",
                   [0.0 if same and one_shot else math.inf], 0.0, 402)


def run_all_suites() -> list[SuiteResult]:
    grid = _grid_params()
    # the theta = 0 limit: chain equals the direct multinomial product
    multinomial = MdmParams(
        row_sums=(2, 2),
        model=theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)), 0.0))
    marginal = (MdmParams(row_sums=(2, 2),
                          model=DispersionModel.from_alpha((1.0, 2.0, 3.0))),
                SubsetSpec((0,)), SubsetSpec((2,)), SubsetSpec((0,)))
    alphas = ((1.0, 1.0, 1.0), (0.5, 2.0, 4.0), (3.0, 1.0, 0.25))
    margins = (((2, 2), (2, 2)), ((2, 2), (3, 1)), ((1, 2, 2), (2, 2, 1)))
    moment_params = (
        MdmParams(row_sums=(2, 2), model=DispersionModel.from_alpha((2.0, 2.0))),
        MdmParams(row_sums=(2, 3),
                  model=theta_to_alpha(AlleleFrequencies((0.1, 0.3, 0.6)), 0.05)),
    )
    return [
        suite_normalization(grid),
        suite_chain_equivalence(grid + [multinomial]),
        suite_marginal_conditional([marginal]),
        suite_hypergeometric([(rows, cols, [a[:len(cols)] for a in alphas])
                              for rows, cols in margins]),
        suite_moments([(p, _second_orders(p)) for p in moment_params]),
        suite_woe(),
        suite_sampler(),
    ]
