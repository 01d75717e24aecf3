"""Self-contained oracle suites behind the `validate` CLI command.

Each suite checks a closed form against an independent route (exhaustive
enumeration, a second factorization, or an exact identity) on a small
embedded grid and reports its worst error.  The suites are deterministic;
a green run is reproducible bit for bit.
"""

from __future__ import annotations

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
from .moments import FactorialOrder, covariance, factorial_moment
from .oracle import (
    MdmSampler,
    enumerate_tables,
    enumerate_tables_with_margins,
    oracle_marginal_over_alleles,
    oracle_marginal_over_profiles,
    oracle_moment,
    oracle_pmf_sum,
    sequential_sample,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    n_checks: int
    max_error: float
    tolerance: float
    note: str = ""


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


def suite_normalization(tol: float = 1e-12) -> SuiteResult:
    worst = 0.0
    checks = 0
    for params in _grid_params():
        worst = max(worst, abs(oracle_pmf_sum(params) - 1.0))
        checks += 1
    return SuiteResult("normalization", worst <= tol, checks, worst, tol)


def suite_chain_equivalence(tol: float = 1e-10) -> SuiteResult:
    worst = 0.0
    checks = 0
    for params in _grid_params():
        for t in enumerate_tables(params.row_sums, params.n_categories):
            worst = max(worst, abs(mdm_chain_log_pmf(t, params)
                                   - mdm_log_pmf(t, params)))
            checks += 1
    # theta = 0 dispatch: chain equals the direct multinomial product
    freqs = AlleleFrequencies((0.2, 0.3, 0.5))
    params0 = MdmParams(row_sums=(2, 2), model=theta_to_alpha(freqs, 0.0))
    for t in enumerate_tables(params0.row_sums, 3):
        worst = max(worst, abs(mdm_chain_log_pmf(t, params0)
                               - mdm_log_pmf(t, params0)))
        checks += 1
    return SuiteResult("chain-equivalence", worst <= tol, checks, worst, tol)


def suite_marginal_conditional(tol: float = 1e-12) -> SuiteResult:
    worst = 0.0
    checks = 0
    model = DispersionModel.from_alpha((1.0, 2.0, 3.0))
    params = MdmParams(row_sums=(2, 2), model=model)
    keep = SubsetSpec((0,))
    cond_on = SubsetSpec((2,))
    m_params = marginal_over_alleles(params, keep)
    for t in enumerate_tables(params.row_sums, 3):
        collapsed = CountTable(tuple(
            (row[0], row[1] + row[2]) for row in t.counts))
        closed = math.exp(mdm_log_pmf(collapsed, m_params))
        brute = oracle_marginal_over_alleles(params, keep, collapsed)
        worst = max(worst, abs(closed - brute))
        # chain rule: joint = marginal of the observed column times the
        # conditional of the remaining block
        observed = CountTable(tuple((row[2],) for row in t.counts))
        head = CountTable(tuple((row[0], row[1]) for row in t.counts))
        obs_marg = marginal_over_alleles(params, cond_on)
        obs_table = CountTable(tuple(
            (row[2], row[0] + row[1]) for row in t.counts))
        c_params = conditional_over_alleles(params, observed, cond_on)
        joint = math.exp(mdm_log_pmf(t, params))
        split = math.exp(mdm_log_pmf(obs_table, obs_marg)
                         + mdm_log_pmf(head, c_params))
        worst = max(worst, abs(joint - split))
        checks += 2
    first = SubsetSpec((0,))
    p_marg = marginal_over_profiles(params, first)
    for t in enumerate_tables(params.row_sums, 3):
        top = CountTable((t.counts[0],))
        bottom = CountTable((t.counts[1],))
        closed = math.exp(mdm_log_pmf(top, p_marg))
        brute = oracle_marginal_over_profiles(params, first, top)
        worst = max(worst, abs(closed - brute))
        c_params = conditional_over_profiles(params, top, first)
        joint = math.exp(mdm_log_pmf(t, params))
        split = math.exp(mdm_log_pmf(top, p_marg)
                         + mdm_log_pmf(bottom, c_params))
        worst = max(worst, abs(joint - split))
        checks += 2
    return SuiteResult("marginal-conditional", worst <= tol, checks, worst, tol)


def suite_hypergeometric(tol: float = 1e-12) -> SuiteResult:
    worst = 0.0
    checks = 0
    margins = (((2, 2), (2, 2)), ((2, 2), (3, 1)), ((1, 2, 2), (2, 2, 1)))
    alphas = ((1.0, 1.0, 1.0), (0.5, 2.0, 4.0), (3.0, 1.0, 0.25))
    for rows, cols in margins:
        support = list(enumerate_tables_with_margins(rows, cols))
        norm = math.fsum(math.exp(hypergeometric_log_pmf(t)) for t in support)
        worst = max(worst, abs(norm - 1.0))
        checks += 1
        for alpha in alphas:
            model = DispersionModel.from_alpha(alpha[:len(cols)])
            params = MdmParams(row_sums=rows, model=model)
            probs = [math.exp(mdm_log_pmf(t, params)) for t in support]
            total = math.fsum(probs)
            for t, p in zip(support, probs):
                cond = p / total
                worst = max(worst, abs(
                    cond - math.exp(hypergeometric_log_pmf(t))))
                checks += 1
    spot = CountTable(((1, 1), (1, 1)))
    worst = max(worst, abs(math.exp(hypergeometric_log_pmf(spot)) - 2.0 / 3.0))
    checks += 1
    return SuiteResult("hypergeometric", worst <= tol, checks, worst, tol)


def suite_moments(tol: float = 1e-10) -> SuiteResult:
    worst = 0.0
    checks = 0
    cases = [
        MdmParams(row_sums=(2, 2), model=DispersionModel.from_alpha((2.0, 2.0))),
        MdmParams(row_sums=(2, 3),
                  model=theta_to_alpha(AlleleFrequencies((0.1, 0.3, 0.6)), 0.05)),
    ]
    for params in cases:
        n_p, n_c = params.n_profiles, params.n_categories
        orders = []
        for i in range(n_p):
            for a in range(n_c):
                base = [[0] * n_c for _ in range(n_p)]
                base[i][a] = 2
                orders.append(FactorialOrder(tuple(map(tuple, base))))
                for j in range(n_p):
                    for b in range(n_c):
                        if (j, b) <= (i, a):
                            continue
                        mixed = [[0] * n_c for _ in range(n_p)]
                        mixed[i][a] = 1
                        mixed[j][b] = 1
                        orders.append(FactorialOrder(tuple(map(tuple, mixed))))
        for order in orders:
            closed = factorial_moment(order, params)
            brute = oracle_moment(order, params)
            scale = max(abs(brute), 1e-300)
            worst = max(worst, abs(closed - brute) / scale)
            checks += 1
        # covariance closed forms against moment-derived values
        def fm(matrix):
            return factorial_moment(
                FactorialOrder(tuple(map(tuple, matrix))), params)

        for i in range(n_p):
            for a in range(n_c):
                for j in range(n_p):
                    for b in range(n_c):
                        e_one = [[0] * n_c for _ in range(n_p)]
                        e_one[i][a] = 1
                        e_two = [[0] * n_c for _ in range(n_p)]
                        e_two[j][b] = 1
                        mixed = [[0] * n_c for _ in range(n_p)]
                        mixed[i][a] += 1
                        mixed[j][b] += 1
                        ev = fm(e_one) * fm(e_two)
                        second = fm(mixed)
                        if i == j and a == b:
                            second += fm(e_one)
                        derived = second - ev
                        worst = max(worst, abs(
                            covariance(params, i, a, j, b) - derived))
                        checks += 1
    return SuiteResult("moment-oracle", worst <= tol, checks, worst, tol)


def suite_woe(tol: float = 1e-10) -> SuiteResult:
    worst = 0.0
    checks = 0
    note = ""
    grid = woe_margin_grid(2)
    flagged = [s for s, free in grid if free]
    if len(grid) != 15 or len(flagged) != 3:
        return SuiteResult("woe-properties", False, 1, float("inf"), tol,
                           f"grid sizes {len(grid)}/{len(flagged)}")
    checks += 1
    if len(woe_margin_grid(1)) != 6:
        return SuiteResult("woe-properties", False, checks, float("inf"), tol,
                           "single-contributor grid size")
    checks += 1
    for state, _ in grid:
        if woe_step(state, 0.1, 0.0) != 1.0:
            worst = float("inf")
            note = "theta = 0 step not exactly 1"
        checks += 1
    for state, _ in grid:
        if state.n_col != 1:
            continue
        for q in (0.01, 0.05, 0.2, 0.5):
            for theta in (0.01, 0.1, 0.3, 0.5):
                val = woe_step(state, q, theta)
                if val < 1.0:
                    worst = max(worst, 1.0 - val)
                    note = note or "single-count step below 1"
                checks += 1
    freqs = AlleleFrequencies((0.1, 0.2, 0.3, 0.4))
    for pair in enumerate_genotype_pairs(4):
        for theta in (0.01, 0.1, 0.3):
            a = pair_ratio_via_pmfs(pair, freqs, theta)
            b = pair_ratio_via_steps(pair, freqs, theta)
            c = pair_ratio(pair, freqs, theta)
            worst = max(worst, abs(a - b), abs(a - c))
            checks += 3
    return SuiteResult("woe-properties", worst <= tol, checks, worst, tol, note)


def suite_sampler(tol: float = 0.0) -> SuiteResult:
    params = MdmParams(
        row_sums=(2, 2),
        model=theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)), 0.1))
    first = MdmSampler(params, seed=20240901)
    second = MdmSampler(params, seed=20240901)
    seq_a = [first.draw().counts for _ in range(200)]
    seq_b = [second.draw().counts for _ in range(200)]
    same = seq_a == seq_b
    one_shot = sequential_sample(params, 20240901).counts == seq_a[0]
    passed = same and one_shot
    return SuiteResult("sampler-determinism", passed, 402,
                       0.0 if passed else float("inf"), tol)


def run_all_suites() -> list[SuiteResult]:
    return [
        suite_normalization(),
        suite_chain_equivalence(),
        suite_marginal_conditional(),
        suite_hypergeometric(),
        suite_moments(),
        suite_woe(),
        suite_sampler(),
    ]
