# SPDX-License-Identifier: Apache-2.0
"""End-to-end acceptance checks.

One test per criterion, at the tolerances promised in the README; the
terminal summary prints one PASS/FAIL line for each.  Every closed form is
judged against exhaustive enumeration or an independently coded reference,
never against itself.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from mdmix import (AlleleFrequencies, CountTable, DispersionModel,
                   FactorialOrder, MarginState, MdmParams, MdmSampler,
                   SubsetSpec, conditional_over_alleles,
                   conditional_over_profiles, covariance, enumerate_tables,
                   enumerate_tables_with_margins, factorial_moment,
                   hypergeometric_log_pmf, marginal_over_alleles,
                   marginal_over_profiles, mdm_chain_log_pmf, mdm_log_pmf,
                   mean_matrix, oracle_marginal_over_alleles,
                   oracle_marginal_over_profiles, oracle_moment,
                   covariance_matrix, enumerate_genotype_pairs, pair_ratio,
                   pair_ratio_curves, pair_ratio_via_pmfs,
                   pair_ratio_via_steps, theta_to_alpha, woe_margin_grid,
                   woe_step)
from mdmix.cli import main

PANEL = AlleleFrequencies((0.025, 0.05, 0.1, 0.2, 0.4))


def row_sum_multisets(n_profiles):
    """Non-decreasing row-sum tuples with entries from {1, 2, 3}."""
    return list(itertools.combinations_with_replacement((1, 2, 3),
                                                        n_profiles))


def models_for_width(width):
    """A spread of dispersion models over `width` categories."""
    out = [DispersionModel.from_alpha((1.0,) * width),
           DispersionModel.from_alpha((0.5, 1.0, 2.0, 4.0)[:width])]
    probs = tuple(k + 1.0 for k in range(width))
    freqs = AlleleFrequencies(tuple(p / sum(probs) for p in probs[:-1]))
    for theta in (0.01, 0.03, 0.1, 0.3):
        out.append(theta_to_alpha(freqs, theta))
    return out


def parameter_grid():
    for n_profiles in (1, 2, 3):
        for rows in row_sum_multisets(n_profiles):
            for width in (2, 3, 4):
                for model in models_for_width(width):
                    yield MdmParams(rows, model)


def test_01_pmf_normalizes_over_the_full_support():
    started = time.time()
    worst = 0.0
    n_checked = 0
    for params in parameter_grid():
        total = math.fsum(
            math.exp(mdm_log_pmf(t, params))
            for t in enumerate_tables(params.row_sums, params.n_categories))
        worst = max(worst, abs(total - 1.0))
        n_checked += 1
    elapsed = time.time() - started
    assert n_checked == 19 * 3 * 6
    assert worst < 1e-12, f"worst normalization gap {worst}"
    assert elapsed < 10.0, f"normalization sweep took {elapsed:.1f}s"


def test_02_chain_factorization_matches_joint_pmf():
    worst = 0.0
    for params in parameter_grid():
        for t in enumerate_tables(params.row_sums, params.n_categories):
            gap = abs(mdm_chain_log_pmf(t, params) - mdm_log_pmf(t, params))
            worst = max(worst, gap)
    assert worst < 1e-10, f"worst chain-joint gap {worst}"


def test_03_marginals_and_conditionals_match_enumeration():
    worst = 0.0
    models = [DispersionModel.from_alpha((0.5, 1.0, 2.0)),
              theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)), 0.1),
              theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)), 0.0)]
    for model in models:
        params = MdmParams((2, 2), model)

        keep = SubsetSpec((0,))
        marg = marginal_over_alleles(params, keep)
        for sub in enumerate_tables((2, 2), 2):
            closed = math.exp(mdm_log_pmf(sub, marg))
            brute = oracle_marginal_over_alleles(params, keep, sub)
            worst = max(worst, abs(closed - brute))


        observed_on = SubsetSpec((2,))
        obs_marg = marginal_over_alleles(params, observed_on)
        for t in enumerate_tables((2, 2), 3):
            obs = CountTable(tuple((row[2],) for row in t.counts))
            obs_full = CountTable(tuple((row[2], row[0] + row[1])
                                        for row in t.counts))
            head = CountTable(tuple(row[:2] for row in t.counts))
            cond = conditional_over_alleles(params, obs, observed_on)
            joint = math.exp(mdm_log_pmf(t, params))
            split = math.exp(mdm_log_pmf(obs_full, obs_marg)
                             + mdm_log_pmf(head, cond))
            worst = max(worst, abs(joint - split))

        first = SubsetSpec((0,))
        p_marg = marginal_over_profiles(params, first)
        for t in enumerate_tables((2, 2), 3):
            top = CountTable((t.counts[0],))
            bottom = CountTable((t.counts[1],))
            closed = math.exp(mdm_log_pmf(top, p_marg))
            brute = oracle_marginal_over_profiles(params, first, top)
            worst = max(worst, abs(closed - brute))
            cond = conditional_over_profiles(params, top, first)
            joint = math.exp(mdm_log_pmf(t, params))
            split = math.exp(mdm_log_pmf(top, p_marg)
                             + mdm_log_pmf(bottom, cond))
            worst = max(worst, abs(joint - split))

    # wider shapes: a multi-column keep set and a non-contiguous profile set
    wide_models = [DispersionModel.from_alpha((0.5, 1.0, 2.0, 4.0)),
                   theta_to_alpha(AlleleFrequencies((0.1, 0.2, 0.3, 0.4)),
                                  0.0)]
    for model in wide_models:
        wide = MdmParams((2, 1, 2), model)
        keep2 = SubsetSpec((0, 2))
        marg2 = marginal_over_alleles(wide, keep2)
        for sub in enumerate_tables((2, 1, 2), 3):
            closed = math.exp(mdm_log_pmf(sub, marg2))
            brute = oracle_marginal_over_alleles(wide, keep2, sub)
            worst = max(worst, abs(closed - brute))

        outer = SubsetSpec((0, 2))
        p_marg2 = marginal_over_profiles(wide, outer)
        for t in enumerate_tables((2, 1, 2), 4):
            ends = CountTable((t.counts[0], t.counts[2]))
            middle = CountTable((t.counts[1],))
            cond = conditional_over_profiles(wide, ends, outer)
            joint = math.exp(mdm_log_pmf(t, wide))
            split = math.exp(mdm_log_pmf(ends, p_marg2)
                             + mdm_log_pmf(middle, cond))
            worst = max(worst, abs(joint - split))
    assert worst < 1e-12, f"worst marginal/conditional gap {worst}"


def test_04_margin_conditional_is_hypergeometric():
    worst = 0.0
    margin_sets = [((2, 2), (2, 2)), ((2, 2), (1, 3)), ((2, 1, 2), (2, 2, 1))]
    alpha_sets = {2: [(1.0, 1.0), (0.3, 2.2), (5.0, 0.7)],
                  3: [(1.0, 1.0, 1.0), (0.3, 2.2, 1.4), (5.0, 0.7, 2.0)]}
    for rows, cols in margin_sets:
        for alpha in alpha_sets[len(cols)]:
            params = MdmParams(rows, DispersionModel.from_alpha(alpha))
            tables = list(enumerate_tables_with_margins(rows, cols))
            probs = [math.exp(mdm_log_pmf(t, params)) for t in tables]
            norm = math.fsum(probs)
            hyper = [math.exp(hypergeometric_log_pmf(t)) for t in tables]
            worst = max(worst, abs(math.fsum(hyper) - 1.0))
            for p, h in zip(probs, hyper):
                worst = max(worst, abs(p / norm - h))
    spot = math.exp(hypergeometric_log_pmf(CountTable(((1, 1), (1, 1)))))
    worst = max(worst, abs(spot - 2.0 / 3.0))
    assert worst < 1e-12, f"worst hypergeometric gap {worst}"


def all_orders(n_profiles, n_categories, max_total):
    cells = n_profiles * n_categories
    for values in itertools.product(range(max_total + 1), repeat=cells):
        if 0 < sum(values) <= max_total:
            yield FactorialOrder(tuple(
                tuple(values[i * n_categories:(i + 1) * n_categories])
                for i in range(n_profiles)))


def test_05_moments_match_enumeration():
    worst_rel = 0.0
    models = [DispersionModel.from_alpha((0.5, 1.0, 2.0)),
              theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)), 0.0)]
    for model in models:
        params = MdmParams((2, 2), model)
        for order in all_orders(2, 3, 4):
            closed = factorial_moment(order, params)
            brute = oracle_moment(order, params)
            if brute == 0.0:
                worst_rel = max(worst_rel, abs(closed))
            else:
                worst_rel = max(worst_rel, abs(closed - brute) / abs(brute))
    assert worst_rel < 1e-10, f"worst moment relative error {worst_rel}"

    # covariances against moment identities
    worst = 0.0
    for model in models:
        params = MdmParams((2, 3), model)

        def mean(i, a):
            rows = [[0] * 3, [0] * 3]
            rows[i][a] = 1
            return factorial_moment(
                FactorialOrder(tuple(map(tuple, rows))), params)

        for i in range(2):
            for a in range(3):
                for j in range(2):
                    for b in range(3):
                        rows = [[0] * 3, [0] * 3]
                        rows[i][a] += 1
                        rows[j][b] += 1
                        raw = factorial_moment(
                            FactorialOrder(tuple(map(tuple, rows))), params)
                        if (i, a) == (j, b):
                            raw += mean(i, a)
                        derived = raw - mean(i, a) * mean(j, b)
                        got = covariance(params, i, a, j, b)
                        worst = max(worst, abs(got - derived))
    assert worst < 1e-12, f"worst covariance gap {worst}"

    # row sums are fixed, so covariances against any row total vanish
    for model in models:
        params = MdmParams((2, 3), model)
        full = covariance_matrix(params)
        assert np.max(np.abs(full - full.T)) < 1e-12
        for j in range(2):
            block = full[:, j * 3:(j + 1) * 3]
            assert np.max(np.abs(block.sum(axis=1))) < 1e-12

    # an empty profile contributes nothing
    empty = MdmParams((0, 2), DispersionModel.from_alpha((1.0, 1.0)))
    assert factorial_moment(FactorialOrder(((1, 0), (0, 0))), empty) == 0.0
    assert mean_matrix(empty)[0, 0] == 0.0

    # spot values: q = 0.1, theta = 0.03, two draws per profile
    spot = MdmParams((2, 2),
                     theta_to_alpha(AlleleFrequencies((0.1, 0.4, 0.5)), 0.03))
    assert covariance(spot, 0, 0, 0, 0) == pytest.approx(0.1854, abs=1e-12)
    assert covariance(spot, 0, 0, 1, 0) == pytest.approx(0.0108, abs=1e-12)


def test_06_step_ratios_behave_across_the_margin_grid():
    grid = woe_margin_grid()
    assert len(grid) == 15
    relevant = [state for state, flagged in grid if not flagged]
    assert len(relevant) == 12

    q_panel = (0.01, 0.025, 0.05, 0.1, 0.2, 0.4, 0.5)
    thetas = tuple(k / 100.0 for k in range(1, 51))

    for state, _ in grid:
        for q in q_panel:
            assert woe_step(state, q, 0.0) == 1.0

    for s_prev in range(4):
        state = MarginState(1, s_prev, 2)
        for q in q_panel:
            for theta in thetas:
                assert woe_step(state, q, theta) >= 1.0, (state, q, theta)

    for state, flagged in grid:
        if flagged or state.n_col < 2:
            continue
        for theta in thetas:
            assert woe_step(state, 0.025, theta) < 1.0, (state, theta)


def test_07_pair_ratio_curves():
    thetas = tuple(k / 100.0 for k in range(0, 51))
    curves = {cls.label: values
              for cls, values in pair_ratio_curves(PANEL, thetas).items()}
    assert set(curves) == {"()", "(2)", "(2,2)", "(3)", "(4)"}

    for values in curves.values():
        assert values[0] == 1.0

    # every pair with the same multiplicity signature yields the same value
    # (validate checks this too); check the exactness independently
    groups: dict[tuple, set[float]] = {}
    for pair in enumerate_genotype_pairs(PANEL.n_categories):
        sig = tuple(sorted((c, a) for a, c in enumerate(pair.pooled)
                           if c >= 2))
        groups.setdefault(sig, set()).add(pair_ratio(pair, PANEL, 0.2))
    assert all(len(v) == 1 for v in groups.values())

    # the reduced form agrees with both full computations
    worst = 0.0
    for pair in enumerate_genotype_pairs(4):
        freqs = AlleleFrequencies((0.1, 0.2, 0.3, 0.4))
        for theta in (0.01, 0.1, 0.3, 0.5):
            reduced = pair_ratio(pair, freqs, theta)
            worst = max(worst,
                        abs(reduced / pair_ratio_via_pmfs(pair, freqs, theta)
                            - 1.0),
                        abs(reduced / pair_ratio_via_steps(pair, freqs, theta)
                            - 1.0))
    assert worst < 1e-10, f"worst two-path relative gap {worst}"

    # full sharing is always less likely under independence than partial
    for k, theta in enumerate(thetas):
        if theta == 0.0:
            continue
        assert curves["(4)"][k] < curves["(2)"][k]


def _gof(params, seed, n_draws):
    support = {t.counts: math.exp(mdm_log_pmf(t, params))
               for t in enumerate_tables(params.row_sums,
                                         params.n_categories)}
    sampler = MdmSampler(params, seed=seed)
    counter = Counter(sampler.draw_counts() for _ in range(n_draws))
    observed = [counter.get(key, 0) for key in support]
    expected = [p * n_draws for p in support.values()]
    assert min(expected) > 5.0
    _, pvalue = chisquare(observed, expected)
    return pvalue, counter, support


def test_08_sampler_is_exact_and_fast():
    started = time.time()

    params = MdmParams((2, 2),
                       theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)), 0.1))
    s1, s2 = MdmSampler(params, 123), MdmSampler(params, 123)
    assert all(s1.draw_counts() == s2.draw_counts() for _ in range(200))

    configs = [
        (params, 7),
        (MdmParams((2, 2), theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)),
                                          0.0)), 11),
        (MdmParams((2, 2, 2), theta_to_alpha(AlleleFrequencies((0.5, 0.5)),
                                             0.3)), 5),
    ]
    for cfg, seed in configs:
        pvalue, _, _ = _gof(cfg, seed, 100_000)
        assert pvalue > 0.001, f"seed {seed}: GOF p = {pvalue}"

    # moment agreement on a million draws, all entries within 3 MC errors
    n_big = 1_000_000
    pvalue, counter, support = _gof(params, 2024, n_big)
    assert pvalue > 0.001
    keys = list(support)
    tables = np.array(keys, dtype=float)
    weights = np.array([counter.get(k, 0) for k in keys]) / n_big
    n_p, n_c = tables.shape[1], tables.shape[2]

    emp_mean = np.einsum("k,kia->ia", weights, tables)
    exact_mean = mean_matrix(params)
    for i in range(n_p):
        for a in range(n_c):
            se = math.sqrt(covariance(params, i, a, i, a) / n_big)
            assert abs(emp_mean[i, a] - exact_mean[i, a]) < 3.0 * se

    flat = tables.reshape(len(keys), n_p * n_c)
    mu = emp_mean.ravel()
    emp_cov = np.einsum("k,ki,kj->ij", weights, flat, flat) - np.outer(mu, mu)
    for x in range(n_p * n_c):
        for y in range(x, n_p * n_c):
            exact = covariance(params, x // n_c, x % n_c, y // n_c, y % n_c)
            centred = (flat[:, x] - mu[x]) * (flat[:, y] - mu[y])
            var_hat = float(weights @ (centred - emp_cov[x, y]) ** 2)
            se = math.sqrt(var_hat / n_big)
            assert abs(emp_cov[x, y] - exact) < 3.0 * se

    elapsed = time.time() - started
    assert elapsed < 60.0, f"sampler checks took {elapsed:.1f}s"


def test_09_cli_is_deterministic_and_well_formed(tmp_path):
    report = tmp_path / "report.json"
    assert main(["validate", "--out", str(report)]) == 0

    a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(["woe-curve", "--out", str(a)]) == 0
    assert main(["woe-curve", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "n_col,s_prev,Q,theta,woe"
    assert len(lines) == 1 + 5 * 15 * 51

    freqs = tmp_path / "freqs.csv"
    freqs.write_text("locus,allele,frequency\n" + "".join(
        f"L1,a{k},{q}\n" for k, q in enumerate(PANEL.probs)))
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["ratio-curve", "--freqs", str(freqs), "--out", str(r1)]) == 0
    assert main(["ratio-curve", "--freqs", str(freqs), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    lines = r1.read_text().splitlines()
    assert lines[0] == "class,theta,ratio"
    assert len(lines) == 1 + 5 * 51
