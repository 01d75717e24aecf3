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
                   MdmParams, MdmSampler, SubsetSpec, covariance_matrix,
                   factorial_moment, mdm_log_pmf, mean_matrix, pair_ratio,
                   pair_ratio_curves, pair_ratio_via_pmfs,
                   pair_ratio_via_steps, theta_to_alpha, woe_margin_grid,
                   woe_step)
from mdmix.cli import main
from mdmix.evidence import MarginState, enumerate_genotype_pairs
from mdmix.oracle import enumerate_tables
from mdmix.validation import (suite_chain_equivalence, suite_hypergeometric,
                              suite_marginal_conditional, suite_moments,
                              suite_normalization)

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
    result = suite_normalization(parameter_grid())
    elapsed = time.time() - started
    assert result.n_checks == 19 * 3 * 6
    assert result.passed, f"worst normalization gap {result.max_error}"
    assert elapsed < 10.0, f"normalization sweep took {elapsed:.1f}s"


def test_02_chain_factorization_matches_joint_pmf():
    result = suite_chain_equivalence(parameter_grid())
    # one check per table, over the supports of all 342 parameter sets
    assert result.n_checks == 136_620
    assert result.passed, f"worst chain-joint gap {result.max_error}"


def test_03_marginals_and_conditionals_match_enumeration():
    freqs = AlleleFrequencies((0.2, 0.3, 0.5))
    narrow = [DispersionModel.from_alpha((0.5, 1.0, 2.0)),
              theta_to_alpha(freqs, 0.1), theta_to_alpha(freqs, 0.0)]
    # wider shapes: multi-column allele sets and a non-contiguous profile set
    wide = [DispersionModel.from_alpha((0.5, 1.0, 2.0, 4.0)),
            theta_to_alpha(AlleleFrequencies((0.1, 0.2, 0.3, 0.4)), 0.0)]
    cases = [(MdmParams((2, 2), m), SubsetSpec((0,)), SubsetSpec((2,)),
              SubsetSpec((0,))) for m in narrow]
    cases += [(MdmParams((2, 1, 2), m), SubsetSpec((0, 2)),
               SubsetSpec((1, 3)), SubsetSpec((0, 2))) for m in wide]
    result = suite_marginal_conditional(cases)
    # four checks on each of 36 tables per narrow case, 400 per wide case
    assert result.n_checks == 4 * (3 * 36 + 2 * 400)
    assert result.passed, f"worst marginal/conditional gap {result.max_error}"


def test_04_margin_conditional_is_hypergeometric():
    margin_sets = [((2, 2), (2, 2)), ((2, 2), (1, 3)), ((2, 1, 2), (2, 2, 1))]
    alpha_sets = {2: [(1.0, 1.0), (0.3, 2.2), (5.0, 0.7)],
                  3: [(1.0, 1.0, 1.0), (0.3, 2.2, 1.4), (5.0, 0.7, 2.0)]}
    result = suite_hypergeometric([(rows, cols, alpha_sets[len(cols)])
                                   for rows, cols in margin_sets])
    # per margin set its normalization and 3 alphas on each table, + spot
    assert result.n_checks == (1 + 3 * 3) + (1 + 3 * 2) + (1 + 3 * 11) + 1
    assert result.passed, f"worst hypergeometric gap {result.max_error}"


def all_orders(n_profiles, n_categories, max_total):
    cells = n_profiles * n_categories
    for values in itertools.product(range(max_total + 1), repeat=cells):
        if 0 < sum(values) <= max_total:
            yield CountTable(tuple(
                tuple(values[i * n_categories:(i + 1) * n_categories])
                for i in range(n_profiles)))


def test_05_moments_match_enumeration():
    models = [DispersionModel.from_alpha((0.5, 1.0, 2.0)),
              theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)), 0.0)]
    result = suite_moments([(MdmParams((2, 2), m), all_orders(2, 3, 4))
                            for m in models])
    # C(10, 6) - 1 orders of total 1..4 over 6 cells, + 36 covariances
    assert result.n_checks == 2 * (209 + 36)
    assert result.passed, f"worst moment relative error {result.max_error}"

    # covariances against moment identities, to 1e-12 absolute
    result = suite_moments([(MdmParams((2, 3), m), ()) for m in models])
    assert result.n_checks == 2 * 36
    assert result.max_error < 1e-12, f"worst covariance gap {result.max_error}"

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
    assert factorial_moment(CountTable(((1, 0), (0, 0))), empty) == 0.0
    assert mean_matrix(empty)[0, 0] == 0.0

    # spot values: q = 0.1, theta = 0.03, two draws per profile
    spot = MdmParams((2, 2),
                     theta_to_alpha(AlleleFrequencies((0.1, 0.4, 0.5)), 0.03))
    cov = covariance_matrix(spot)
    assert cov[0, 0] == pytest.approx(0.1854, abs=1e-12)
    assert cov[0, 1 * 3 + 0] == pytest.approx(0.0108, abs=1e-12)


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
    exact_cov = covariance_matrix(params)
    for i in range(n_p):
        for a in range(n_c):
            se = math.sqrt(exact_cov[i * n_c + a, i * n_c + a] / n_big)
            assert abs(emp_mean[i, a] - exact_mean[i, a]) < 3.0 * se

    flat = tables.reshape(len(keys), n_p * n_c)
    mu = emp_mean.ravel()
    emp_cov = np.einsum("k,ki,kj->ij", weights, flat, flat) - np.outer(mu, mu)
    for x in range(n_p * n_c):
        for y in range(x, n_p * n_c):
            exact = exact_cov[x, y]
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
