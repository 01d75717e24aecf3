# SPDX-License-Identifier: Apache-2.0
"""Enumeration oracles and the exact sampler."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from scipy.stats import chisquare

from mdmix import (AlleleFrequencies, CountTable, DispersionModel,
                   MdmParams, MdmSampler, SizeGuardError,
                   TableError, mdm_log_pmf, theta_to_alpha)
from mdmix.oracle import (count_tables, enumerate_tables,
                          enumerate_tables_with_margins, oracle_moment,
                          oracle_pmf_sum)


# ---------------------------------------------------------------------------
# enumeration


def test_count_tables_products_of_compositions():
    assert count_tables((2,), 2) == 3
    assert count_tables((2, 2), 2) == 9
    assert count_tables((2, 2, 2), 3) == 216


def test_enumeration_order_is_first_cell_descending():
    got = [t.counts for t in enumerate_tables((2,), 2)]
    assert got == [((2, 0),), ((1, 1),), ((0, 2),)]


def test_enumeration_is_exhaustive_and_duplicate_free():
    tables = [t.counts for t in enumerate_tables((2, 1), 3)]
    assert len(tables) == count_tables((2, 1), 3)
    assert len(set(tables)) == len(tables)
    assert all(CountTable(c).row_sums == (2, 1) for c in tables)


def test_enumeration_size_guard():
    # C(29, 9)^3 is around 1e21 tables
    with pytest.raises(SizeGuardError):
        next(enumerate_tables((20, 20, 20), 10))


def test_margin_fixed_enumeration():
    got = [t.counts for t in enumerate_tables_with_margins((2, 2), (2, 2))]
    assert got == [
        ((2, 0), (0, 2)),
        ((1, 1), (1, 1)),
        ((0, 2), (2, 0)),
    ]


def test_margin_fixed_enumeration_agrees_with_filtering():
    rows, cols = (2, 2), (1, 3)
    direct = {t.counts for t in enumerate_tables_with_margins(rows, cols)}
    filtered = {t.counts for t in enumerate_tables(rows, 2)
                if t.col_sums == cols}
    assert direct == filtered


def test_margin_totals_must_agree():
    with pytest.raises(TableError):
        next(enumerate_tables_with_margins((2, 2), (3, 2)))


# ---------------------------------------------------------------------------
# oracles


def test_oracle_pmf_sums_to_one():
    params = MdmParams((2, 2), DispersionModel.from_alpha((0.5, 1.0, 2.0)))
    assert oracle_pmf_sum(params) == pytest.approx(1.0, abs=1e-12)


def test_oracle_moment_means():
    params = MdmParams((2, 2), DispersionModel.from_alpha((1.0, 3.0)))
    # E n_11 = 2 * 0.25
    order = CountTable(((1, 0), (0, 0)))
    assert oracle_moment(order, params) == pytest.approx(0.5, abs=1e-13)


# ---------------------------------------------------------------------------
# sampler


def test_sampler_is_deterministic_per_seed():
    params = MdmParams((2, 2), DispersionModel.from_alpha((1.0, 2.0, 3.0)))
    s1 = MdmSampler(params, 123)
    s2 = MdmSampler(params, 123)
    assert all(s1.draw_counts() == s2.draw_counts() for _ in range(300))


def test_sampler_seeds_differ():
    params = MdmParams((2, 2), DispersionModel.from_alpha((1.0, 2.0, 3.0)))
    a = [MdmSampler(params, 1).draw_counts() for _ in range(20)]
    b = [MdmSampler(params, 2).draw_counts() for _ in range(20)]
    assert a != b


def _gof_pvalue(params, seed, n_draws):
    support = {t.counts: math.exp(mdm_log_pmf(t, params))
               for t in enumerate_tables(params.row_sums,
                                         params.n_categories)}
    sampler = MdmSampler(params, seed=seed)
    seen = Counter(sampler.draw_counts() for _ in range(n_draws))
    observed = [seen.get(key, 0) for key in support]
    expected = [p * n_draws for p in support.values()]
    assert min(expected) > 5.0  # keep the chi-square approximation honest
    assert sum(seen.values()) == n_draws
    assert set(seen) <= set(support)
    _, pvalue = chisquare(observed, expected)
    return pvalue


def test_sampler_distribution_dispersed():
    params = MdmParams((2, 2), theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)),
                                              0.1))
    assert _gof_pvalue(params, seed=7, n_draws=100_000) > 0.05


def test_sampler_distribution_multinomial_limit():
    params = MdmParams((2, 2), theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)),
                                              0.0))
    assert _gof_pvalue(params, seed=11, n_draws=100_000) > 0.05


def test_sampler_handles_unequal_row_sums():
    params = MdmParams((1, 3), DispersionModel.from_alpha((2.0, 2.0)))
    t = MdmSampler(params, 99).draw()
    assert t.row_sums == (1, 3)
