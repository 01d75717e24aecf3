# SPDX-License-Identifier: Apache-2.0
"""Enumeration oracles and the exact sampler."""

from __future__ import annotations

import math
import operator
from collections import Counter
from itertools import accumulate, repeat

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.stats import chisquare

import mdmix.oracle
from mdmix import (AlleleFrequencies, CountTable, DispersionModel,
                   MdmParams, MdmSampler, ParameterError, SizeGuardError,
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


@pytest.mark.parametrize("count", [2 ** 63, 10 ** 20])
def test_oracles_take_a_count_past_int64(count):
    # one category has one table, whatever its count
    params = MdmParams((count,), DispersionModel.from_alpha((2.0,)))
    assert oracle_pmf_sum(params) == 1.0
    assert oracle_moment(CountTable(((1,),)), params) == float(count)


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


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
def test_sampler_refuses_a_seed_that_is_not_a_non_negative_int(seed):
    params = MdmParams((2, 2), DispersionModel.from_alpha((1.0, 2.0, 3.0)))
    with pytest.raises(ParameterError,
                       match=r"^seed: expected an int >= 0, got "):
        MdmSampler(params, seed)


def test_sampler_refuses_urn_weights_that_sum_past_the_largest_float():
    # alpha_total is just below the largest double and the frequencies sum
    # to 1 + 1e-13, within the tolerance, so the weights q_a alpha_total
    # sum past it
    freqs = AlleleFrequencies((0.3, 0.3, 0.4000000000001))
    params = MdmParams((2, 2), theta_to_alpha(freqs, 5.562684646268097e-309))
    assert math.isfinite(params.model.alpha_total)
    with pytest.raises(ParameterError, match=r"^theta = 5\.56268464626809"
                       r"7e-309: the urn weights sum past"):
        MdmSampler(params, 0)


@pytest.mark.parametrize("total", [10 ** 20, mdmix.oracle.MAX_DRAW_TOTAL + 1])
def test_sampler_refuses_a_total_above_its_cap_before_any_draw(total):
    # refused in the constructor, so no generator is built and nothing drawn
    model = theta_to_alpha(AlleleFrequencies((0.5, 0.5)), 0.1)
    with pytest.raises(SizeGuardError, match=rf"^row_sums: the total {total} "
                       rf"is above {mdmix.oracle.MAX_DRAW_TOTAL}"):
        MdmSampler(MdmParams((total,), model), 0)
    MdmSampler(MdmParams((mdmix.oracle.MAX_DRAW_TOTAL,), model), 0)


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


@pytest.mark.parametrize("theta", [0.0, 0.2])
def test_draw_is_the_checked_table_of_its_counts(theta):
    freqs = AlleleFrequencies((0.1, 0.2, 0.3, 0.4))
    params = MdmParams((3, 0, 5, 1), theta_to_alpha(freqs, theta))
    sampler, twin = MdmSampler(params, 5), MdmSampler(params, 5)
    for _ in range(200):
        got, want = sampler.draw(), CountTable(twin.draw_counts())
        assert type(got) is CountTable
        assert (got.counts, got.row_sums, got.col_sums, got.total) == \
            (want.counts, want.row_sums, want.col_sums, want.total)
        assert got == want and hash(got) == hash(want)


def test_enumerated_tables_are_the_checked_tables_of_their_counts():
    for t in enumerate_tables((2, 0, 3), 3):
        want = CountTable(t.counts)
        assert (t.counts, t.row_sums, t.col_sums, t.total) == \
            (want.counts, want.row_sums, want.col_sums, want.total)
        assert t == want and hash(t) == hash(want)


def test_draw_builds_its_table_without_the_module_name(monkeypatch):
    # the table comes from model's own constructor, not the name
    # CountTable in mdmix.oracle, which may be rebound to a wrapper
    def refuse(counts):
        raise AssertionError("oracle.CountTable was called")

    monkeypatch.setattr(mdmix.oracle, "CountTable", refuse)
    params = MdmParams((2, 2), DispersionModel.from_alpha((1.0, 2.0, 3.0)))
    t = MdmSampler(params, 3).draw()
    assert t == CountTable(t.counts)


def _dealt(params, seq):
    # the category sequence dealt into consecutive profile slots
    counts = []
    for i, r in enumerate(params.row_sums):
        start = sum(params.row_sums[:i])
        counts.append(tuple(seq[start:start + r].count(a)
                            for a in range(params.n_categories)))
    return tuple(counts)


def _scan_counts(params, uniforms):
    # theta = 0 by a linear scan: the first category whose running sum of
    # q exceeds u sum(q), and the last one when none does
    q = params.model.freqs.extended_probs
    total = math.fsum(q)
    seq = []
    for u in uniforms:
        pick = u * total
        acc = 0.0
        a = len(q) - 1
        for b, w in enumerate(q):
            acc += w
            if pick < acc:
                a = b
                break
        seq.append(a)
    return _dealt(params, seq)


# 0.5 + 4e-17 rounds back to 0.5, so the running sums repeat 0.5 a hundred
# times, and fsum(q) = 1 + 4e-15 lies above the last running sum 1.0
_ABSORBED = AlleleFrequencies((0.5,) + (4e-17,) * 100 + (0.5,))


def test_theta_zero_draws_match_a_linear_scan():
    params = MdmParams((7, 0, 9000), theta_to_alpha(_ABSORBED, 0.0))
    sampler = MdmSampler(params, 17)
    stream = np.random.Generator(np.random.PCG64(17)).random(3 * 9007)
    for k in range(3):
        uniforms = stream[k * 9007:(k + 1) * 9007].tolist()
        assert sampler.draw_counts() == _scan_counts(params, uniforms)


def test_theta_zero_draws_match_a_linear_scan_at_the_edges():
    # picks on and just below the repeated running sum 0.5, and picks on
    # and past the last running sum 1.0, which fall through to the last
    # category
    params = MdmParams((3, 3), theta_to_alpha(_ABSORBED, 0.0))
    total = math.fsum(_ABSORBED.extended_probs)
    uniforms = [0.0, 0.5 / total, math.nextafter(0.5 / total, 0.0),
                math.nextafter(0.5 / total, 1.0), 1.0 / total,
                math.nextafter(1.0, 0.0)]
    picks = [u * total for u in uniforms]
    assert picks.count(0.5) == 2 and picks[-2] == 1.0 and picks[-1] > 1.0
    sampler = MdmSampler(params, 0)
    sampler._uniforms = lambda n: uniforms[:n]
    assert sampler.draw_counts() == _scan_counts(params, uniforms)


def _urn_counts(params, uniforms):
    # theta > 0 by an urn scan: weights alpha_b plus the draws of b, formed
    # as one sum, over a total of fsum(alpha) plus 1.0 per draw; the first
    # category whose running sum exceeds u times the total, and the last
    # one when none does
    alpha = params.model.alpha
    extra = [0] * len(alpha)
    total = math.fsum(alpha)
    seq = []
    for u in uniforms:
        pick = u * total
        acc = 0.0
        a = len(alpha) - 1
        for b in range(len(alpha)):
            acc += alpha[b] + extra[b]
            if pick < acc:
                a = b
                break
        seq.append(a)
        extra[a] += 1
        total += 1.0
    return _dealt(params, seq)


@pytest.mark.parametrize("theta", [0.01, 0.3, 0.9])
def test_urn_draws_match_one_contiguous_uniform_stream(theta):
    # 1,000 tables of 20 draws read 20,000 uniforms, across the 8,192 and
    # 16,384 boundaries of any fixed-size refill
    freqs = AlleleFrequencies((0.05, 0.1, 0.2, 0.25, 0.4))
    params = MdmParams((7, 0, 13), theta_to_alpha(freqs, theta))
    sampler = MdmSampler(params, 23)
    stream = np.random.Generator(np.random.PCG64(23)).random(20_000)
    for k in range(1_000):
        uniforms = stream[k * 20:(k + 1) * 20].tolist()
        assert sampler.draw_counts() == _urn_counts(params, uniforms)


def test_urn_weights_are_alpha_plus_draws_formed_as_one_sum():
    # at theta = 0.3 the first weight after four draws of category 0 is
    # alpha_0 + 4 as one sum, one ulp below alpha_0 with 1 added four
    # times; the fifth pick lands on that sum, so it passes category 0 by
    # the one sum and stays in it by the running increments
    freqs = AlleleFrequencies((0.05, 0.1, 0.2, 0.25, 0.4))
    params = MdmParams((5,), theta_to_alpha(freqs, 0.3))
    alpha = params.model.alpha
    one_sum = alpha[0] + 4
    added = alpha[0]
    total = math.fsum(alpha)
    for _ in range(4):
        added += 1
        total += 1.0
    u = 0.6499999999999999
    assert u * total == one_sum < added
    uniforms = [0.0] * 4 + [u]
    sampler = MdmSampler(params, 0)
    sampler._uniforms = lambda n: uniforms[:n]
    assert sampler.draw_counts() == ((4, 1, 0, 0, 0),)
    assert _urn_counts(params, uniforms) == ((4, 1, 0, 0, 0),)


def _placed_uniforms(params, specs):
    # a spec is a uniform, or (b, step): the pick on the running sum through
    # category b of the urn as it stands at that trial, as the linear scans
    # form it, moved step ulps of the uniform down or up
    urn = params.model.alpha_total != math.inf
    weights = (params.model.alpha if urn
               else params.model.freqs.extended_probs)
    total = math.fsum(weights)
    uniforms = []
    for spec in specs:
        if isinstance(spec, tuple):
            b, step = spec
            drawn = (map(sum, zip(*_urn_counts(params, uniforms)))
                     if urn and uniforms else repeat(0))
            sums = list(accumulate(map(operator.add, weights, drawn)))
            target = sums[b % len(sums)]
            # the uniform whose pick is the running sum, where one is
            u = target / total
            for v in (math.nextafter(u, -1.0), math.nextafter(u, 2.0)):
                if v * total == target:
                    u = v
            for _ in range(abs(step)):
                u = math.nextafter(u, math.copysign(2.0, step))
            spec = u
        uniforms.append(spec)
        total += 1.0 if urn else 0.0
    return uniforms


_SPECS = st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                   st.tuples(st.integers(0, 60), st.integers(-1, 1)),
                   st.sampled_from([math.nan, 1.0, math.inf, -0.0]))


@st.composite
def _sampler_cases(draw):
    """(params, specs) over 1 to 45 categories or the _ABSORBED panel, row
    sums from 0, and a theta from 0 to 1 - 1e-9."""
    if draw(st.booleans()):
        freqs = _ABSORBED
    else:
        width = draw(st.integers(1, 45))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=width,
                                max_size=width))
        probs = tuple(w / math.fsum(weights) for w in weights)
        if width > 1 and draw(st.booleans()):
            probs = probs[:-1]  # a rest class
        freqs = AlleleFrequencies(probs)
    theta = draw(st.sampled_from((0.0, 1e-12, 0.01, 0.5, 1.0 - 1e-9)))
    rows = draw(st.one_of(st.lists(st.integers(0, 6), min_size=1,
                                   max_size=5),
                          st.lists(st.just(0), min_size=1, max_size=3)))
    specs = draw(st.lists(_SPECS, min_size=sum(rows), max_size=sum(rows)))
    return MdmParams(rows, theta_to_alpha(freqs, theta)), specs


@given(_sampler_cases())
@example(case=(MdmParams((2, 0, 1), theta_to_alpha(
    AlleleFrequencies((1.0,)), 0.5)), [(0, 0), 0.3, math.nan]))
@example(case=(MdmParams((0, 0), theta_to_alpha(_ABSORBED, 0.01)), []))
def test_draws_match_the_linear_scans_on_any_uniforms(case):
    params, specs = case
    uniforms = _placed_uniforms(params, specs)
    want = (_scan_counts if params.model.alpha_total == math.inf
            else _urn_counts)(params, uniforms)
    sampler, twin = MdmSampler(params, 0), MdmSampler(params, 0)
    sampler._uniforms = twin._uniforms = lambda n: uniforms[:n]
    assert sampler.draw_counts() == want
    table, checked = twin.draw(), CountTable(want)
    assert table.counts == want
    for got, expected in ((table.col_sums, checked.col_sums),
                          (table.row_sums, checked.row_sums)):
        assert got == expected
        assert all(type(x) is int for x in got)
    assert table.total == checked.total and type(table.total) is int
