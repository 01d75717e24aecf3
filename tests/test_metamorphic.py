# SPDX-License-Identifier: Apache-2.0
"""Metamorphic identities between the parameter transforms and the pmf.

None of these needs an oracle, and all hold at any table size, so they
reach tables far beyond enumeration: up to 6 rows, 30 columns and 3,000
counts per cell, with theta 0 or log-uniform on [1e-15, 1 - 1e-9].
"""

from __future__ import annotations

import math

from hypothesis import example, given, strategies as st

from mdmix import (AlleleFrequencies, CountTable, MdmParams, SubsetSpec,
                   conditional_over_alleles, conditional_over_profiles,
                   covariance_matrix, factorial_moment,
                   marginal_over_alleles, marginal_over_profiles,
                   mean_matrix, mdm_log_pmf, theta_to_alpha)

REL_TOL = 1e-12
THETA_MAX = 1.0 - 1e-9

THETAS = st.one_of(
    st.just(0.0),
    st.floats(math.log(1e-15), math.log(THETA_MAX)).map(
        lambda x: min(math.exp(x), THETA_MAX)))


@st.composite
def _cases(draw, min_rows=1):
    """(table, params) over 2 to 30 categories, the last one a rest class
    half the time, at a theta from THETAS."""
    width = draw(st.integers(2, 30))
    n_rows = draw(st.integers(min_rows, 6))
    cell = st.one_of(st.just(0), st.integers(0, 3000))
    counts = tuple(tuple(draw(st.lists(cell, min_size=width,
                                       max_size=width)))
                   for _ in range(n_rows))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=width,
                            max_size=width))
    total = math.fsum(weights)
    probs = tuple(w / total for w in weights)
    if draw(st.booleans()):
        probs = probs[:-1]
    table = CountTable(counts)
    model = theta_to_alpha(AlleleFrequencies(probs), draw(THETAS))
    return table, MdmParams(table.row_sums, model)


def _close(value, expected, counts=0):
    """value within REL_TOL of expected, relative to |expected| plus the
    count of draws the log pmf covers: parameters that differ in their last
    bits move each draw's term by about an ulp, however near 0 the sum of
    the terms is."""
    assert abs(value - expected) <= REL_TOL * (abs(expected) + counts), (
        value, expected)


@given(_cases(), st.data())
def test_collapsing_columns_keeps_theta_and_alpha_total_bit_for_bit(
        case, data):
    _, params = case
    width = params.n_categories
    keep = data.draw(st.lists(st.integers(0, width - 1), min_size=1,
                              max_size=width - 1, unique=True))
    model = marginal_over_alleles(params, SubsetSpec(sorted(keep))).model
    assert model.theta.hex() == params.model.theta.hex()
    assert model.alpha_total.hex() == params.model.alpha_total.hex()


@st.composite
def _collapse_cases(draw):
    """A case of _cases with two rows or more, the columns kept and the
    rows conditioned on."""
    table, params = draw(_cases(min_rows=2))
    width, n_rows = params.n_categories, table.n_profiles
    keep = draw(st.lists(st.integers(0, width - 1), min_size=1,
                         max_size=width - 1, unique=True))
    seen = draw(st.lists(st.integers(0, n_rows - 1), min_size=1,
                         max_size=n_rows - 1, unique=True))
    return table, params, keep, seen


def _collapse_case(counts, probs, theta, keep, seen):
    table = CountTable(counts)
    model = theta_to_alpha(AlleleFrequencies(probs), theta)
    return table, MdmParams(table.row_sums, model), keep, seen


# found by the wide profile at seeds 3 and 2: the rest table is one draw,
# log pmf about -1e-4, and the two sides differ by 1.1e-16 and 2.2e-16
# (1.3e-12 and 1.1e-12 relative).  The collapsed category's frequency, near
# 1, differs in its last bit between the two paths, and its log keeps that
# absolute error.
@given(_collapse_cases())
@example(_collapse_case(((0, 0, 0, 0, 680), (0, 0, 0, 0, 1)),
                        (0.27586206896551724, 0.13793103448275862,
                         0.034482758620689655, 0.27586206896551724,
                         0.27586206896551724),
                        0.36787944117144233, [2], [0]))
@example(_collapse_case(((0,) * 28 + (12, 273),) + ((0,) * 30,) * 3
                        + ((0,) * 29 + (1,),),
                        (0.03333333333333333,) * 30,
                        0.36787944117144233, [0], [0]))
def test_collapsing_columns_commutes_with_conditioning_on_rows(case):
    table, params, keep, seen = case
    width, n_rows = params.n_categories, table.n_profiles
    keep, seen = SubsetSpec(sorted(keep)), SubsetSpec(sorted(seen))
    dropped = keep.complement(width)

    def collapsed(rows):
        return CountTable(tuple(
            tuple(table.counts[i][a] for a in keep.indices)
            + (sum(table.counts[i][a] for a in dropped),) for i in rows))

    observed = collapsed(seen.indices)
    rest = collapsed(seen.complement(n_rows))
    first_conditioned = marginal_over_alleles(conditional_over_profiles(
        params, CountTable(table.counts[i] for i in seen.indices), seen),
        keep)
    first_collapsed = conditional_over_profiles(
        marginal_over_alleles(params, keep), observed, seen)
    _close(mdm_log_pmf(rest, first_conditioned),
           mdm_log_pmf(rest, first_collapsed), rest.total)


@given(_cases(min_rows=2), st.data())
def test_conditioning_on_rows_one_at_a_time_matches_all_at_once(case, data):
    table, params = case
    n_seen = data.draw(st.integers(1, table.n_profiles - 1))
    seen, rest = table.counts[:n_seen], CountTable(table.counts[n_seen:])
    at_once = conditional_over_profiles(params, CountTable(seen),
                                        SubsetSpec(range(n_seen)))
    one_at_a_time = params
    for row in seen:
        one_at_a_time = conditional_over_profiles(
            one_at_a_time, CountTable((row,)), SubsetSpec((0,)))
    _close(mdm_log_pmf(rest, one_at_a_time), mdm_log_pmf(rest, at_once))


@given(_cases(min_rows=2))
def test_row_chain_rule(case):
    # log P(n) = log P(row 1) + log P(rows 2.. | row 1); both terms are
    # log probabilities, so their sum does not cancel
    table, params = case
    first = CountTable(table.counts[:1])
    rest = CountTable(table.counts[1:])
    head = mdm_log_pmf(first, marginal_over_profiles(params, SubsetSpec((0,))))
    tail = mdm_log_pmf(rest, conditional_over_profiles(params, first,
                                                       SubsetSpec((0,))))
    _close(math.fsum((head, tail)), mdm_log_pmf(table, params))


@st.composite
def _column_cases(draw):
    """A case of _cases and the columns observed, a proper subset."""
    table, params = draw(_cases())
    width = params.n_categories
    seen = draw(st.lists(st.integers(0, width - 1), min_size=1,
                         max_size=width - 1, unique=True))
    return table, params, seen


# found by a random search over tables whose log pmf is near 0: every draw
# lands in a category of q near 1, the log pmf is -6.0e-5, and the sides
# differ by 1.5e-14 (2.4e-10 relative, 3.0e-16 of |log pmf| plus the 49
# unobserved draws)
@given(_column_cases())
@example((CountTable(((0, 0, 17), (0, 0, 20), (0, 0, 12))),
          MdmParams((17, 20, 12), theta_to_alpha(AlleleFrequencies(
              (1.0135997298067297e-06, 5.771128324506855e-06,
               0.9999932152719457)), 0.25914074714387114)),
          [1]))
def test_column_chain_rule(case):
    # log P(n) = log P(n with the unobserved columns collapsed into one)
    # + log P(the unobserved columns | the observed ones).  The collapsed
    # and the conditioned q are rounded on their own, so each unobserved
    # draw can move its term by about an ulp, however near 0 the sum is
    table, params, seen = case
    seen = SubsetSpec(sorted(seen))
    unseen = seen.complement(params.n_categories)

    def columns(subset):
        return CountTable(tuple(row[a] for a in subset)
                          for row in table.counts)

    observed, rest = columns(seen.indices), columns(unseen)
    collapsed = CountTable(
        obs + (n - sum(obs),)
        for obs, n in zip(observed.counts, table.row_sums))
    head = mdm_log_pmf(collapsed, marginal_over_alleles(params, seen))
    tail = mdm_log_pmf(rest, conditional_over_alleles(params, observed, seen))
    _close(math.fsum((head, tail)), mdm_log_pmf(table, params), rest.total)


MOMENT_TOL = 1e-12


@given(st.integers(2, 6), st.lists(st.one_of(
    st.integers(0, 3), st.integers(0, 10 ** 15)), min_size=1, max_size=3),
    st.data())
def test_means_and_covariances_are_the_factorial_moments_of_order_1_and_2(
        width, rows, data):
    # E n_ia = moment of order 1 at (i, a); E n_ia n_jb - [same cell] E n_ia
    # = moment of order 2 there, one unit at each of two cells or 2 at one.
    # The bound scales with the terms, not the result: at theta near 1 the
    # sum cov + m m - m cancels to far below them
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=width,
                                 max_size=width))
    total = math.fsum(weights)
    model = theta_to_alpha(
        AlleleFrequencies(tuple(w / total for w in weights)),
        data.draw(THETAS))
    params = MdmParams(rows, model)
    mean, cov = mean_matrix(params), covariance_matrix(params)
    cells = [(i, a) for i in range(len(rows)) for a in range(width)]

    def moment(*units):
        order = [[0] * width for _ in rows]
        for i, a in units:
            order[i][a] += 1
        return factorial_moment(CountTable(order), params)

    for x, (i, a) in enumerate(cells):
        m_ia = mean[i, a]
        assert abs(moment((i, a)) - m_ia) <= MOMENT_TOL * m_ia
        for y, (j, b) in enumerate(cells[x:], x):
            product = m_ia * mean[j, b]
            want = cov[x, y] + product - (m_ia if x == y else 0.0)
            scale = abs(cov[x, y]) + product + m_ia
            assert abs(moment((i, a), (j, b)) - want) <= MOMENT_TOL * scale, (
                (i, a), (j, b), moment((i, a), (j, b)), want)
