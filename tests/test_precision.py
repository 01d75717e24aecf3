# SPDX-License-Identifier: Apache-2.0
"""Precision over the whole theta range against a 50-digit mpmath oracle.

The oracle below evaluates the textbook Gamma-function formulas in mpmath
from the same double inputs; it shares no code with mdmix.  As theta -> 0+
the Dirichlet parameters alpha = q (1 - theta) / theta grow without bound,
and an lgamma(n + alpha) - lgamma(alpha) difference would lose every digit.
"""

from __future__ import annotations

import math
import random
import re

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from mdmix import (AlleleFrequencies, CountTable, GenotypePair, MdmParams,
                   ParameterError, factorial_moment, genotype_from_alleles,
                   mdm_chain_log_pmf, mdm_log_pmf, pair_ratio,
                   theta_to_alpha, woe_margin_grid, woe_step)
from mdmix.cli import main
from mdmix.logspace import log_scaled_rising

mpmath.mp.dps = 50

NAMED = (0.025, 0.05, 0.1, 0.2, 0.4)
PANEL = AlleleFrequencies(NAMED)

THETAS = (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 0.99, 1.0 - 1e-6)

TABLES = (
    ((2, 0, 0, 0, 0, 0),),
    ((0, 1, 0, 3, 0, 2),),
    ((2, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)),
    ((1, 1, 0, 0, 0, 0), (0, 1, 0, 0, 1, 0)),
    ((1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (2, 0, 0, 3, 1, 4)),
    ((0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 1, 1)),
)

LOG_PMF_ABS_TOL = 1e-10
WOE_REL_TOL = 1e-12


def _mp_panel():
    q = [mpmath.mpf(p) for p in NAMED]
    return q + [1 - mpmath.fsum(q)]


def _mp_log_rising(x, n):
    return mpmath.loggamma(x + n) - mpmath.loggamma(x)


def oracle_log_pmf(counts, theta):
    """Product of row multinomial coefficients times the Dirichlet-
    multinomial mass of the pooled column counts."""
    q = _mp_panel()
    theta = mpmath.mpf(theta)
    cols = [sum(col) for col in zip(*counts)]
    out = mpmath.mpf(0)
    for row in counts:
        out += mpmath.log(mpmath.factorial(sum(row)))
        out -= mpmath.fsum(mpmath.log(mpmath.factorial(x)) for x in row)
    if theta == 0:
        return out + mpmath.fsum(c * mpmath.log(p) for c, p in zip(cols, q))
    alpha = [p * (1 - theta) / theta for p in q]
    out += mpmath.fsum(_mp_log_rising(a, c) for a, c in zip(alpha, cols))
    return out - _mp_log_rising(mpmath.fsum(alpha), sum(cols))


def oracle_woe(n, rem, q_scaled, theta, tail_mass):
    """Q^n (1-Q)^(rem-n) over the beta-binomial mass of n in rem draws."""
    q_scaled, theta = mpmath.mpf(q_scaled), mpmath.mpf(theta)
    a_pool = mpmath.mpf(tail_mass) * (1 - theta) / theta
    a_step, a_tail = q_scaled * a_pool, (1 - q_scaled) * a_pool
    log_bb = (_mp_log_rising(a_step, n) + _mp_log_rising(a_tail, rem - n)
              - _mp_log_rising(a_pool, rem))
    return mpmath.exp(n * mpmath.log(q_scaled)
                      + (rem - n) * mpmath.log(1 - q_scaled) - log_bb)


def _params(counts, theta):
    return MdmParams(tuple(sum(row) for row in counts),
                     theta_to_alpha(PANEL, theta))


@pytest.mark.parametrize("counts", TABLES,
                         ids=lambda t: f"{len(t)}rows-{sum(map(sum, t))}")
@pytest.mark.parametrize("theta", THETAS)
def test_log_pmf_matches_mpmath_at_every_theta(counts, theta):
    table = CountTable(counts)
    params = _params(counts, theta)
    want = oracle_log_pmf(counts, theta)
    for path in (mdm_log_pmf, mdm_chain_log_pmf):
        got = path(table, params)
        assert abs(got - want) <= LOG_PMF_ABS_TOL, (path.__name__, got,
                                                     float(want))


@pytest.mark.parametrize("x", [1e-6, 0.5, 3.25, 100.0, 255.744, 256.0,
                               256.256, 1e3, 1e8, 1e15, math.inf])
def test_log_rising_matches_mpmath_on_both_sides_of_the_switch(x):
    # for n > 8 below x = 256 L is an lgamma difference, whose error scales
    # with the size of the lgamma values; elsewhere it is accurate relative
    # to L itself
    for n in (0, 1, 2, 5, 8, 9, 40, 200, 10 ** 4, 10 ** 6):
        got = log_scaled_rising(x, n)
        if n <= 1 or x == math.inf:
            assert got == 0.0, (x, n)
            continue
        mx = mpmath.mpf(x)
        want = _mp_log_rising(mx, n) - n * mpmath.log(mx)
        if x < 256.0 and n > 8:
            size = (abs(mpmath.loggamma(mx + n)) + abs(mpmath.loggamma(mx))
                    + n * abs(mpmath.log(mx)))
        else:
            size = abs(want)
        assert abs(got - want) <= 1e-14 * size, (x, n, got, float(want))


@given(theta=st.one_of(
           st.just(0.0),
           st.floats(math.log(1e-15), math.log1p(-1e-9)).map(math.exp)),
       rows=st.lists(
           st.integers(0, 10 ** 4).flatmap(lambda total: st.lists(
               st.integers(0, total), min_size=5, max_size=5).map(
               lambda cuts: (total, sorted(cuts)))),
           min_size=1, max_size=3))
def test_log_pmf_matches_mpmath_on_random_tables(theta, rows):
    # each row of up to 10^4 draws is cut into the six panel categories
    counts = tuple(tuple(b - a for a, b in zip([0] + cuts, cuts + [total]))
                   for total, cuts in rows)
    table = CountTable(counts)
    params = _params(counts, theta)
    want = oracle_log_pmf(counts, theta)
    for path in (mdm_log_pmf, mdm_chain_log_pmf):
        got = path(table, params)
        assert abs(got - want) <= LOG_PMF_ABS_TOL, (path.__name__, got,
                                                     float(want))


# the gap between the chain and the direct pmf as a share of log N!, N the
# table's total: the largest terms both paths sum are of that size, while
# for theta > 0 the log pmf itself is only O(log N), so no bound relative
# to it holds as N grows.  20,000 random tables with totals from 10**4 to
# 10**300 and theta from 0 to 1 - 1e-9 gave at most 2.9e-16
CHAIN_GAP_SHARE = 1e-15


@settings(max_examples=300)
@given(theta=st.sampled_from((0.0, *THETAS, 0.3)),
       exponent=st.integers(4, 300),
       weights=st.lists(st.lists(st.integers(0, 2 ** 20), min_size=6,
                                 max_size=6).filter(any),
                        min_size=1, max_size=3))
@example(theta=0.3, exponent=300, weights=[[1, 0, 0, 0, 0, 1]])
def test_chain_and_direct_pmf_agree_to_a_share_of_log_total_factorial(
        theta, exponent, weights):
    # each row of about 10**exponent / rows draws is split by its weights
    n = 10 ** exponent // len(weights)
    counts = tuple(tuple(n * w // sum(ws) for w in ws) for ws in weights)
    table = CountTable(counts)
    params = _params(counts, theta)
    gap = abs(mdm_log_pmf(table, params) - mdm_chain_log_pmf(table, params))
    assert gap <= CHAIN_GAP_SHARE * math.lgamma(table.total + 1), (
        gap, table.total)


# the error of either pmf path against the oracle at a large total N, as a
# share of log N!: 600 random tables at each N in 10**6, 10**9, 10**12 and
# theta in 1e-6, 0.3 gave at most 3.3e-16 (absolute 3.8e-9, 6.6e-6 and
# 6.8e-3 for mdm_log_pmf, 3.8e-9, 6.8e-6 and 7.7e-3 for the chain)
LARGE_TOTAL_SHARE = 1e-15


@given(theta=st.sampled_from((1e-6, 0.3)),
       exponent=st.sampled_from((6, 9, 12)),
       cuts=st.lists(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
                     min_size=1, max_size=3))
def test_log_pmf_at_large_totals_is_within_a_share_of_log_total_factorial(
        theta, exponent, cuts):
    # 10**exponent draws split evenly over the rows, each row cut into the
    # six panel categories at the given fractions
    n = 10 ** exponent // len(cuts)
    counts = []
    for row in cuts:
        edges = [0, *sorted(int(n * c) for c in row), n]
        counts.append(tuple(b - a for a, b in zip(edges, edges[1:])))
    table = CountTable(counts)
    params = _params(counts, theta)
    want = oracle_log_pmf(counts, theta)
    bound = LARGE_TOTAL_SHARE * math.lgamma(table.total + 1)
    for path in (mdm_log_pmf, mdm_chain_log_pmf):
        got = path(table, params)
        assert abs(got - want) <= bound, (path.__name__, got, float(want))


@pytest.mark.parametrize("theta", [0.0, 1e-4, 0.01, 0.3])
def test_factorial_moment_where_the_products_overflow(theta):
    # E n_1^(50) n_2^(50) on 100 draws: 100! (a_1)_50 (a_2)_50 / (a.)_100,
    # whose rising products alone overflow a double for small theta
    params = MdmParams((100,), theta_to_alpha(AlleleFrequencies((0.5, 0.5)),
                                              theta))
    got = factorial_moment(CountTable(((50, 50),)), params)
    if theta == 0:
        want = mpmath.factorial(100) * mpmath.mpf(0.5) ** 100
    else:
        a = mpmath.mpf(0.5) * (1 - mpmath.mpf(theta)) / mpmath.mpf(theta)
        want = (mpmath.factorial(100) * mpmath.rf(a, 50) ** 2
                / mpmath.rf(2 * a, 100))
    assert abs(got / want - 1) <= 1e-12, (got, float(want))
    if theta == 1e-4:
        assert got == pytest.approx(7.3e127, rel=1e-2)


@pytest.mark.parametrize("theta", [0.0, 1e-4, 0.01, 0.3])
def test_factorial_moment_beyond_the_double_range_is_an_error(theta):
    # about 3.3e620 at theta = 0
    params = MdmParams((400,), theta_to_alpha(AlleleFrequencies((0.5, 0.5)),
                                              theta))
    with pytest.raises(ParameterError, match=re.escape("((150, 150),)")):
        factorial_moment(CountTable(((150, 150),)), params)


@pytest.mark.parametrize("tail_mass", [1.0, 0.3])
@pytest.mark.parametrize("theta", THETAS)
def test_woe_step_matches_mpmath_at_every_theta(theta, tail_mass):
    states = [s for c in (1, 2, 4) for s, _ in woe_margin_grid(c)]
    for q_scaled in (1e-3, 0.025, 0.2, 0.5, 0.9, 0.999):
        for state in states:
            got = woe_step(state, q_scaled, theta, tail_mass=tail_mass)
            want = oracle_woe(state.n_col, state.remaining, q_scaled, theta,
                              tail_mass)
            assert abs(got / want - 1) <= WOE_REL_TOL, (state, q_scaled, got,
                                                        float(want))


def nrc_identical_pair_ratio(p_a, p_b, theta):
    """pair_ratio of the pair (g, g) from published closed forms; g = ab,
    or the homozygote aa when p_b is None.

    The ratio is P0(g)^2 / (P(g) CMP(g)): P0(g) is the genotype's
    probability at theta = 0, P(g) its probability under theta,
    2 p_a p_b (1 - theta) or p (theta + (1 - theta) p), and CMP(g) the
    conditional match probability of NRC II (1996) eq. 4.10.
    """
    theta = mpmath.mpf(theta)
    if p_b is None:
        p = mpmath.mpf(p_a)
        at_zero = p * p
        single = p * (theta + (1 - theta) * p)
        match = (2 * theta + (1 - theta) * p) * (3 * theta + (1 - theta) * p)
    else:
        p_a, p_b = mpmath.mpf(p_a), mpmath.mpf(p_b)
        at_zero = 2 * p_a * p_b
        single = 2 * p_a * p_b * (1 - theta)
        match = 2 * (theta + (1 - theta) * p_a) * (theta + (1 - theta) * p_b)
    match /= (1 + theta) * (1 + 2 * theta)
    return at_zero ** 2 / (single * match)


@pytest.mark.parametrize("theta", [1e-6 * (0.9 / 1e-6) ** (k / 12)
                                   for k in range(13)])
def test_pair_ratio_of_identical_genotypes_matches_nrc_ii(theta):
    rnd = random.Random(f"nrc-ii:{theta}")
    for _ in range(20):
        weights = [rnd.uniform(1e-3, 1.0) for _ in range(rnd.randint(2, 30))]
        freqs = AlleleFrequencies(tuple(w / math.fsum(weights) * 0.9
                                        for w in weights))
        width = freqs.n_categories
        for a, b in ((rnd.randrange(width), rnd.randrange(width)),
                     (rnd.randrange(width),) * 2):
            g = genotype_from_alleles((a, b), width)
            got = pair_ratio(GenotypePair(g, g), freqs, theta)
            q = freqs.extended_probs
            want = nrc_identical_pair_ratio(q[a], None if a == b else q[b],
                                            theta)
            assert abs(got / want - 1) <= WOE_REL_TOL, (a, b, got,
                                                        float(want))


@pytest.mark.parametrize("counts", TABLES,
                         ids=lambda t: f"{len(t)}rows-{sum(map(sum, t))}")
def test_log_pmf_converges_to_the_multinomial_as_theta_vanishes(counts):
    # log rising(alpha, n) = n log(alpha) + n (n-1) / (2 alpha) + O(alpha^-2),
    # so the gap to theta = 0 is at most theta * sum_a n_a^2 / q_a
    table = CountTable(counts)
    at_zero = mdm_log_pmf(table, _params(counts, 0.0))
    assert at_zero == pytest.approx(float(oracle_log_pmf(counts, 0)),
                                    abs=1e-13)
    slope = sum(c * c / q
                for c, q in zip(table.col_sums, PANEL.extended_probs))
    for theta in (1e-6, 1e-9, 1e-12, 1e-15):
        params = _params(counts, theta)
        for path in (mdm_log_pmf, mdm_chain_log_pmf):
            gap = abs(path(table, params) - at_zero)
            assert gap <= theta * slope + 1e-13, (path.__name__, theta, gap)


def test_woe_step_converges_to_one_as_theta_vanishes():
    # to first order in 1 / a_pool the step ratio moves from 1 by at most
    # rem^2 / (2 Q (1-Q) a_pool); the bound below doubles that
    for state, _ in woe_margin_grid(4):
        for q_scaled in (1e-3, 0.2, 0.5, 0.999):
            slope = state.remaining ** 2 / (q_scaled * (1.0 - q_scaled))
            for theta in (1e-6, 1e-9, 1e-12, 1e-15, 1e-300, 1e-320):
                gap = abs(woe_step(state, q_scaled, theta) - 1.0)
                assert gap <= theta * slope + 1e-14, (state, q_scaled, theta)


def test_woe_curve_at_the_edges_of_q_and_theta(tmp_path, capsys):
    out = tmp_path / "woe.csv"
    code = main(["woe-curve", "--q-values", "5e-324",
                 "--theta-grid", "0.9999999999999999", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    values = [line.split(",")[-1]
              for line in out.read_text().splitlines()[1:]]
    assert len(values) == 15
    assert not any(math.isnan(float(v)) for v in values)


def test_woe_curve_tail_mass_that_underflows_is_a_usage_error(capsys):
    code = main(["woe-curve", "--tail-mass", "5e-324",
                 "--theta-grid", "0.9999999999999999"])
    assert code == 2
    assert capsys.readouterr().err == (
        "mdmix woe-curve: error: tail_mass = 5e-324 underflows at "
        "theta = 0.9999999999999999\n")
