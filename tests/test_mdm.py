# SPDX-License-Identifier: Apache-2.0
"""Joint tables over shared Dirichlet draws: pmf, chain, marginals."""

from __future__ import annotations

import collections
import itertools
import math
import sys
import threading
from fractions import Fraction
from math import lgamma

import pytest
from hypothesis import given, strategies as st

from mdmix import (AlleleFrequencies, CountTable, DispersionModel,
                   MdmParams, ParameterError, SubsetSpec, TableError,
                   conditional_over_alleles, conditional_over_profiles,
                   hypergeometric_log_pmf, marginal_over_alleles,
                   marginal_over_profiles, mdm_chain_log_pmf, mdm_log_pmf,
                   theta_to_alpha)
from mdmix.evidence import (GenotypePair, MarginState, genotype_from_alleles,
                            pair_ratio, woe_step)
from mdmix.logspace import (_MEMO_SIZE, _Memo, log_binomial, log_factorial,
                            log_scaled_rising)
from mdmix.mdm import _dirichlet_terms, _log_step
from mdmix.model import _chain_steps
from mdmix.moments import factorial_moment
from mdmix.oracle import (MdmSampler, enumerate_tables,
                          enumerate_tables_with_margins,
                          oracle_marginal_over_alleles,
                          oracle_marginal_over_profiles)


def flat(alpha=1.0, width=2):
    return DispersionModel.from_alpha((alpha,) * width)


# ---------------------------------------------------------------------------
# joint pmf


def test_mdm_pmf_two_flat_profiles():
    # two profiles of two draws each, alpha = (1, 1): the nine tables with
    # these row sums carry mass 2/15 (split columns) or 1/5 (both doubled)
    params = MdmParams((2, 2), flat())
    assert math.exp(mdm_log_pmf(CountTable(((1, 1), (1, 1))), params)) == \
        pytest.approx(2.0 / 15.0, abs=1e-14)
    assert math.exp(mdm_log_pmf(CountTable(((2, 0), (2, 0))), params)) == \
        pytest.approx(1.0 / 5.0, abs=1e-14)


def rising(x, n):
    """x (x+1) ... (x+n-1), exact for rational x."""
    return math.prod((x + k for k in range(n)), start=Fraction(1))


def test_single_row_table_reduces_to_dirmult():
    # exact Dirichlet-multinomial mass
    #   n! / prod n_b! * prod rising(a_b, n_b) / rising(a., n)
    alpha = (Fraction(1, 2), Fraction(3, 2), Fraction(3))
    params = MdmParams((3,), DispersionModel.from_alpha(map(float, alpha)))
    for t in enumerate_tables((3,), 3):
        row = t.counts[0]
        coef = math.factorial(3)
        for n_b in row:
            coef //= math.factorial(n_b)
        exact = coef * math.prod(rising(a, n) for a, n in zip(alpha, row)) \
            / rising(sum(alpha), 3)
        assert math.exp(mdm_log_pmf(t, params)) == pytest.approx(
            float(exact), rel=1e-13)


def test_mdm_pmf_normalizes():
    params = MdmParams((2, 1, 2), DispersionModel.from_alpha((0.4, 1.1, 2.5)))
    total = math.fsum(math.exp(mdm_log_pmf(t, params))
                      for t in enumerate_tables((2, 1, 2), 3))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_theta_zero_rows_are_independent_multinomials():
    freqs = AlleleFrequencies((0.2, 0.3, 0.5))
    params = MdmParams((2, 2), theta_to_alpha(freqs, 0.0))
    t = CountTable(((1, 1, 0), (0, 1, 1)))
    # 2 q_1 q_2 times 2 q_2 q_3
    expected = math.log(2 * 0.2 * 0.3 * 2 * 0.3 * 0.5)
    assert mdm_log_pmf(t, params) == pytest.approx(expected, abs=1e-14)


def test_row_sum_mismatch_raises():
    params = MdmParams((2, 2), flat())
    with pytest.raises(TableError):
        mdm_log_pmf(CountTable(((1, 0), (1, 1))), params)
    with pytest.raises(TableError, match=r"observed row sums \(1,\)"):
        conditional_over_profiles(params, CountTable(((1, 0),)),
                                  SubsetSpec((0,)))


# params of two profiles of two draws over three categories, and each
# operation that takes a table: (call, argument name, expected shape, error)
SHAPED = MdmParams((2, 2), flat(width=3))
FIRST = SubsetSpec((0,))
TABLE_TAKERS = {
    "mdm_log_pmf": (lambda t: mdm_log_pmf(t, SHAPED), "table", (2, 3),
                    TableError),
    "mdm_chain_log_pmf": (lambda t: mdm_chain_log_pmf(t, SHAPED), "table",
                          (2, 3), TableError),
    "conditional_over_alleles": (
        lambda t: conditional_over_alleles(SHAPED, t, FIRST), "observed",
        (2, 1), TableError),
    "conditional_over_profiles": (
        lambda t: conditional_over_profiles(SHAPED, t, FIRST), "observed",
        (1, 3), TableError),
    "factorial_moment": (lambda t: factorial_moment(t, SHAPED), "order",
                         (2, 3), ParameterError),
    "oracle_marginal_over_alleles": (
        lambda t: oracle_marginal_over_alleles(SHAPED, FIRST, t),
        "collapsed", (2, 2), TableError),
    "oracle_marginal_over_profiles": (
        lambda t: oracle_marginal_over_profiles(SHAPED, FIRST, t),
        "sub_table", (1, 3), TableError),
}


# each refusal of a conditional whose table has the right shape: a call, the
# error class and the message
CONDITIONAL_REFUSALS = {
    "every category": (
        lambda: conditional_over_alleles(
            SHAPED, CountTable(((2, 0, 0), (0, 2, 0))),
            SubsetSpec((0, 1, 2))),
        ParameterError, "conditioning on every category leaves nothing"),
    "row above its sum": (
        lambda: conditional_over_alleles(SHAPED, CountTable(((1,), (3,))),
                                         FIRST),
        TableError, "observed row 1 sums to 3 > row sum 2"),
    # no unknown profile is left: a caller with U = 0 conditions on nothing
    "every profile": (
        lambda: conditional_over_profiles(
            SHAPED, CountTable(((2, 0, 0), (0, 2, 0))), SubsetSpec((0, 1))),
        ParameterError, "conditioning on every profile leaves nothing"),
}


@pytest.mark.parametrize("case", CONDITIONAL_REFUSALS)
def test_a_conditional_that_leaves_nothing_or_overdraws_is_refused(case):
    call, error, message = CONDITIONAL_REFUSALS[case]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


@pytest.mark.parametrize("extra", [(1, 0), (0, 1)], ids=["row", "column"])
@pytest.mark.parametrize("taker", TABLE_TAKERS)
def test_every_table_of_the_wrong_shape_is_refused_alike(taker, extra):
    call, name, (rows, cols), error = TABLE_TAKERS[taker]
    bad = (rows + extra[0], cols + extra[1])
    # rows of two draws, so only the shape is wrong
    table = CountTable(((2,) + (0,) * (bad[1] - 1),) * bad[0])
    with pytest.raises(error) as err:
        call(table)
    assert str(err.value) == (f"{name} has shape {bad[0]} x {bad[1]}, "
                              f"expected {rows} x {cols} "
                              "(profiles x categories)")


def test_table_is_row_exchangeable_bit_for_bit():
    # swapping rows permutes the summed terms only; fsum is exactly rounded,
    # so the log pmf must agree to the last bit
    params = MdmParams((2, 2), DispersionModel.from_alpha((0.7, 1.9, 0.4)))
    for t in enumerate_tables((2, 2), 3):
        swapped = CountTable((t.counts[1], t.counts[0]))
        assert mdm_log_pmf(t, params) == mdm_log_pmf(swapped, params)


def test_theta_to_zero_is_continuous():
    freqs = AlleleFrequencies((0.2, 0.3, 0.5))
    t = CountTable(((1, 1, 0), (0, 1, 1)))
    at_zero = math.exp(mdm_log_pmf(t, MdmParams((2, 2),
                                                theta_to_alpha(freqs, 0.0))))
    near_zero = math.exp(mdm_log_pmf(t, MdmParams((2, 2),
                                                  theta_to_alpha(freqs, 1e-8))))
    assert abs(near_zero - at_zero) < 1e-4


@pytest.mark.parametrize("counts", [((10 ** 306, 0),),
                                    ((1, 2), (3, 10 ** 400)),
                                    ((10 ** 300, 1),)])
def test_a_table_whose_total_is_past_the_cap_is_refused(counts):
    # 10**306 overflowed log_factorial and 10**400 the conversion to float;
    # the cap is on the total, so a table of cells at the cap is refused too
    with pytest.raises(TableError,
                       match=r"^counts: the table's total is above 10\*\*300$"):
        CountTable(counts)


@pytest.mark.parametrize("theta", [0.0, 1e-300, 1e-15, 0.3, 1.0 - 1e-16])
def test_a_table_at_the_cap_has_a_finite_pmf(theta):
    cap = 10 ** 300
    for probs in ((1e-300, 1.0 - 1e-300), (0.1,) * 10):
        model = theta_to_alpha(AlleleFrequencies(probs), theta)
        width = len(probs)
        for counts in (((cap,) + (0,) * (width - 1),),
                       ((cap - width + 1,) + (1,) * (width - 1),),
                       ((cap // (2 * width),) * width,) * 2):
            table = CountTable(counts)
            params = MdmParams(table.row_sums, model)
            for f in (mdm_log_pmf, mdm_chain_log_pmf):
                assert math.isfinite(f(table, params))
            assert math.isfinite(hypergeometric_log_pmf(table))


# ---------------------------------------------------------------------------
# chain factorization


def step_mass(alpha_a, alpha_tail, col, free):
    # one step's log mass, alpha_a against alpha_tail at scale 1
    steps = _chain_steps((alpha_a, alpha_tail), 1.0,
                         (_Memo(alpha_a), _Memo(alpha_tail)))
    return _log_step(steps[0], col, sum(col), free, sum(free))


def test_joint_step_closed_form():
    # two fresh contributors, one draw each into a category with
    # alpha_a = alpha_tail = 4.5
    got = step_mass(4.5, 4.5, (1, 1), (2, 2))
    expected = (math.log(4) + lgamma(9.0) + 2 * lgamma(6.5)
                - 2 * lgamma(4.5) - lgamma(13.0))
    assert got == pytest.approx(expected, abs=1e-13)


def test_joint_step_supports_general_row_sums():
    # rows with 3 and 1 draws left: the step is a pmf over the column
    # drawn, and at column (2, 0) it is C(3, 2) (1)_2 (2)_2 / (3)_4 = 1/10
    free = (3, 1)
    total = math.fsum(math.exp(step_mass(1.0, 2.0, col, free))
                      for col in itertools.product(range(4), range(2)))
    assert total == pytest.approx(1.0, abs=1e-14)
    assert math.exp(step_mass(1.0, 2.0, (2, 0), free)) == pytest.approx(
        0.1, rel=1e-14)


@given(st.lists(st.floats(0.2, 4.0), min_size=2, max_size=4),
       st.lists(st.integers(1, 3), min_size=1, max_size=3))
def test_chain_matches_joint_pmf(alpha, rows):
    params = MdmParams(tuple(rows), DispersionModel.from_alpha(alpha))
    width = len(alpha)
    for t in itertools.islice(enumerate_tables(tuple(rows), width), 60):
        assert mdm_chain_log_pmf(t, params) == pytest.approx(
            mdm_log_pmf(t, params), abs=1e-10)


def test_chain_matches_joint_at_theta_zero_exactly():
    freqs = AlleleFrequencies((0.2, 0.3, 0.5))
    params = MdmParams((2, 2), theta_to_alpha(freqs, 0.0))
    for t in enumerate_tables((2, 2), 3):
        assert mdm_chain_log_pmf(t, params) == pytest.approx(
            mdm_log_pmf(t, params), abs=1e-12)


@pytest.mark.parametrize("theta", [5e-324, 1e-320, 1e-310])
def test_theta_whose_alpha_total_overflows_is_theta_zero_bit_for_bit(theta):
    # (1 - theta) / theta overflows to inf: the multinomial limit, read by
    # every consumer as at theta = 0
    freqs = AlleleFrequencies((0.2, 0.3, 0.4))
    limit = MdmParams((2, 3), theta_to_alpha(freqs, theta))
    zero = MdmParams((2, 3), theta_to_alpha(freqs, 0.0))
    assert (limit.model.theta, limit.model.alpha_total) == (theta, math.inf)
    tables = list(enumerate_tables((2, 3), 4))
    for f in (mdm_log_pmf, mdm_chain_log_pmf, factorial_moment):
        assert [f(t, limit) for t in tables] == [f(t, zero) for t in tables]
    observed = CountTable(((1, 0, 1, 0),))
    cols = CountTable(((1,), (0,)))
    for transform, args in (
            (marginal_over_alleles, (SubsetSpec((0, 2)),)),
            (conditional_over_alleles, (cols, SubsetSpec((1,)))),
            (marginal_over_profiles, (SubsetSpec((1,)),)),
            (conditional_over_profiles, (observed, SubsetSpec((0,))))):
        a, b = transform(limit, *args), transform(zero, *args)
        width = b.n_categories
        assert [mdm_log_pmf(t, a) for t in enumerate_tables(b.row_sums, width)
                ] == [mdm_log_pmf(t, b) for t in enumerate_tables(b.row_sums,
                                                                 width)]
    draws = [MdmSampler(p, 3) for p in (limit, zero)]
    assert [draws[0].draw_counts() for _ in range(20)] == [
        draws[1].draw_counts() for _ in range(20)]
    pair = GenotypePair(genotype_from_alleles((0, 0), 4),
                        genotype_from_alleles((0, 1), 4))
    assert pair_ratio(pair, freqs, theta) == 1.0
    margin = MarginState(n_col=2, s_prev=0, n_contributors=2)
    assert woe_step(margin, 0.2, theta) == 1.0
    # the collapsed model keeps theta > 0 and alpha_total = inf, so it
    # draws through the fixed urn of q, as at theta = 0
    marg = marginal_over_alleles(limit, SubsetSpec((0,)))
    assert (marg.model.theta, marg.model.alpha_total) == (theta, math.inf)
    fixed = MdmSampler(marg, 3)
    assert not fixed._urn
    assert fixed.draw_counts() == MdmSampler(
        marginal_over_alleles(zero, SubsetSpec((0,))), 3).draw_counts()


def _reference_step(q_a, q_tail, col, free, scale):
    # one step with every term, zero cells and empty columns included
    n = sum(col)
    rem = sum(free)
    pool = q_a + q_tail
    terms = [log_binomial(f, c) for f, c in zip(free, col)]
    terms += [n * math.log(q_a / pool), (rem - n) * math.log(q_tail / pool),
              log_scaled_rising(q_a * scale, n),
              log_scaled_rising(q_tail * scale, rem - n),
              -log_scaled_rising(pool * scale, rem)]
    return math.fsum(terms)


def _reference_chain(table, params):
    # one fsum per step and one over the steps, every column but the last;
    # tails[a] = q[a] + ... + q[-1], added from the right
    q = params.model.freqs.extended_probs
    tails = [0.0]
    for x in reversed(q):
        tails.append(tails[-1] + x)
    tails.reverse()
    steps = []
    free = table.row_sums
    for a, col in enumerate(list(zip(*table.counts))[:-1]):
        steps.append(_reference_step(q[a], tails[a + 1], col, free,
                                     params.model.alpha_total))
        free = [f - c for f, c in zip(free, col)]
    return math.fsum(steps)


@st.composite
def _sparse_tables(draw):
    width = draw(st.integers(1, 40))
    n_rows = draw(st.integers(1, 10))
    empty_cols = draw(st.sets(st.integers(0, width - 1)))
    empty_rows = draw(st.sets(st.integers(0, n_rows - 1)))
    counts = []
    for i in range(n_rows):
        row = draw(st.lists(st.sampled_from((0, 0, 1, 2, 7)),
                            min_size=width, max_size=width))
        counts.append(tuple(0 if i in empty_rows or a in empty_cols else x
                            for a, x in enumerate(row)))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=width,
                            max_size=width))
    return CountTable(tuple(counts)), [w / sum(weights) for w in weights]


CHAIN_THETAS = (0.0, 1e-300, 1e-6, 0.3, 1.0 - 1e-9)


@given(_sparse_tables(), st.sampled_from(CHAIN_THETAS))
def test_chain_keeps_the_bits_of_the_full_step_sum(case, theta):
    # the chain leaves out exact zeros only: empty columns' terms in n,
    # zero cells, and the steps after the last free draw
    table, probs = case
    freqs = AlleleFrequencies(tuple(probs))
    params = MdmParams(table.row_sums, theta_to_alpha(freqs, theta))
    assert mdm_chain_log_pmf(table, params).hex() == \
        _reference_chain(table, params).hex()


@pytest.mark.parametrize("theta", CHAIN_THETAS)
def test_chain_keeps_the_bits_with_one_params_over_many_large_tables(theta):
    # rows above 170 draws take log_binomial's lgamma branch, and the step
    # records built on the first chain call, with their memos of L, are
    # read again by the rest and by a second pass over the same tables on
    # the warm model, also on models derived from this one; the direct pmf
    # does not build them
    freqs = AlleleFrequencies((0.3, 0.02, 0.25, 0.1, 0.05, 0.2))
    params = MdmParams((400, 171, 3, 0), theta_to_alpha(freqs, theta))
    observed = CountTable(((100, 5, 80, 40, 25, 100, 50),))
    derived = (params,
               conditional_over_profiles(params, observed, SubsetSpec((0,))),
               marginal_over_alleles(params, SubsetSpec((0, 2, 3))))
    for k, sub in enumerate(derived):
        sampler = MdmSampler(sub, 11 + k)
        tables = [sampler.draw() for _ in range(40)]
        assert len(set(tables)) > 1
        mdm_log_pmf(tables[0], sub)
        assert "_steps" not in vars(sub.model)
        for table in tables + tables:
            assert mdm_chain_log_pmf(table, sub).hex() == \
                _reference_chain(table, sub).hex()


def _chain_memos(model):
    # each memo once: step a's tail memo is step a+1's pool memo
    return list({id(memo): memo for step in model._steps
                 for memo in step[2:]}.values())


def _one_row_sweep():
    # tables of one row of 600 draws over three categories: the first step
    # meets 601 counts, more than a memo keeps
    return [CountTable(((n, m, 600 - n - m),))
            for n, m in ((n, (7 * n) % (601 - n)) for n in range(601))]


@pytest.mark.parametrize("theta", CHAIN_THETAS)
def test_a_capped_memo_changes_no_bit_and_not_the_params(theta):
    # the sweep's first step meets more counts than a memo keeps, and the
    # kernel called per (n, rem) as a forward pass would reads the second
    # step's pool memo, the first step's full tail memo, past the cap and
    # fills its own tail memo: each memo keeps at most the cap, and every
    # value keeps the reference bits.  The memos live on the model outside
    # its fields, so a warm model equals a cold one, hashes alike and
    # prints alike, and the direct pmf builds no step records
    freqs = AlleleFrequencies((0.4, 0.1))
    params = MdmParams((600,), theta_to_alpha(freqs, theta))
    cold = MdmParams((600,), DispersionModel(theta, freqs))
    tables = _one_row_sweep()
    for table in tables + tables[::-1]:
        assert mdm_chain_log_pmf(table, params).hex() == \
            _reference_chain(table, params).hex()
    q, scale = params.model.freqs.extended_probs, params.model.alpha_total
    for rem in range(0, 600, 2):
        for n in (0, rem // 3, rem):
            got = _log_step(params.model._steps[1], (n,), n, (rem,), rem)
            assert got.hex() == _reference_step(
                q[1], q[2], (n,), (rem,), scale).hex()
    sizes = [len(memo) for memo in _chain_memos(params.model)]
    assert max(sizes) == _MEMO_SIZE and sizes.count(_MEMO_SIZE) >= 3
    mdm_log_pmf(tables[5], cold)
    assert "_steps" not in vars(cold.model) and "_memos" in vars(cold.model)
    assert params.model is not cold.model
    assert params == cold and hash(params) == hash(cold)
    assert repr(params) == repr(cold)
    assert vars(params) == vars(cold)


def test_threads_sharing_one_params_get_the_reference_bits():
    # the memos are shared state: threads racing on a count compute its L
    # twice and store the same value, and each may store one past the cap
    freqs = AlleleFrequencies((0.4, 0.1))
    params = MdmParams((600,), theta_to_alpha(freqs, 0.01))
    tables = _one_row_sweep()
    want = [_reference_chain(table, params).hex() for table in tables]
    n_threads = 4
    got = [None] * n_threads

    def score(k):
        order = tables[k * 150:] + tables[:k * 150]
        got[k] = [mdm_chain_log_pmf(table, params).hex() for table in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=score, args=(k,))
                   for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(n_threads):
        assert got[k] == want[k * 150:] + want[:k * 150]
    sizes = [len(memo) for memo in _chain_memos(params.model)]
    assert _MEMO_SIZE <= max(sizes) <= _MEMO_SIZE + n_threads - 1


def _sharing_params():
    # params with a rest class and without one, and two derived from them;
    # no q_a equals a suffix sum, so no two memos share a mass by chance
    rest = AlleleFrequencies((0.1, 0.2, 0.3, 0.15))
    full = AlleleFrequencies((0.12, 0.21, 0.3, 0.37))
    with_rest = MdmParams((3, 5), theta_to_alpha(rest, 0.05))
    without = MdmParams((4, 2, 1), theta_to_alpha(full, 0.3))
    observed = CountTable(((1, 0, 2, 1),))
    return (with_rest, without,
            conditional_over_profiles(without, observed, SubsetSpec((0,))),
            marginal_over_alleles(with_rest, SubsetSpec((0, 1, 3))))


@pytest.mark.parametrize("k", range(4))
def test_adjacent_steps_share_one_memo_and_each_l_is_computed_once(
        k, monkeypatch):
    # step a's tail mass suffix[a+1] a. is step a+1's pool mass: one memo
    # holds it, 2A - 1 memos in all, and a step's memo at q_a a. is the
    # direct pmf's, which adds one at a.: 2A on the model.  A forward-pass
    # sweep of direct kernel calls over every step and 0 <= n <= rem < 200,
    # then the direct pmf, the chain and factorial_moment on these params
    # and on params with other row sums over the same model, compute each
    # (mass, count) once
    params = _sharing_params()[k]
    model = params.model
    steps = model._steps
    for step, after in zip(steps, steps[1:]):
        assert step[3] is after[4]
    memos = _chain_memos(model)
    assert len(memos) == 2 * params.n_categories - 1
    assert [step[2] for step in steps] == list(model._memos[:len(steps)])
    assert steps[-1][3] is model._memos[-2]
    every = {id(memo): memo for memo in memos + list(model._memos)}
    assert len(every) == 2 * params.n_categories
    assert len({memo.x for memo in every.values()}) == len(every)
    calls = collections.Counter()

    def counted(x, n):
        calls[x, n] += 1
        return log_scaled_rising(x, n)

    monkeypatch.setattr("mdmix.logspace.log_scaled_rising", counted)
    for step in steps:
        for rem in range(200):
            for n in range(rem + 1):
                _log_step(step, (n,), n, (rem,), rem)
    other = MdmParams(tuple(2 * r + 1 for r in params.row_sums), model)
    for sub in (params, other, MdmParams(params.row_sums, model)):
        for seed in range(5):
            table = MdmSampler(sub, seed).draw()
            for _ in range(2):
                mdm_log_pmf(table, sub)
                mdm_chain_log_pmf(table, sub)
                factorial_moment(table, sub)
    assert calls and set(calls.values()) == {1}
    assert {x for x, _ in calls} == {memo.x for memo in every.values()}


@pytest.mark.parametrize("theta", CHAIN_THETAS)
def test_chain_keeps_the_bits_on_derived_params(theta):
    # conditioning on rows and collapsing columns rebuild q and alpha_total
    # through _scaled_model; the chain reads those, not the parent's
    freqs = AlleleFrequencies((0.3, 0.02, 0.25, 0.1, 0.05))
    params = MdmParams((5, 200, 2), theta_to_alpha(freqs, theta))
    observed = CountTable(((1, 0, 2, 1, 0, 1),))
    derived = (conditional_over_profiles(params, observed, SubsetSpec((0,))),
               marginal_over_alleles(params, SubsetSpec((0, 2, 4))),
               marginal_over_alleles(conditional_over_profiles(
                   params, observed, SubsetSpec((0,))), SubsetSpec((1, 3))))
    for k, sub in enumerate(derived):
        sampler = MdmSampler(sub, k)
        for _ in range(20):
            table = sampler.draw()
            assert mdm_chain_log_pmf(table, sub).hex() == \
                _reference_chain(table, sub).hex()


# ---------------------------------------------------------------------------
# marginals and conditionals


def test_allele_marginal_matches_enumeration():
    params = MdmParams((2, 2), DispersionModel.from_alpha((0.5, 1.0, 2.0)))
    keep = SubsetSpec((0,))
    marg = marginal_over_alleles(params, keep)
    assert marg.model.alpha == pytest.approx((0.5, 3.0))
    for sub in enumerate_tables((2, 2), 2):
        closed = math.exp(mdm_log_pmf(sub, marg))
        brute = oracle_marginal_over_alleles(params, keep, sub)
        assert closed == pytest.approx(brute, abs=1e-12)


def test_allele_marginal_preserves_theta():
    params = MdmParams((2, 2), theta_to_alpha(AlleleFrequencies((0.2, 0.3, 0.5)),
                                              0.07))
    marg = marginal_over_alleles(params, SubsetSpec((1,)))
    assert marg.model.theta == pytest.approx(0.07, rel=1e-12)


def test_allele_conditional_shrinks_the_model():
    # one profile of two draws, alpha = (1, 2, 3); conditioning on one draw
    # landing in the last category leaves one draw over alpha = (1, 2)
    params = MdmParams((2,), DispersionModel.from_alpha((1.0, 2.0, 3.0)))
    cond = conditional_over_alleles(params, CountTable(((1,),)),
                                    SubsetSpec((2,)))
    assert cond.row_sums == (1,)
    assert cond.model.alpha == pytest.approx((1.0, 2.0))
    assert math.exp(mdm_log_pmf(CountTable(((1, 0),)), cond)) == \
        pytest.approx(1.0 / 3.0, abs=1e-14)


def test_allele_conditional_is_the_joint_over_the_marginal():
    params = MdmParams((2, 2), DispersionModel.from_alpha((0.5, 1.0, 2.0)))
    observed_subset = SubsetSpec((2,))
    observed_marg = marginal_over_alleles(params, observed_subset)
    for t in enumerate_tables((2, 2), 3):
        obs = CountTable(tuple((row[2],) for row in t.counts))
        head = CountTable(tuple((row[0], row[1]) for row in t.counts))
        # marginal of the observed column: kept column plus collapsed rest
        obs_full = CountTable(tuple((row[2], row[0] + row[1])
                                    for row in t.counts))
        cond = conditional_over_alleles(params, obs, observed_subset)
        joint = mdm_log_pmf(t, params)
        split = mdm_log_pmf(obs_full, observed_marg) + \
            mdm_log_pmf(head, cond)
        assert math.exp(joint) == pytest.approx(math.exp(split), abs=1e-12)


def test_profile_marginal_matches_enumeration():
    params = MdmParams((2, 1), DispersionModel.from_alpha((1.0, 2.0)))
    keep = SubsetSpec((0,))
    marg = marginal_over_profiles(params, keep)
    assert marg.row_sums == (2,)
    for sub in enumerate_tables((2,), 2):
        closed = math.exp(mdm_log_pmf(sub, marg))
        brute = oracle_marginal_over_profiles(params, keep, sub)
        assert closed == pytest.approx(brute, abs=1e-12)


def test_profile_conditional_updates_alpha_with_observed_columns():
    # alpha = (1, 1); observing a (2, 0) row shifts the posterior to (3, 1),
    # under which a second (2, 0) row has mass 3/5
    params = MdmParams((2, 2), flat())
    cond = conditional_over_profiles(params, CountTable(((2, 0),)),
                                     SubsetSpec((0,)))
    assert cond.model.alpha == pytest.approx((3.0, 1.0))
    assert math.exp(mdm_log_pmf(CountTable(((2, 0),)), cond)) == \
        pytest.approx(0.6, abs=1e-14)


def test_profile_conditional_at_theta_zero_is_no_update():
    freqs = AlleleFrequencies((0.3, 0.7))
    params = MdmParams((2, 2), theta_to_alpha(freqs, 0.0))
    cond = conditional_over_profiles(params, CountTable(((2, 0),)),
                                     SubsetSpec((0,)))
    assert cond.model == params.model
    assert cond.model.theta == 0.0
    assert cond.model.alpha_total == math.inf
    assert cond.model.freqs.extended_probs == (0.3, 0.7)
    assert cond.row_sums == (2,)


def test_profile_chain_rule_holds():
    params = MdmParams((2, 2), DispersionModel.from_alpha((0.5, 2.5)))
    first = SubsetSpec((0,))
    marg = marginal_over_profiles(params, first)
    for t in enumerate_tables((2, 2), 2):
        top = CountTable((t.counts[0],))
        bottom = CountTable((t.counts[1],))
        cond = conditional_over_profiles(params, top, first)
        joint = math.exp(mdm_log_pmf(t, params))
        split = math.exp(mdm_log_pmf(top, marg) + mdm_log_pmf(bottom, cond))
        assert joint == pytest.approx(split, abs=1e-13)


# ---------------------------------------------------------------------------
# conditional on both margins


def test_hypergeometric_balanced_table():
    assert math.exp(hypergeometric_log_pmf(CountTable(((1, 1), (1, 1))))) == \
        pytest.approx(2.0 / 3.0, abs=1e-13)


# at the edge of the log-factorial table, which holds 0! to 170!: a row sum
# of 170, a total of 171 whose rows are at most 170, a row sum of 171 and a
# single cell of 171
EDGE_TABLES = [((100, 70),), ((100, 70), (1, 0)), ((100, 71), (1, 2)),
               ((171, 0), (0, 3)), ((0, 171),)]


@pytest.mark.parametrize("counts", EDGE_TABLES)
@pytest.mark.parametrize("theta", [0.0, 0.03])
def test_both_pmfs_keep_the_bits_of_one_log_factorial_per_term(counts,
                                                                theta):
    table = CountTable(counts)
    model = theta_to_alpha(AlleleFrequencies((0.3, 0.7)), theta)
    cells = [n for row in counts for n in row if n]
    terms = _dirichlet_terms(model, table.col_sums, table.total)
    terms += [log_factorial(n) for n in table.row_sums]
    terms += [-log_factorial(n) for n in cells]
    got = mdm_log_pmf(table, MdmParams(table.row_sums, model))
    assert got.hex() == math.fsum(terms).hex()
    terms = [-log_factorial(table.total)]
    terms += [log_factorial(n) for n in table.row_sums + table.col_sums]
    terms += [-log_factorial(n) for n in cells]
    assert hypergeometric_log_pmf(table).hex() == math.fsum(terms).hex()


def test_margin_conditional_is_free_of_alpha():
    tables = list(enumerate_tables_with_margins((2, 2), (2, 2)))
    for alpha in ((1.0, 1.0), (0.3, 2.2), (5.0, 0.7)):
        params = MdmParams((2, 2), DispersionModel.from_alpha(alpha))
        probs = [math.exp(mdm_log_pmf(t, params)) for t in tables]
        norm = math.fsum(probs)
        for t, p in zip(tables, probs):
            assert p / norm == pytest.approx(
                math.exp(hypergeometric_log_pmf(t)), abs=1e-12)


def test_margins_are_sufficient():
    # within a margin class the conditional mass is hypergeometric, so
    # log pmf minus log hypergeometric is constant across the class
    params = MdmParams((2, 2), DispersionModel.from_alpha((0.8, 1.3)))
    gaps = {mdm_log_pmf(t, params) - hypergeometric_log_pmf(t)
            for t in enumerate_tables_with_margins((2, 2), (2, 2))}
    assert max(gaps) - min(gaps) < 1e-12
