# SPDX-License-Identifier: Apache-2.0
"""The single-profile Dirichlet-multinomial, as one-row joint tables."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from mdmix import (AlleleFrequencies, CountTable, DispersionModel,
                   MdmParams, ParameterError, SubsetSpec, TableError,
                   marginal_over_alleles, mdm_chain_log_pmf, mdm_log_pmf,
                   theta_to_alpha)
from mdmix.logspace import _Memo
from mdmix.mdm import _log_step
from mdmix.model import _chain_steps


def compositions(total, parts):
    """All count vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def one_row_log_pmf(counts, model):
    return mdm_log_pmf(CountTable((counts,)), MdmParams((sum(counts),), model))


def multinomial_pmf(counts, q):
    """Independent reference: n! / prod n_a! * prod q_a^n_a."""
    coef = math.factorial(sum(counts))
    for n_a in counts:
        coef //= math.factorial(n_a)
    return coef * math.prod(q_a ** n_a for q_a, n_a in zip(q, counts))


# ---------------------------------------------------------------------------
# one-row pmf


def test_dirmult_pmf_flat_pair():
    # alpha = (2, 2), two draws: P(2,0) = 3/10, P(1,1) = 2/5; a uniform
    # alpha = (1, 1) spreads the three outcomes evenly
    model = DispersionModel.from_alpha((2.0, 2.0))
    assert math.exp(one_row_log_pmf((2, 0), model)) == \
        pytest.approx(0.3, abs=1e-14)
    assert math.exp(one_row_log_pmf((1, 1), model)) == \
        pytest.approx(0.4, abs=1e-14)
    flat = DispersionModel.from_alpha((1.0, 1.0))
    assert math.exp(one_row_log_pmf((1, 1), flat)) == \
        pytest.approx(1.0 / 3.0, abs=1e-14)


def test_dirmult_pmf_normalizes():
    model = DispersionModel.from_alpha((0.5, 1.0, 2.5))
    for n in (1, 2, 3, 4):
        total = math.fsum(math.exp(one_row_log_pmf(c, model))
                          for c in compositions(n, 3))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_dirmult_pmf_at_theta_zero_is_the_multinomial():
    q = (0.2, 0.3, 0.5)
    model = theta_to_alpha(AlleleFrequencies(q), 0.0)
    for n in (1, 2, 3, 4):
        for c in compositions(n, 3):
            assert math.exp(one_row_log_pmf(c, model)) == pytest.approx(
                multinomial_pmf(c, q), rel=1e-13)


def test_dirmult_pmf_checks_category_count():
    params = MdmParams((2,), DispersionModel.from_alpha((1.0, 1.0)))
    with pytest.raises(TableError):
        mdm_log_pmf(CountTable(((1, 1, 0),)), params)


# ---------------------------------------------------------------------------
# collapsed prefix: marginal_over_alleles on one row


def test_collapsed_prefix_pools_trailing_mass():
    # alpha = (1, 1, 1), two draws: P(n_1 = 0) under collapsed (1, 2) is 1/2
    params = MdmParams((2,), DispersionModel.from_alpha((1.0, 1.0, 1.0)))
    collapsed = marginal_over_alleles(params, SubsetSpec((0,)))
    assert math.exp(mdm_log_pmf(CountTable(((0, 2),)), collapsed)) == \
        pytest.approx(0.5, abs=1e-14)


def test_collapsed_prefix_matches_summed_joint():
    model = DispersionModel.from_alpha((0.7, 1.3, 2.0, 0.5))
    n = 3
    collapsed = marginal_over_alleles(MdmParams((n,), model),
                                      SubsetSpec((0, 1)))
    for prefix in compositions(2, 2):
        row = prefix + (n - sum(prefix),)
        direct = math.exp(mdm_log_pmf(CountTable((row,)), collapsed))
        brute = math.fsum(math.exp(one_row_log_pmf(c, model))
                          for c in compositions(n, 4) if c[:2] == prefix)
        assert direct == pytest.approx(brute, abs=1e-13)


def test_collapsed_prefix_rejects_full_width():
    params = MdmParams((2,), DispersionModel.from_alpha((1.0, 1.0)))
    with pytest.raises(ParameterError):
        marginal_over_alleles(params, SubsetSpec((0, 1)))


# ---------------------------------------------------------------------------
# chain factorization


@given(st.lists(st.floats(0.1, 5.0), min_size=2, max_size=5),
       st.integers(0, 5))
def test_chain_matches_joint_pmf(alpha, n):
    params = MdmParams((n,), DispersionModel.from_alpha(alpha))
    for counts in itertools.islice(compositions(n, len(alpha)), 40):
        t = CountTable((counts,))
        assert mdm_chain_log_pmf(t, params) == pytest.approx(
            mdm_log_pmf(t, params), abs=1e-10)


def test_beta_binomial_step_is_a_collapsed_difference():
    # P(n_2 | n_1) = P(n_1, n_2) / P(n_1) on collapsed prefixes
    n = 4
    params = MdmParams((n,), DispersionModel.from_alpha((0.8, 1.7, 2.5)))
    pair = marginal_over_alleles(params, SubsetSpec((0, 1)))
    head = marginal_over_alleles(params, SubsetSpec((0,)))
    record = _chain_steps((1.7, 2.5), 1.0, (_Memo(1.7), _Memo(2.5)))[0]
    for n1 in range(n + 1):
        for n2 in range(n - n1 + 1):
            step = _log_step(record, (n2,), n2, (n - n1,), n - n1)
            joint = mdm_log_pmf(CountTable(((n1, n2, n - n1 - n2),)), pair)
            first = mdm_log_pmf(CountTable(((n1, n - n1),)), head)
            assert step == pytest.approx(joint - first, abs=1e-12)


# ---------------------------------------------------------------------------
# theta = 0 limit


def test_binomial_chain_equals_multinomial():
    q = (0.2, 0.3, 0.5)
    model = theta_to_alpha(AlleleFrequencies(q), 0.0)
    for n in (1, 2, 3, 4):
        params = MdmParams((n,), model)
        for counts in compositions(n, 3):
            chain = mdm_chain_log_pmf(CountTable((counts,)), params)
            assert chain == pytest.approx(one_row_log_pmf(counts, model),
                                          abs=1e-12)
            assert math.exp(chain) == pytest.approx(
                multinomial_pmf(counts, q), rel=1e-12)


def test_multinomial_pmf_normalizes_with_rest_class():
    model = theta_to_alpha(AlleleFrequencies((0.1, 0.3)), 0.0)  # rest 0.6
    total = math.fsum(math.exp(one_row_log_pmf(c, model))
                      for c in compositions(3, 3))
    assert total == pytest.approx(1.0, abs=1e-14)
