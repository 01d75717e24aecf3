# SPDX-License-Identifier: Apache-2.0
"""Closed-form moments against enumeration."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdmix import (AlleleFrequencies, CountTable, DispersionModel,
                   MdmParams, MdmSampler, ParameterError, covariance_matrix,
                   factorial_moment, mean_matrix, theta_to_alpha)
from mdmix.oracle import oracle_moment


def all_orders(n_profiles, n_categories, max_total):
    """Every non-zero order matrix with total at most max_total."""
    cells = n_profiles * n_categories
    for values in itertools.product(range(max_total + 1), repeat=cells):
        if 0 < sum(values) <= max_total:
            rows = tuple(tuple(values[i * n_categories:(i + 1) * n_categories])
                         for i in range(n_profiles))
            yield CountTable(rows)


def test_factorial_moment_flat_pair():
    # single profile of two draws, alpha = (2, 2): E n_1 (n_1 - 1) = 0.6
    params = MdmParams((2,), DispersionModel.from_alpha((2.0, 2.0)))
    assert factorial_moment(CountTable(((2, 0),)), params) == \
        pytest.approx(0.6, abs=1e-15)


def test_factorial_moment_vanishes_beyond_row_capacity():
    params = MdmParams((2,), DispersionModel.from_alpha((2.0, 2.0)))
    assert factorial_moment(CountTable(((2, 1),)), params) == 0.0


def test_factorial_moment_matches_enumeration():
    params = MdmParams((2, 2), DispersionModel.from_alpha((0.5, 1.0, 2.0)))
    for order in all_orders(2, 3, 4):
        closed = factorial_moment(order, params)
        brute = oracle_moment(order, params)
        assert closed == pytest.approx(brute, rel=1e-10, abs=1e-12)


def test_factorial_moment_matches_enumeration_at_theta_zero():
    freqs = AlleleFrequencies((0.2, 0.3, 0.5))
    params = MdmParams((2, 1), theta_to_alpha(freqs, 0.0))
    for order in all_orders(2, 3, 3):
        closed = factorial_moment(order, params)
        brute = oracle_moment(order, params)
        assert closed == pytest.approx(brute, rel=1e-10, abs=1e-12)


def test_mean_matrix_is_rows_times_frequencies():
    freqs = AlleleFrequencies((0.2, 0.3, 0.5))
    params = MdmParams((2, 3), theta_to_alpha(freqs, 0.1))
    means = mean_matrix(params)
    np.testing.assert_allclose(means, [[0.4, 0.6, 1.0], [0.6, 0.9, 1.5]],
                               rtol=1e-14)
    # the mean is free of theta
    flat = mean_matrix(MdmParams((2, 3), theta_to_alpha(freqs, 0.0)))
    np.testing.assert_allclose(means, flat, rtol=1e-14)


def test_covariance_spot_values():
    # two draws per profile, q_a = 0.1, theta = 0.03
    freqs = AlleleFrequencies((0.1, 0.4, 0.5))
    params = MdmParams((2, 2), theta_to_alpha(freqs, 0.03))
    # same cell: 2 * 0.1 * 0.9 * (1 + 0.03)
    cov = covariance_matrix(params)
    assert cov[0, 0] == pytest.approx(0.1854, abs=1e-14)
    # same category across profiles: 2 * 2 * 0.1 * 0.9 * 0.03
    assert cov[0, 1 * 3 + 0] == pytest.approx(0.0108, abs=1e-14)


def test_covariance_matches_factorial_moments():
    # Cov(x, y) = E xy - E x E y with E xy from factorial moments:
    # E xy = E x^(1) y^(1) when the cells differ, E x(x-1) + E x when equal
    params = MdmParams((2, 3), DispersionModel.from_alpha((0.5, 1.0, 2.0)))

    def mean(i, a):
        rows = [[0] * 3, [0] * 3]
        rows[i][a] = 1
        return factorial_moment(CountTable(tuple(map(tuple, rows))), params)

    def raw_second(i, a, j, b):
        rows = [[0] * 3, [0] * 3]
        rows[i][a] += 1
        rows[j][b] += 1
        cross = factorial_moment(CountTable(tuple(map(tuple, rows))),
                                 params)
        if (i, a) == (j, b):
            return cross + mean(i, a)
        return cross

    cov = covariance_matrix(params)
    for i in range(2):
        for a in range(3):
            for j in range(2):
                for b in range(3):
                    derived = raw_second(i, a, j, b) - mean(i, a) * mean(j, b)
                    assert cov[i * 3 + a, j * 3 + b] == \
                        pytest.approx(derived, abs=1e-12)


def test_covariance_cross_profile_vanishes_at_theta_zero():
    freqs = AlleleFrequencies((0.2, 0.8))
    params = MdmParams((2, 2), theta_to_alpha(freqs, 0.0))
    cov = covariance_matrix(params)
    assert cov[0, 1 * 2 + 0] == 0.0
    assert cov[0, 1 * 2 + 1] == 0.0


def test_covariance_matrix_properties():
    params = MdmParams((2, 3), DispersionModel.from_alpha((0.5, 1.0, 2.0)))
    cov = covariance_matrix(params)
    assert cov.shape == (6, 6)
    np.testing.assert_allclose(cov, cov.T, atol=1e-15)
    # each profile's row sum is fixed, so covariances against it vanish:
    # summing over the categories of one profile must give zero
    for x in range(6):
        for j in range(2):
            block = cov[x, j * 3:(j + 1) * 3]
            assert block.sum() == pytest.approx(0.0, abs=1e-12)


def dense_covariance(params):
    """covariance_matrix with every branch built over all (i, a, j, b)."""
    q = np.asarray(params.model.freqs.extended_probs)
    n = np.asarray(params.row_sums, dtype=float)
    theta = params.model.theta
    same_profile = np.eye(len(n), dtype=bool)
    count = np.where(same_profile, n[:, None], n[:, None] * n)[:, None, :, None]
    factor = np.where(same_profile, 1.0 + (n[:, None] - 1.0) * theta, theta)
    q_a = q[:, None, None]
    out = np.where(np.eye(len(q), dtype=bool)[:, None, :],
                   count * q_a * (1.0 - q_a), (0.0 - count) * q_a * q)
    out = out * factor[:, None, :, None]
    return out.reshape(len(n) * len(q), len(n) * len(q))


@given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=12),
       st.booleans(),
       st.lists(st.sampled_from((0, 1, 2, 7, 10 ** 6)), min_size=1,
                max_size=6),
       st.sampled_from((0.0, 1e-300, 1e-12, 0.03, 0.5, 1.0 - 1e-9)))
def test_covariance_is_the_dense_form_bit_for_bit(weights, rest, rows, theta):
    total = math.fsum(weights) * (1.25 if rest else 1.0)
    freqs = AlleleFrequencies(tuple(w / total for w in weights))
    params = MdmParams(tuple(rows), theta_to_alpha(freqs, theta))
    assert covariance_matrix(params).tobytes() == \
        dense_covariance(params).tobytes()


@pytest.mark.parametrize("n_profiles, n_categories",
                         [(512, 1), (256, 2), (16, 32), (1, 512)])
def test_covariance_peak_memory_is_about_the_result(n_profiles,
                                                    n_categories):
    freqs = AlleleFrequencies((1.0 / n_categories,) * n_categories)
    params = MdmParams((2,) * n_profiles, theta_to_alpha(freqs, 0.03))
    tracemalloc.start()
    try:
        cov = covariance_matrix(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cov.nbytes == (n_profiles * n_categories) ** 2 * 8
    assert peak <= 1.1 * cov.nbytes, (peak, cov.nbytes)


def test_zero_row_sum_is_handled():
    params = MdmParams((0, 2), DispersionModel.from_alpha((1.0, 1.0)))
    order = CountTable(((1, 0), (0, 0)))
    assert factorial_moment(order, params) == 0.0
    assert mean_matrix(params)[0, 0] == 0.0
    assert covariance_matrix(params)[0, 0] == 0.0


CAP_MODEL = theta_to_alpha(AlleleFrequencies((0.25, 0.75)), 0.1)


@pytest.mark.parametrize("use", [
    mean_matrix,
    lambda params: factorial_moment(CountTable(((1, 0),)), params),
    lambda params: MdmSampler(params, 0),
], ids=["mean_matrix", "factorial_moment", "MdmSampler"])
@pytest.mark.parametrize("rows", [(10 ** 400,), (10 ** 300, 1)])
def test_row_sums_above_the_total_cap_are_refused(use, rows):
    # CountTable's cap: a float of the total, and each log factorial, stays
    # a finite double
    with pytest.raises(ParameterError,
                       match=r"^row_sums: the total is above 10\*\*300$"):
        use(MdmParams(rows, CAP_MODEL))


def test_moments_at_the_total_cap_are_finite():
    params = MdmParams((10 ** 300,), CAP_MODEL)
    assert mean_matrix(params).tolist() == [[2.5e299, 7.5e299]]
    assert factorial_moment(CountTable(((1, 0),)), params) == (
        pytest.approx(2.5e299, rel=1e-12))


@pytest.mark.parametrize("theta", [0.0, 0.1])
def test_covariance_refuses_a_row_sum_above_2_to_the_511(theta):
    # n_i. n_j. of a row sum above 2**511 leaves the double range: inf cells
    # at theta > 0, and inf times theta = 0 a nan; at the cap all is finite
    model = theta_to_alpha(AlleleFrequencies((0.25, 0.75)), theta)
    for big in (2 ** 511 + 1, 2 ** 600):
        with pytest.raises(ParameterError,
                           match=rf"^row_sums: at most 2\*\*511, got {big}$"):
            covariance_matrix(MdmParams((big, 2), model))
    assert np.isfinite(covariance_matrix(MdmParams((2 ** 511, 2),
                                                   model))).all()


def test_order_dimensions_are_checked():
    params = MdmParams((2,), DispersionModel.from_alpha((1.0, 1.0)))
    with pytest.raises(ParameterError):
        factorial_moment(CountTable(((1, 0, 0),)), params)
    with pytest.raises(ParameterError):
        factorial_moment(CountTable(((1, 0), (0, 0))), params)
