# SPDX-License-Identifier: Apache-2.0
"""Log-domain primitives: exactness near the origin, stability far out."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from mdmix.logspace import (LOG_ZERO, log_binomial, log_factorial,
                            log_scaled_rising)


def test_log_factorial_matches_exact_integers():
    for n in range(0, 171):
        assert log_factorial(n) == pytest.approx(
            math.log(math.factorial(n)), rel=1e-15)


def test_log_factorial_large_argument_uses_lgamma():
    assert log_factorial(500) == pytest.approx(math.lgamma(501), rel=1e-15)


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        log_factorial(-1)


@given(st.integers(0, 60), st.integers(0, 60))
def test_log_binomial_matches_comb(n, k):
    if k > n:
        assert log_binomial(n, k) == LOG_ZERO
    else:
        assert log_binomial(n, k) == pytest.approx(
            math.log(math.comb(n, k)), abs=1e-12)


def test_log_binomial_out_of_range_is_log_zero():
    assert log_binomial(3, 5) == LOG_ZERO
    assert log_binomial(3, -1) == LOG_ZERO


def test_log_rising_small_cases():
    # 2.5 * 3.5 * 4.5 = 39.375, and L scales the rising product by x^n
    assert log_scaled_rising(2.5, 3) == pytest.approx(
        math.log(39.375) - 3 * math.log(2.5), rel=1e-14)
    assert log_scaled_rising(7.0, 0) == 0.0
    assert log_scaled_rising(7.0, 1) == 0.0
    assert log_scaled_rising(math.inf, 40) == 0.0
    assert log_scaled_rising(math.inf, 10 ** 6) == 0.0
    for bad in ((0.0, 2), (-1.0, 2), (math.nan, 2), (2.0, -1)):
        with pytest.raises(ValueError):
            log_scaled_rising(*bad)
