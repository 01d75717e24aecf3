"""Log-domain arithmetic helpers.

Probability mass is carried as natural logs throughout the package; an
impossible event is LOG_ZERO (-inf), never an exception.  Every gamma
ratio Gamma(x + n) / Gamma(x) is written n log(x) + L(x, n) with the scaled
rising kernel L = log_scaled_rising, which keeps its precision as
x = q(1-theta)/theta grows without bound (theta -> 0+) and is exactly 0 in
the limit x = inf (theta = 0); integer factorials come from a table of
exactly rounded logs up to 170!, the largest factorial representable in a
double.  _Memo keeps the L values of one x by count.
"""

from __future__ import annotations

import math
from math import inf, lgamma, log, log1p

LOG_ZERO = float("-inf")

_MAX_TABLED = 170
_LOG_FACTORIAL = [0.0] * (_MAX_TABLED + 1)
for _n in range(2, _MAX_TABLED + 1):
    _LOG_FACTORIAL[_n] = math.log(math.factorial(_n))


def log_factorial(n: int) -> float:
    """log(n!), exact table below 171, lgamma above."""
    if n < 0:
        raise ValueError(f"factorial undefined for n={n}")
    if n <= _MAX_TABLED:
        return _LOG_FACTORIAL[n]
    return lgamma(n + 1.0)


def log_binomial(n: int, k: int) -> float:
    """log C(n, k); LOG_ZERO outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return LOG_ZERO
    if n <= _MAX_TABLED:  # and so k and n - k: three reads of the table
        return _LOG_FACTORIAL[n] - _LOG_FACTORIAL[k] - _LOG_FACTORIAL[n - k]
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


# Below this x the lgamma difference is used; from it on Stirling's series
# at x and x + n needs three correction terms (the fourth is below 1e-20).
_LGAMMA_MAX_X = 256.0
# Orders up to this one are summed term by term: the terms are positive, so
# the sum is within a few ulps of L (an lgamma difference is only within
# ulps of lgamma(x + n)), and it is cheaper than either closed form.
_SUM_MAX_N = 8
# 1/3, 1/5, ... 1/21 for atanh(u)/u - 1 = u^2 (1/3 + u^2/5 + ...), in Horner
# order; at u = r / (2 + r) <= 1/9 the omitted terms are below 2**-53.
_ATANH_SERIES = tuple(1.0 / k for k in range(21, 1, -2))


def _stirling_correction(z: float) -> float:
    """log Gamma(z) minus (z - 1/2) log z - z + log(2 pi) / 2, z >= 256."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - w * (1.0 / 360.0 - w / 1260.0)) / z


def log_scaled_rising(x: float, n: int) -> float:
    """L(x, n) = log Gamma(x+n) / (Gamma(x) x^n) = sum_{k<n} log1p(k/x).

    x lies in (0, inf]; L(x, 0) = L(x, 1) = L(inf, n) = 0.0 exactly.  The
    rising factorial is log (x)_n = n log(x) + L(x, n), and the cost does
    not grow with n.
    """
    if n < 0 or not x > 0.0:
        raise ValueError(f"L(x, n) needs x > 0 and n >= 0, got x={x}, n={n}")
    if n < 2 or x == inf:
        return 0.0
    if n <= _SUM_MAX_N:
        total = 0.0
        for k in range(1, n):
            total += log1p(k / x)
        return total
    if x < _LGAMMA_MAX_X:
        return lgamma(x + n) - lgamma(x) - n * log(x)
    # Stirling at x and x + n: (x + n - 1/2) log1p(r) - n plus corrections,
    # with r = n / x; x (log1p(r) - r) is summed as a series for small r
    r = n / x
    corr = _stirling_correction(x + n) - _stirling_correction(x)
    if r > 0.25:
        return (x + n - 0.5) * log1p(r) - n + corr
    u = r / (2.0 + r)
    u2 = u * u
    tail = 0.0
    for c in _ATANH_SERIES:
        tail = tail * u2 + c
    # log1p(r) = 2 atanh(u), so x (log1p(r) - r) = n (2 u^2 tail - r) / (2 + r)
    return n * (2.0 * u2 * tail - r) / (2.0 + r) + (n - 0.5) * log1p(r) + corr


# The most counts a memo keeps for one Dirichlet mass; a table of total N
# meets at most N + 1, and the simulation benchmark's largest total is 180.
# Past the cap a memo computes L afresh, so a chain step computes
# L(pool a., rem) again after the step before computed it as its
# L(q_tail a., rem - n).  A DispersionModel over A categories holds 2A
# memos, about 23 KB each when full, so at most 1.9 MB at A = 41.
_MEMO_SIZE = 256


class _Memo(dict):
    """L(x, n) by n for one x, filled on first use.  A value is stored only
    while fewer than _MEMO_SIZE are, and it is the pure L value, so threads
    that share a memo can at worst compute a value twice, or each store one
    past the cap when they race at it."""

    __slots__ = ("x",)

    def __init__(self, x: float):
        self.x = x

    def __missing__(self, n: int) -> float:
        value = log_scaled_rising(self.x, n)
        if len(self) < _MEMO_SIZE:
            self[n] = value
        return value
