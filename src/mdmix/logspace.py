"""Log-domain arithmetic helpers.

Probability mass is carried as natural logs throughout the package; an
impossible event is LOG_ZERO (-inf), never an exception.  Gamma ratios go
through math.lgamma (relative error well below 1e-13 on the arguments we
use); integer factorials come from a table of exactly rounded logs up to
170!, the largest factorial representable in a double.
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


def log_rising(x: float, n: int) -> float:
    """log of x (x+1) ... (x+n-1); 0.0 for n = 0."""
    if n < 0:
        raise ValueError(f"negative order n={n}")
    if x <= 0.0:
        raise ValueError(f"rising product needs x > 0, got {x}")
    return math.fsum(math.log(x + k) for k in range(n))
