"""Factorial moments, means, and covariances of joint count tables.

With falling factorials n^(r) = n (n-1) ... (n-r+1), the mixed factorial
moment of a table under row sums n_i. and parameters alpha is

    E prod_ia n_ia^(r_ia) = { prod_i n_i.^(r_i.) }
        * prod_a (alpha_a)_{r.a} / (a.)_{r..}
      = { prod_i n_i.^(r_i.) } * prod_a q_a^{r.a}
        * exp(sum_a L(alpha_a, r.a) - L(a., r..))

with the scaled rising kernel L of logspace; at theta = 0 (a. = inf) the
exponent is 0 and the moment is the multinomial one.  Means are
E n_ia = n_i. q_a regardless of theta, and the covariances take four
closed forms depending on whether profiles and categories coincide.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .logspace import log_scaled_rising
from .mdm import MdmParams
from .model import ParameterError, _as_int, _as_ints


@dataclass(frozen=True)
class FactorialOrder:
    """A non-negative integer order r_ia per table cell."""

    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        orders = tuple(_as_ints(row, f"orders[{i}]")
                       for i, row in enumerate(self.orders))
        if not orders or not orders[0]:
            raise ParameterError("orders must be a non-empty matrix")
        width = len(orders[0])
        for i, row in enumerate(orders):
            if len(row) != width:
                raise ParameterError(f"orders row {i} has ragged width")
            if min(row) < 0:
                raise ParameterError(f"orders row {i} has a negative entry")
        object.__setattr__(self, "orders", orders)

    @property
    def row_totals(self) -> tuple[int, ...]:
        return tuple(map(sum, self.orders))

    @property
    def col_totals(self) -> tuple[int, ...]:
        return tuple(map(sum, zip(*self.orders)))

    @property
    def total(self) -> int:
        return sum(self.row_totals)


def _check_dims(order: FactorialOrder, params: MdmParams) -> None:
    if len(order.orders) != params.n_profiles:
        raise ParameterError(
            f"orders have {len(order.orders)} rows, params expect "
            f"{params.n_profiles}"
        )
    if len(order.orders[0]) != params.n_categories:
        raise ParameterError(
            f"orders have {len(order.orders[0])} columns, model has "
            f"{params.n_categories}"
        )


def factorial_moment(order: FactorialOrder, params: MdmParams) -> float:
    """E prod_ia n_ia^(r_ia); exactly 0 when some r_i. exceeds n_i..

    Summed in logs, so a moment inside the double range is finite at every
    theta; one beyond it raises ParameterError.
    """
    _check_dims(order, params)
    perms = 1
    for n_i, r_i in zip(params.row_sums, order.row_totals):
        if r_i > n_i:
            return 0.0
        perms *= math.perm(n_i, r_i)
    freqs = params.model.freqs
    a_total = params.model.alpha_total
    cols = order.col_totals
    terms = [math.log(perms), -log_scaled_rising(a_total, order.total)]
    terms += map(operator.mul, cols, freqs.log_extended_probs)
    terms += map(log_scaled_rising,
                 map(a_total.__mul__, freqs.extended_probs), cols)
    try:
        return math.exp(math.fsum(terms))
    except OverflowError:
        raise ParameterError(
            f"factorial moment of order {order.orders} exceeds the double "
            "range") from None


def mean_matrix(params: MdmParams) -> np.ndarray:
    """I x A matrix of E n_ia = n_i. q_a."""
    q = np.asarray(params.model.freqs.extended_probs)
    rows = np.asarray(params.row_sums, dtype=float)
    return np.outer(rows, q)


def covariance(params: MdmParams, i: int, a: int, j: int, b: int) -> float:
    """Cov(n_ia, n_jb): entry (i*A + a, j*A + b) of covariance_matrix."""
    i = _as_int(i, "profile index i")
    j = _as_int(j, "profile index j")
    a = _as_int(a, "category index a")
    b = _as_int(b, "category index b")
    if not (0 <= i < params.n_profiles and 0 <= j < params.n_profiles):
        raise ParameterError(f"profile index out of range: {i}, {j}")
    if not (0 <= a < params.n_categories and 0 <= b < params.n_categories):
        raise ParameterError(f"category index out of range: {a}, {b}")
    width = params.n_categories
    return float(covariance_matrix(params)[i * width + a, j * width + b])


def covariance_matrix(params: MdmParams) -> np.ndarray:
    """Full covariance of the flattened table, cell (i, a) at index i*A + a.

    same profile, same category:  n_i. q_a (1-q_a) (1 + (n_i.-1) theta)
    same profile, different:     -n_i. q_a q_b    (1 + (n_i.-1) theta)
    different profile, same:      n_i. n_j. q_a (1-q_a) theta
    different profile, different: -n_i. n_j. q_a q_b theta

    Each form is evaluated left to right, as written.
    """
    q = np.asarray(params.model.freqs.extended_probs)
    n = np.asarray(params.row_sums, dtype=float)
    theta = params.model.theta
    same_profile = np.eye(len(n), dtype=bool)
    # axes (i, a, j, b); 0.0 - count, unlike -count, is +0.0 for a zero
    # row sum
    count = np.where(same_profile, n[:, None], n[:, None] * n)[:, None, :, None]
    factor = np.where(same_profile, 1.0 + (n[:, None] - 1.0) * theta, theta)
    q_a = q[:, None, None]
    out = np.where(np.eye(len(q), dtype=bool)[:, None, :],
                   count * q_a * (1.0 - q_a), (0.0 - count) * q_a * q)
    out = out * factor[:, None, :, None]
    return out.reshape(len(n) * len(q), len(n) * len(q))
