"""Factorial moments, means, and covariances of joint count tables.

With falling factorials n^(r) = n (n-1) ... (n-r+1), the mixed factorial
moment of a table under row sums n_i. and parameters alpha is

    E prod_ia n_ia^(r_ia) = { prod_i n_i.^(r_i.) }
        * prod_a prod_{k < r.a} (alpha_a + k) / prod_{k < r..} (a. + k);

at theta = 0 the alpha ratio degenerates to prod_a q_a^{r.a}.  Means are
E n_ia = n_i. q_a regardless of theta, and the covariances take four
closed forms depending on whether profiles and categories coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        return tuple(sum(row) for row in self.orders)

    @property
    def col_totals(self) -> tuple[int, ...]:
        return tuple(sum(row[a] for row in self.orders)
                     for a in range(len(self.orders[0])))

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
    """E prod_ia n_ia^(r_ia); exactly 0 when some r_i. exceeds n_i.."""
    _check_dims(order, params)
    base = 1.0
    for n_i, r_i in zip(params.row_sums, order.row_totals):
        if r_i > n_i:
            return 0.0
        base *= math.perm(n_i, r_i)
    model = params.model
    if model.theta == 0.0:
        q = model.freqs.extended_probs
        for q_a, r_a in zip(q, order.col_totals):
            base *= q_a ** r_a
        return base
    num = 1.0
    for a_a, r_a in zip(model.alpha, order.col_totals):
        for k in range(r_a):
            num *= a_a + k
    den = 1.0
    for k in range(order.total):
        den *= model.alpha_total + k
    return base * num / den


def mean_matrix(params: MdmParams) -> np.ndarray:
    """I x A matrix of E n_ia = n_i. q_a."""
    q = np.asarray(params.model.freqs.extended_probs)
    rows = np.asarray(params.row_sums, dtype=float)
    return np.outer(rows, q)


def covariance(params: MdmParams, i: int, a: int, j: int, b: int) -> float:
    """Cov(n_ia, n_jb) in closed form.

    same profile, same category:  n_i. q_a (1-q_a) (1 + (n_i.-1) theta)
    same profile, different:     -n_i. q_a q_b    (1 + (n_i.-1) theta)
    different profile, same:      n_i. n_j. q_a (1-q_a) theta
    different profile, different: -n_i. n_j. q_a q_b theta
    """
    i = _as_int(i, "profile index i")
    j = _as_int(j, "profile index j")
    a = _as_int(a, "category index a")
    b = _as_int(b, "category index b")
    if not (0 <= i < params.n_profiles and 0 <= j < params.n_profiles):
        raise ParameterError(f"profile index out of range: {i}, {j}")
    if not (0 <= a < params.n_categories and 0 <= b < params.n_categories):
        raise ParameterError(f"category index out of range: {a}, {b}")
    q = params.model.freqs.extended_probs
    theta = params.model.theta
    n_i = params.row_sums[i]
    if i == j:
        shrink = 1.0 + (n_i - 1) * theta
        if a == b:
            return n_i * q[a] * (1.0 - q[a]) * shrink
        return -n_i * q[a] * q[b] * shrink
    n_j = params.row_sums[j]
    if a == b:
        return n_i * n_j * q[a] * (1.0 - q[a]) * theta
    return -n_i * n_j * q[a] * q[b] * theta


def covariance_matrix(params: MdmParams) -> np.ndarray:
    """Full covariance of the flattened table, cell (i, a) at index i*A + a."""
    n_p = params.n_profiles
    n_c = params.n_categories
    out = np.empty((n_p * n_c, n_p * n_c))
    for i in range(n_p):
        for a in range(n_c):
            for j in range(n_p):
                for b in range(n_c):
                    out[i * n_c + a, j * n_c + b] = covariance(params, i, a, j, b)
    return out
