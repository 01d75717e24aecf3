"""Factorial moments, means, and covariances of joint count tables.

With falling factorials n^(r) = n (n-1) ... (n-r+1), the mixed factorial
moment of order r, an I x A CountTable, under parameters alpha is

    E prod_ia n_ia^(r_ia) = { prod_i n_i.^(r_i.) }
        * prod_a (alpha_a)_{r.a} / (a.)_{r..}
      = { prod_i n_i.^(r_i.) } * prod_a q_a^{r.a}
        * exp(sum_a L(alpha_a, r.a) - L(a., r..))

with the scaled rising kernel L of logspace, the pmf's Dirichlet terms;
at theta = 0 (a. = inf) the exponent is 0.  Means are E n_ia = n_i. q_a
regardless of theta, and the covariances take four closed forms
depending on whether profiles and categories coincide.
"""

from __future__ import annotations

import math

import numpy as np

from .mdm import MdmParams, _dirichlet_terms
from .model import CountTable, ParameterError, _check_shape

# the largest row sum covariance_matrix takes: n_i. n_j., so each
# covariance, stays inside the double range
_MAX_ROW_SUM = 2 ** 511


def factorial_moment(order: CountTable, params: MdmParams) -> float:
    """E prod_ia n_ia^(r_ia), the orders r_ia a CountTable shaped like
    params; exactly 0 when some r_i. exceeds n_i..

    Summed in logs, so a moment inside the double range is finite at every
    theta; one beyond it raises ParameterError.
    """
    _check_shape("order", order, params.n_profiles, params.n_categories,
                 ParameterError)
    perms = 1
    for n_i, r_i in zip(params.row_sums, order.row_sums):
        if r_i > n_i:
            return 0.0
        perms *= math.perm(n_i, r_i)
    terms = _dirichlet_terms(params.model, order.col_sums, order.total)
    terms.append(math.log(perms))
    try:
        return math.exp(math.fsum(terms))
    except OverflowError:
        raise ParameterError(
            f"factorial moment of order {order.counts} exceeds the double "
            "range") from None


def mean_matrix(params: MdmParams) -> np.ndarray:
    """I x A matrix of E n_ia = n_i. q_a."""
    q = np.asarray(params.model.freqs.extended_probs)
    rows = np.asarray(params.row_sums, dtype=float)
    return np.outer(rows, q)


def covariance_matrix(params: MdmParams) -> np.ndarray:
    """Full covariance of the flattened table, cell (i, a) at index i*A + a.

    same profile, same category:  n_i. q_a (1-q_a) (1 + (n_i.-1) theta)
    same profile, different:     -n_i. q_a q_b    (1 + (n_i.-1) theta)
    different profile, same:      n_i. n_j. q_a (1-q_a) theta
    different profile, different: -n_i. n_j. q_a q_b theta

    Each form is evaluated left to right, as written, with the count
    subtracted from 0.0 where it is negated (+0.0, not -0.0, for a zero row
    sum).  The forms fill one preallocated matrix from the last to the
    first, each over the cells it shares with the ones before, so the peak
    memory stays near the result's.  A row sum above 2**511 is a
    ParameterError.
    """
    if max(params.row_sums) > _MAX_ROW_SUM:
        raise ParameterError(
            f"row_sums: at most 2**511, got {max(params.row_sums)}")
    q = np.asarray(params.model.freqs.extended_probs)
    n = np.asarray(params.row_sums, dtype=float)
    theta = params.model.theta
    factor = 1.0 + (n - 1.0) * theta
    out = np.empty((len(n), len(q), len(n), len(q)))  # axes (i, a, j, b)
    # different profile, different category; every cell for now
    np.multiply(n[:, None, None, None], n[:, None], out=out)
    np.subtract(0.0, out, out=out)
    for x in (q[:, None, None], q, theta):
        np.multiply(out, x, out=out)
    # different profile, same category, one profile i at a time: numpy
    # would copy the whole a = b view to update it in place.  einsum with
    # no summed index returns a writeable view
    for i, n_i in enumerate(n):
        cells = np.einsum("aja->aj", out[i])
        np.multiply(n_i, n, out=cells)
        for x in (q[:, None], 1.0 - q[:, None], theta):
            np.multiply(cells, x, out=cells)
    # same profile, different category; every i = j cell for now
    cells = np.einsum("iaib->iab", out)
    np.subtract(0.0, n[:, None, None], out=cells)
    for x in (q[:, None], q, factor[:, None, None]):
        np.multiply(cells, x, out=cells)
    # same profile, same category
    cells = np.einsum("iaia->ia", out)
    np.multiply(n[:, None], q, out=cells)
    for x in (1.0 - q, factor[:, None]):
        np.multiply(cells, x, out=cells)
    return out.reshape(len(n) * len(q), len(n) * len(q))
