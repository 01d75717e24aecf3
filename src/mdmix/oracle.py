"""Exhaustive enumeration, brute-force oracles, and an exact sampler.

Everything closed-form in this package can be cross-checked against plain
summation over the finite support: for fixed row sums the support is the
product of per-row compositions, of size prod_i C(n_i. + A - 1, A - 1).
Enumeration order is deterministic: row 1 varies slowest, and within a row
compositions descend lexicographically, (2,0), (1,1), (0,2).

The sampler draws the pooled allele sequence one trial at a time with urn
weights alpha_a + (previous draws of a) and deals it into consecutive
profile slots as it goes, one pass per table.  A trial keeps the running
sums of the urn scan that no draw has changed since and bisects them; a
draw of a changes the sums from a on.  Where alpha_total is inf (theta = 0
or a quotient that overflows) the weights are the plain q_a.  The running
sums of the starting weights are built once per sampler.  Urn sequences
are exchangeable, so given the pooled multiset every arrangement is
equally likely and the dealt table follows the joint law exactly.

The enumeration and the sampler build their tables with model._built_table,
which skips CountTable's checks of counts the library made itself.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, product
from typing import Iterator

import numpy as np

from .mdm import MdmParams, mdm_log_pmf
from .model import (CountTable, ParameterError, SizeGuardError, SubsetSpec,
                    TableError, _as_count, _as_counts, _built_table,
                    _check_shape, _type_error)

MAX_TABLES = 10 ** 8
# MdmSampler holds a table's N uniforms at once, as Python floats of about
# 32 bytes each (the float and its list slot): 2**25 of them is 1 GiB
MAX_DRAW_TOTAL = 2 ** 25


def count_tables(row_sums, n_categories: int) -> int:
    """Number of tables with the given row sums: prod_i C(n_i.+A-1, A-1)."""
    width = _as_count(n_categories, "n_categories", least=1)
    return _n_tables(_as_counts(row_sums, "row_sums"), width)


def _n_tables(rows, width: int) -> int:
    return math.prod(math.comb(s + width - 1, width - 1) for s in rows)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # first cell descending, so (total, 0, ...) comes first
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_tables(row_sums, n_categories: int) -> Iterator[CountTable]:
    """Every table with the given row sums, exactly once, in a fixed order."""
    width = _as_count(n_categories, "n_categories", least=1)
    rows = _as_counts(row_sums, "row_sums")
    n = _n_tables(rows, width)
    if n > MAX_TABLES:
        raise SizeGuardError(
            f"{n} tables exceed the enumeration limit of {MAX_TABLES}"
        )
    if not rows:
        raise TableError("a table needs at least one profile row")
    total = sum(rows)
    for counts in product(*(_compositions(r, width) for r in rows)):
        yield _built_table(counts, rows, total)


def enumerate_tables_with_margins(row_sums, col_sums) -> Iterator[CountTable]:
    """Every table with both margins fixed, exactly once, in the order of
    `enumerate_tables`."""
    rows = _as_counts(row_sums, "row_sums")
    cols = _as_counts(col_sums, "col_sums")
    if not rows or not cols:
        raise TableError("margins must be non-empty")
    if sum(rows) != sum(cols):
        raise TableError(
            f"row sums total {sum(rows)}, column sums total {sum(cols)}"
        )
    for t in enumerate_tables(rows, len(cols)):
        if t.col_sums == cols:
            yield t


@lru_cache(maxsize=128)
def _support_and_probs(params: MdmParams):
    tables = []
    probs = []
    for t in enumerate_tables(params.row_sums, params.n_categories):
        tables.append(t.counts)
        probs.append(math.exp(mdm_log_pmf(t, params)))
    # numpy's own dtype: int64, or uint64 or object for a count past it
    return np.asarray(tables), np.asarray(probs)


def oracle_pmf_sum(params: MdmParams) -> float:
    """Sum of exp(mdm_log_pmf) over the full support; should be 1."""
    return math.fsum(_support_and_probs(params)[1])


def oracle_moment(order: CountTable, params: MdmParams) -> float:
    """E prod n_ia^(r_ia), the orders in a CountTable, by direct summation
    over the support."""
    tables, probs = _support_and_probs(params)
    weight = probs.copy()
    for i, row in enumerate(order.counts):
        for a, r in enumerate(row):
            cell = tables[:, i, a].astype(float)
            for k in range(r):
                weight *= cell - k
    return float(weight.sum())


def _matches(images: np.ndarray, table: CountTable) -> np.ndarray:
    # rows of the support whose image, of table's shape, equals table
    return (images == np.asarray(table.counts)).all(axis=(1, 2))


def oracle_marginal_over_alleles(params: MdmParams, keep: SubsetSpec,
                                 collapsed: CountTable) -> float:
    """P(kept columns and the collapsed remainder equal `collapsed`),
    by summing the full pmf over matching tables."""
    dropped = list(keep.complement(params.n_categories))
    _check_shape("collapsed", collapsed, params.n_profiles,
                 len(keep.indices) + 1)
    tables, probs = _support_and_probs(params)
    image = np.concatenate(
        [tables[:, :, list(keep.indices)],
         tables[:, :, dropped].sum(axis=2, keepdims=True)], axis=2)
    return math.fsum(probs[_matches(image, collapsed)])


def oracle_marginal_over_profiles(params: MdmParams, keep: SubsetSpec,
                                  sub_table: CountTable) -> float:
    """P(rows in `keep` equal `sub_table`), by summing the full pmf."""
    keep.validate_for(params.n_profiles)
    _check_shape("sub_table", sub_table, len(keep.indices),
                 params.n_categories)
    tables, probs = _support_and_probs(params)
    return math.fsum(probs[_matches(tables[:, list(keep.indices), :],
                                    sub_table)])


class MdmSampler:
    """Streaming exact sampler for one parameter set.

    Two samplers built with the same seed produce the same table sequence.
    Each table's uniforms come straight from numpy's PCG64 generator; the
    identifier below is recorded in CLI output metadata.  The seed is a
    non-negative int, and a table total above `MAX_DRAW_TOTAL` is refused
    with a `SizeGuardError`.

    Each trial takes the first category whose running urn sum exceeds u
    times the urn total, and the last one when none does.  A table is made
    in one pass: each trial bisects the running sums still valid from the
    trials before and scans on from there only when the pick lies past
    them, and its category is counted in its row and its column at once.
    """

    algorithm = "pcg64-urn-deal-v1"

    def __init__(self, params: MdmParams, seed: int):
        if not isinstance(params, MdmParams):
            raise _type_error(params, MdmParams, "params")
        if params.n_total > MAX_DRAW_TOTAL:
            raise SizeGuardError(f"row_sums: the total {params.n_total} is "
                                 f"above {MAX_DRAW_TOTAL}, the most one "
                                 "table draws")
        self.seed = _as_count(seed, "seed", error=ParameterError)
        self.params = params
        self._rng = np.random.Generator(np.random.PCG64(self.seed))
        model = params.model
        # alpha_total = inf draws from q itself, with no urn reinforcement
        self._urn = model.alpha_total != math.inf
        self._weights = list(model.alpha if self._urn
                             else model.freqs.extended_probs)
        try:
            self._w_total = math.fsum(self._weights)
        except OverflowError:
            raise ParameterError(f"theta = {model.theta}: the urn weights "
                                 "sum past the largest float") from None
        # the running sums of the weights through every category but the
        # last, which takes a pick at or past them all: fixed at
        # alpha_total = inf, and where each table's urn starts otherwise
        self._cum = list(accumulate(self._weights[:-1]))
        self._rows = params.row_sums
        self._n_total = params.n_total
        self._width = params.n_categories

    def _uniforms(self, n: int) -> list[float]:
        """The next n uniforms of the stream, as Python floats."""
        return self._rng.random(n).tolist()

    def _table(self) -> tuple[tuple, tuple[int, ...]]:
        """One table and its column sums, each row dealt as it is drawn."""
        width = self._width
        last = width - 1
        total_w = self._w_total
        uniforms = self._uniforms(self._n_total)
        counts = []
        cols = [0] * width
        pos = 0
        if self._urn:
            weights = self._weights
            # urn[b] is alpha_b plus the draws of b so far, formed as one
            # sum; cum[b] is the scan's running sum through urn[b], current
            # for b < valid.  cum[last] is never written, so cum[-1] is the
            # 0.0 a scan from category 0 starts at
            urn = list(weights)
            cum = self._cum + [0.0]
            valid = last
            for r in self._rows:
                row = [0] * width
                for u in uniforms[pos:pos + r]:
                    pick = u * total_w
                    if pick < cum[valid - 1]:
                        a = bisect_right(cum, pick, 0, valid)
                    else:
                        # the first b with pick < the sum through urn[b];
                        # a pick at or past them all falls to the last b
                        a = valid
                        acc = cum[a - 1]
                        while a < last:
                            acc += urn[a]
                            cum[a] = acc
                            if pick < acc:
                                break
                            a += 1
                    # only the sums from a onward hold urn[a]
                    valid = a
                    row[a] += 1
                    cols[a] += 1
                    urn[a] = weights[a] + cols[a]
                    total_w += 1.0
                counts.append(tuple(row))
                pos += r
        else:
            cum = self._cum
            for r in self._rows:
                row = [0] * width
                for u in uniforms[pos:pos + r]:
                    a = bisect_right(cum, u * total_w)
                    row[a] += 1
                    cols[a] += 1
                counts.append(tuple(row))
                pos += r
        return tuple(counts), tuple(cols)

    def draw_counts(self) -> tuple[tuple[int, ...], ...]:
        """One table as a raw tuple matrix."""
        return self._table()[0]

    def draw(self) -> CountTable:
        counts, cols = self._table()
        return _built_table(counts, self._rows, self._n_total, cols)
