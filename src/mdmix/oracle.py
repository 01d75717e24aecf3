"""Exhaustive enumeration, brute-force oracles, and an exact sampler.

Everything closed-form in this package can be cross-checked against plain
summation over the finite support: for fixed row sums the support is the
product of per-row compositions, of size prod_i C(n_i. + A - 1, A - 1).
Enumeration order is deterministic: row 1 varies slowest, and within a row
compositions descend lexicographically, (2,0), (1,1), (0,2).

The sampler draws the pooled allele sequence one trial at a time with urn
weights alpha_a + (previous draws of a) -- the plain q_a where alpha_total
is inf (theta = 0 or a quotient that overflows), where a trial bisects
their fixed running sums instead of scanning them -- and
deals the sequence into consecutive profile slots.  Urn sequences are
exchangeable, so given the pooled multiset every arrangement is equally
likely and the dealt table follows the joint law exactly.

The enumeration and the sampler build their tables with model._built_table,
which skips CountTable's checks of counts the library made itself.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

import numpy as np

from .mdm import MdmParams, mdm_log_pmf
from .model import (CountTable, ParameterError, SizeGuardError, SubsetSpec,
                    TableError, _as_int, _built_table, _check_shape)

MAX_TABLES = 10 ** 8


def count_tables(row_sums, n_categories: int) -> int:
    """Number of tables with the given row sums: prod_i C(n_i.+A-1, A-1)."""
    n_categories = _as_int(n_categories, "n_categories")
    if n_categories < 1:
        raise TableError("n_categories must be >= 1")
    total = 1
    for s in row_sums:
        s = _as_int(s, "row sum")
        if s < 0:
            raise TableError(f"row sum {s} is negative")
        total *= math.comb(s + n_categories - 1, n_categories - 1)
    return total


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # first cell descending, so (total, 0, ...) comes first
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _raw_tables(row_sums, parts: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not row_sums:
        yield ()
        return
    for head in _compositions(row_sums[0], parts):
        for rest in _raw_tables(row_sums[1:], parts):
            yield (head,) + rest


def enumerate_tables(row_sums, n_categories: int) -> Iterator[CountTable]:
    """Every table with the given row sums, exactly once, in a fixed order."""
    n = count_tables(row_sums, n_categories)
    if n > MAX_TABLES:
        raise SizeGuardError(
            f"{n} tables exceed the enumeration limit of {MAX_TABLES}"
        )
    rows = tuple(_as_int(s, "row sum") for s in row_sums)
    if not rows:
        raise TableError("a table needs at least one profile row")
    total = sum(rows)
    for counts in _raw_tables(rows, n_categories):
        yield _built_table(counts, rows, total)


def enumerate_tables_with_margins(row_sums, col_sums) -> Iterator[CountTable]:
    """Every table with both margins fixed, exactly once, in the order of
    `enumerate_tables`."""
    rows = tuple(_as_int(s, "row sum") for s in row_sums)
    cols = tuple(_as_int(s, "col sum") for s in col_sums)
    if any(s < 0 for s in rows) or any(s < 0 for s in cols):
        raise TableError("margins must be non-negative")
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
    return np.asarray(tables, dtype=np.int64), np.asarray(probs)


def oracle_pmf_sum(params: MdmParams) -> float:
    """Sum of exp(mdm_log_pmf) over the full support; should be 1."""
    return math.fsum(math.exp(mdm_log_pmf(t, params)) for t in
                     enumerate_tables(params.row_sums, params.n_categories))


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
    non-negative int.
    """

    algorithm = "pcg64-urn-deal-v1"

    def __init__(self, params: MdmParams, seed: int):
        try:
            self.seed = operator.index(seed)
            if isinstance(seed, bool) or self.seed < 0:
                raise TypeError
        except TypeError:
            raise ParameterError(
                f"seed: expected a non-negative int, got {seed!r}") from None
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
        self._rows = params.row_sums
        self._n_total = params.n_total
        self._width = params.n_categories

    def _uniforms(self, n: int) -> list[float]:
        """The next n uniforms of the stream, as Python floats."""
        return self._rng.random(n).tolist()

    def draw_counts(self) -> tuple[tuple[int, ...], ...]:
        """One table as a raw tuple matrix."""
        width = self._width
        weights = self._weights
        total_w = self._w_total
        uniforms = self._uniforms(self._n_total)
        if self._urn:
            # urn[b] is alpha_b plus the draws of b so far, formed as one sum
            extra = [0] * width
            urn = list(weights)
            seq = []
            for u in uniforms:
                pick = u * total_w
                acc = 0.0
                a = width - 1
                for b, w in enumerate(urn):
                    acc += w
                    if pick < acc:
                        a = b
                        break
                seq.append(a)
                extra[a] += 1
                urn[a] = weights[a] + extra[a]
                total_w += 1.0
        else:
            # the first b with pick < cum[b], as the urn scan finds it;
            # a pick at or past the last sum falls through to the last b
            cum = list(accumulate(weights))
            last = width - 1
            seq = [min(bisect_right(cum, u * total_w), last)
                   for u in uniforms]
        counts = []
        pos = 0
        for r in self._rows:
            row = [0] * width
            for a in seq[pos:pos + r]:
                row[a] += 1
            counts.append(tuple(row))
            pos += r
        return tuple(counts)

    def draw(self) -> CountTable:
        return _built_table(self.draw_counts(), self._rows, self._n_total)
