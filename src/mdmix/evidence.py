"""Weight-of-evidence ratios for two-contributor genotype pairs.

The quantity of interest is the ratio of the independence model to the
theta-corrected joint model,

    ratio = P_mult(n_i) P_mult(n_j) / P_joint(n_i, n_j),

which factors over the allele chain into per-step terms

    woe(n, s; Q, theta) = Q^n (1-Q)^(C-s-n)
        / [ B-ratio(n, C-s; Q a_pool, (1-Q) a_pool) ],

with C the pooled capacity (4 for two diploid genotypes) and a_pool the
pooled Dirichlet mass at that step.  In the first-step convention
a_pool = (1 - theta) / theta; an interior chain step scales it by the
remaining tail mass, exposed here as the tail_mass argument.

Alleles observed exactly once cancel out of the ratio, so a genotype pair
is summarized by its multiplicity class: the multiset of pooled counts
that reach 2, together with which alleles carry them.

The curve builders woe_curve and pair_ratio_curves evaluate woe_step and
pair_ratio over a theta grid.  Each computes a term that its points or
states share once per call, in whole arrays over the grid, and a term that
depends on the grid alone once per distinct grid; each gives the scalar
values bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, repeat

import numpy as np

from .mdm import MdmParams, mdm_log_pmf
from .model import (
    AlleleFrequencies,
    CountTable,
    ParameterError,
    ProfileCounts,
    _FLOAT,
    _as_count,
    _as_counts,
    _as_items,
    _as_real,
    _pool_mass,
    _suffix_sums,
    _type_error,
    theta_to_alpha,
)

GENOTYPE_SIZE = 2


@dataclass(frozen=True)
class GenotypePair:
    """Two diploid profiles over the same categories.

    carried lists the (allele, pooled count) pairs with a count above 0, in
    allele order: at most four, whatever the number of categories.
    """

    first: ProfileCounts
    second: ProfileCounts
    n_categories: int = field(init=False, repr=False, compare=False)
    carried: tuple[tuple[int, int], ...] = field(init=False, repr=False,
                                                  compare=False)

    def __post_init__(self):
        for name, prof in (("first", self.first), ("second", self.second)):
            if prof.n_total != GENOTYPE_SIZE:
                raise ParameterError(
                    f"{name} profile has {prof.n_total} alleles, a genotype "
                    f"has {GENOTYPE_SIZE}"
                )
        if self.first.n_categories != self.second.n_categories:
            raise ParameterError("profiles span different category counts")
        object.__setattr__(self, "n_categories", self.first.n_categories)
        pooled = self.pooled
        object.__setattr__(self, "carried",
                           tuple(compress(enumerate(pooled), pooled)))

    @property
    def pooled(self) -> tuple[int, ...]:
        return tuple(map(operator.add, self.first.counts,
                         self.second.counts))


def genotype_from_alleles(alleles, n_categories: int) -> ProfileCounts:
    """Build a genotype profile from two 0-based allele indices."""
    n_categories = _as_count(n_categories, "n_categories", 1, ParameterError)
    counts = [0] * n_categories
    for a in _as_counts(alleles, "alleles", error=ParameterError):
        if a >= n_categories:
            raise ParameterError(f"allele index {a} out of range")
        counts[a] += 1
    prof = ProfileCounts(tuple(counts))
    if prof.n_total != GENOTYPE_SIZE:
        raise ParameterError("a genotype needs exactly two allele indices")
    return prof


@dataclass(frozen=True)
class MultiplicityClass:
    """Pooled counts that reach 2, as a descending multiset.

    Singleton alleles cancel from the ratio and are abstracted away; for a
    two-genotype pool the total multiplicity never exceeds 4, so the
    possible classes are (), (2), (2,2), (3), (4).
    """

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        mult = tuple(sorted(_as_counts(self.multiplicities, "multiplicities",
                                       2, ParameterError), reverse=True))
        if sum(mult) > 2 * GENOTYPE_SIZE:
            raise ParameterError(
                f"multiplicities {mult} exceed the pooled total "
                f"{2 * GENOTYPE_SIZE}"
            )
        object.__setattr__(self, "multiplicities", mult)

    @property
    def label(self) -> str:
        return "(" + ",".join(str(m) for m in self.multiplicities) + ")"


@dataclass(frozen=True)
class MarginState:
    """A pooled chain margin: column count n_col after s_prev earlier draws
    by n_contributors diploid profiles, so the capacity is 2 n_contributors.
    """

    n_col: int
    s_prev: int
    n_contributors: int

    def __post_init__(self):
        n_col = _as_count(self.n_col, "n_col", error=ParameterError)
        s_prev = _as_count(self.s_prev, "s_prev", error=ParameterError)
        contribs = _as_count(self.n_contributors, "n_contributors", 1,
                             ParameterError)
        capacity = GENOTYPE_SIZE * contribs
        if n_col + s_prev > capacity:
            raise ParameterError(
                f"margin state ({n_col}, {s_prev}) exceeds capacity {capacity}"
            )
        object.__setattr__(self, "n_col", n_col)
        object.__setattr__(self, "s_prev", s_prev)
        object.__setattr__(self, "n_contributors", contribs)

    @property
    def remaining(self) -> int:
        """Draws still to be placed before this column is counted."""
        return GENOTYPE_SIZE * self.n_contributors - self.s_prev


def _woe_pool(q_scaled: float, theta: float, tail_mass: float) -> float:
    """woe_step's checks in order (Q, theta, tail_mass, then an a_tail that
    underflows to 0), and its pooled mass: inf where the ratio is 1."""
    if not 0.0 < q_scaled < 1.0:
        raise ParameterError(f"Q = {q_scaled} outside (0, 1)")
    a_pool = _pool_mass(theta, tail_mass)
    if not 0.0 < tail_mass <= 1.0:
        raise ParameterError(f"tail_mass = {tail_mass} outside (0, 1]")
    if (1.0 - q_scaled) * a_pool == 0.0:
        raise ParameterError(
            f"tail_mass = {tail_mass} underflows at theta = {theta}")
    return a_pool


def woe_step(margin: MarginState, q_scaled: float, theta: float,
             tail_mass: float = 1.0) -> float:
    """One chain step of the independence-to-joint ratio.

    q_scaled is the step's success probability Q; tail_mass rescales the
    pooled Dirichlet mass for interior chain steps (1.0 is the first-step
    convention).  Exactly 1 at theta = 0, and exactly 1 with at most one
    draw remaining, where the beta-binomial collapses to Bernoulli(Q).
    Q^n (1-Q)^(rem-n) cancels against the rising products factor by factor,
    so nothing cancels numerically as a_pool = (1-theta)/theta grows.
    """
    if not isinstance(margin, MarginState):
        raise _type_error(margin, MarginState, "margin")
    q_scaled = _as_real(q_scaled, "Q")
    tail_mass = _as_real(tail_mass, "tail_mass")
    a_pool = _woe_pool(q_scaled, theta, tail_mass)
    if a_pool == math.inf:  # theta = 0, or 1 + O(1 / a_pool) rounds to 1
        return 1.0
    # column count n of rem draws: the cancelled products
    #     prod_{1 <= k < n} (a_step + Q k) / (a_step + k)
    #     * prod_{j < rem - n} (a_tail + (1-Q)(n + j)) / (a_tail + j),
    # multiplied left to right; woe_curve forms them over a grid in whole
    # arrays
    a_step, a_tail = q_scaled * a_pool, (1.0 - q_scaled) * a_pool
    n = margin.n_col
    ratio = 1.0
    for k in range(1, n):
        ratio *= (a_step + q_scaled * k) / (a_step + k)
    for j in range(margin.remaining - n):
        ratio *= (a_tail + (1.0 - q_scaled) * (n + j)) / (a_tail + j)
    return ratio


def woe_margin_grid(n_contributors: int = 2):
    """All feasible (n_col, s_prev) states for the given contributor count.

    Returns (state, correlation_free) pairs ordered by (n_col, s_prev).
    A state with at most one draw remaining cannot show any correlation
    and its step ratio is identically 1; those states are flagged True.
    """
    n_contributors = _as_count(n_contributors, "n_contributors", 1,
                               ParameterError)
    capacity = 2 * n_contributors
    out = []
    for n_col in range(capacity + 1):
        for s_prev in range(capacity - n_col + 1):
            state = MarginState(n_col=n_col, s_prev=s_prev,
                                n_contributors=n_contributors)
            out.append((state, s_prev >= capacity - 1))
    return out


# doubles in one block of woe_curve's rows: it works through the grid a
# block of columns at a time, so a block stays in cache and no temporary
# grows with the grid
_WOE_BLOCK_CELLS = 2 ** 16

# the fields of a MarginState, which fix its row in woe_curve
_MARGIN_FIELDS = operator.attrgetter("n_col", "s_prev", "n_contributors")


# cached: callers pass the same states again and again, one call per Q
@lru_cache(maxsize=64)
def _woe_layout(keys):
    """The layout of woe_curve's rows for the (n_col, s_prev,
    n_contributors) keys of its states.

    Rows 0 to n_steps - 1 hold step(0), step(1), ...: the running products
    of the step factors.  Groups t = 1, 2, ... follow, and row (n, t) holds
    step(n) times the first t tail factors of column count n; a state of
    count n and rem draws reads row (n, rem - n), or row n where rem = n.
    In each group the counts with the longest runs of tail factors come
    first, so group t extends the first rows of group t - 1 (of the step
    rows for t = 1) by one factor, (a_tail + (1-Q) m) / (a_tail + t - 1)
    with m = n + t - 1.

    Returns each state's row and n_steps; the column 0, 1, 2, ... that k,
    m and t - 1 are read from, up to the last m, and how many of its rows
    the denominators read, up to the last k or t - 1; for each group the
    rows it extends, its own rows and its m (slices where they are
    consecutive); and the number of rows.  The arrays are read-only."""
    runs = [(n, GENOTYPE_SIZE * contribs - s_prev - n)
            for n, s_prev, contribs in keys]
    longest = {}  # column count -> its longest run of tail factors
    for n, t in runs:
        longest[n] = max(t, longest.get(n, 0))
    counts = sorted(longest, key=longest.__getitem__, reverse=True)
    n_steps = max(2, max(counts) + 1)  # rows step(0), step(1), ...
    firsts = [0, n_steps]  # the first row of each group
    prev = counts  # the rows that group t extends: step(n) is row n
    groups = []
    for t in range(1, longest[counts[0]] + 1):
        size = sum(run >= t for run in longest.values())
        here = slice(firsts[-1], firsts[-1] + size)
        groups.append((_as_slice(prev[:size]), here,
                       _as_slice([n + t - 1 for n in counts[:size]])))
        prev = range(here.start, here.stop)
        firsts.append(here.stop)
    order = {n: i for i, n in enumerate(counts)}
    picks = [firsts[t] + order[n] if t else n for n, t in runs]
    picks = np.array(picks, dtype=np.intp)
    column = np.arange(max(n + t for n, t in runs), dtype=float)[:, None]
    picks.flags.writeable = column.flags.writeable = False  # shared by calls
    return (picks, n_steps, column, max(n_steps - 1, len(groups)), groups,
            firsts[-1])


def _as_slice(rows):
    """rows as a slice where they are consecutive and ascending."""
    rows = list(rows)
    if rows == list(range(rows[0], rows[0] + len(rows))):
        return slice(rows[0], rows[0] + len(rows))
    return np.array(rows, dtype=np.intp)


# the distinct grids whose own work each curve builder keeps: the callers
# seen build every curve of a process on one grid
_GRID_CACHE_SIZE = 4


def _per_grid(build, grid, *args):
    """build(grid, *args), from build's cache for a grid of exact floats
    only: False and np.False_ equal 0.0 and hash alike, so a lookup would
    take them for 0.0, though _as_real refuses them.  An error is never
    cached, so a bad grid raises it again on every call."""
    if _FLOAT.issuperset(map(type, grid)):
        return build(grid, *args)
    return build.__wrapped__(grid, *args)


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _woe_pools(grid, tail_mass):
    """woe_curve's read-only a. at each theta, its least value (inf for no
    theta) and the read-only mask where a. = inf, or None for nowhere."""
    a_pool = np.array(list(map(_pool_mass, grid, repeat(tail_mass))))
    limit = a_pool == math.inf  # theta = 0, or (1 - theta) / theta overflows
    a_pool.flags.writeable = limit.flags.writeable = False
    return a_pool, a_pool.min(initial=math.inf), limit if limit.any() else None


def woe_curve(states, q_scaled: float, theta_grid,
              tail_mass: float = 1.0) -> np.ndarray:
    """Matrix of woe_step values, one row per state, one column per theta.

    The grid is checked through _pool_mass, with one test of the tail mass
    for underflow; only if a check fails are woe_step's checks rerun theta
    by theta, so bad input raises woe_step's error at the first theta where
    it would fail; Q and tail_mass are checked even with no state or theta.
    a. is formed once per distinct grid and tail mass, when every theta is
    an exact float: a cache keeps the a. of the last 4, their least value
    and the mask of a. = inf (90 KB at 10,001 points, and the grid).  Then,
    a block of grid columns at a time, one product forms a_step and a_tail
    from a., one add their numerators over each k and distinct m and one
    their denominators; one divide forms the step factors and one
    accumulate their running products, then each group of tail factors
    takes one divide of its numerators by its denominator and one product
    on.  Each product is formed left to right as in woe_step with
    correctly rounded numpy arithmetic, so the values are woe_step's bit
    for bit.  Memory beyond the output and the cache stays bounded
    whatever the grid.
    """
    states = _as_items(states, "states", "MarginState")
    for k, state in enumerate(states):
        if not isinstance(state, MarginState):
            raise _type_error(state, MarginState, f"states[{k}]")
    grid = _as_items(theta_grid, "theta_grid", "float")
    q_scaled = _as_real(q_scaled, "Q")
    tail_mass = _as_real(tail_mass, "tail_mass")
    try:
        a_pool, least, limit = _per_grid(_woe_pools, grid, tail_mass)
        checked = (0.0 < q_scaled < 1.0 and 0.0 < tail_mass <= 1.0
                   and (1.0 - q_scaled) * least != 0.0)
    except Exception:  # raised again below, unless an earlier check fails
        checked = False
    if not checked:
        # theta = 0 stands in for an empty grid: it checks Q and tail_mass
        for theta in grid or (0.0,):
            _woe_pool(q_scaled, theta, tail_mass)
    out = np.empty((len(states), len(grid)))
    if not out.size:
        return out
    picks, n_steps, column, n_den, groups, n_rows = _woe_layout(
        tuple(map(_MARGIN_FIELDS, states)))
    # a. times scale is the rows a_step and a_tail; scaled is q k, (1-Q) m
    scale = np.array([[[q_scaled]], [[1.0 - q_scaled]]])
    scaled, steps = scale * column, slice(1, n_steps - 1)
    width = max(1, _WOE_BLOCK_CELLS // (2 * len(column) + n_rows
                                        + len(states)))
    # Python floats never warn, so neither does this: a subnormal a_tail
    # can overflow a factor to inf in woe_step as here, and the columns
    # where a_pool = inf (the ratio is 1 there) are nan until set below
    with np.errstate(all="ignore"):
        for lo in range(0, len(grid), width):
            cols = slice(lo, lo + width)
            rows = np.empty((n_rows, len(a_pool[cols])))
            rows[:2] = 1.0
            pools = scale * a_pool[cols]
            numer = pools + scaled
            denom = pools + column[:n_den]
            np.divide(numer[0, steps], denom[0, steps], out=rows[2:n_steps])
            np.multiply.accumulate(rows[:n_steps], axis=0,
                                   out=rows[:n_steps])
            for den, (prev, here, m) in zip(denom[1], groups):
                np.divide(numer[1, m], den, out=rows[here])
                rows[here] *= rows[prev]
            out[:, cols] = rows[picks]
    if limit is not None:
        np.copyto(out, 1.0, where=limit)
    return out


def _check_pair_width(pair: GenotypePair, freqs: AlleleFrequencies) -> None:
    if pair.n_categories != freqs.n_categories:
        raise ParameterError(
            f"pair spans {pair.n_categories} categories, frequencies have "
            f"{freqs.n_categories}"
        )


def pair_ratio(pair: GenotypePair, freqs: AlleleFrequencies,
               theta: float) -> float:
    """Independence-to-joint probability ratio for a genotype pair.

    Computed from the reduced closed form in which singleton alleles cancel
    structurally, so the value depends only on theta and on the frequencies
    of the alleles with pooled count >= 2.  With a. = (1 - theta) / theta it
    is exp of one exactly rounded fsum over the term multiset

        log(a. + k) for k < 4;  -log a. per singleton;
        c log q_a and -log(q_a a. + k) for k < c per allele of count c >= 2.

    Exactly 1 at theta = 0 and wherever a. overflows; a ParameterError
    where q_a a. underflows to 0 for an allele of count >= 2.
    """
    _check_pair_width(pair, freqs)
    a_total = _pool_mass(theta)
    if a_total == math.inf:
        return 1.0
    # one exactly rounded fsum over the whole term multiset, so pairs that
    # share multiplicity-bearing alleles agree bit for bit regardless of
    # where their singletons sit
    terms = [math.log(a_total), math.log(a_total + 1),
             math.log(a_total + 2), math.log(a_total + 3)]
    # q_a / alpha_a reduces to 1 / a_total exactly for a singleton
    singleton = -terms[0]
    for a, c in pair.carried:
        if c == 1:
            terms.append(singleton)
            continue
        alpha = freqs.extended_probs[a] * a_total
        if not alpha:
            raise ParameterError(f"theta = {theta} makes alpha 0")
        terms.append(c * freqs.log_extended_probs[a])
        terms += [-math.log(alpha + k) for k in range(c)]
    return math.exp(math.fsum(terms))


def pair_ratio_via_pmfs(pair: GenotypePair, freqs: AlleleFrequencies,
                        theta: float) -> float:
    """The same ratio from full pmf evaluations (independent code path)."""
    _check_pair_width(pair, freqs)
    rows = (GENOTYPE_SIZE, GENOTYPE_SIZE)
    table = CountTable((pair.first.counts, pair.second.counts))
    log_num = mdm_log_pmf(table, MdmParams(rows, theta_to_alpha(freqs, 0.0)))
    log_den = mdm_log_pmf(table, MdmParams(rows, theta_to_alpha(freqs, theta)))
    return math.exp(log_num - log_den)


def pair_ratio_via_steps(pair: GenotypePair, freqs: AlleleFrequencies,
                         theta: float) -> float:
    """The same ratio as the product of woe_step values along the chain."""
    _check_pair_width(pair, freqs)
    q = freqs.extended_probs
    suffix = _suffix_sums(q)
    pooled = pair.pooled
    acc = 1.0
    s_prev = 0
    for a in range(len(q) - 1):
        margin = MarginState(n_col=pooled[a], s_prev=s_prev, n_contributors=2)
        acc *= woe_step(margin, q[a] / suffix[a], theta,
                        tail_mass=min(suffix[a], 1.0))
        s_prev += pooled[a]
    return acc


def enumerate_genotype_pairs(n_categories: int):
    """Every unordered pair of genotypes over the categories."""
    genotypes = [genotype_from_alleles((a, b), n_categories)
                 for a in range(n_categories)
                 for b in range(a, n_categories)]
    for gi in range(len(genotypes)):
        for gj in range(gi, len(genotypes)):
            yield GenotypePair(genotypes[gi], genotypes[gj])


# each class with its canonical pair as GenotypePair.carried gives it: the
# (allele, pooled count) pairs, multiplicities first and singletons next
_CANONICAL_PAIRS = tuple(
    (MultiplicityClass(tuple(c for _, c in carried if c >= 2)), carried)
    for carried in (((0, 4),),
                    ((0, 3), (1, 1)),
                    ((0, 2), (1, 2)),
                    ((0, 2), (1, 1), (2, 1)),
                    ((0, 1), (1, 1), (2, 1), (3, 1))))


def _log_column(values, k):
    """[log(v + k) for v in values]"""
    return list(map(math.log, map(float(k).__add__, values)))


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _ratio_grid(grid):
    """pair_ratio_curves' columns that depend on the grid alone: the
    positions of the thetas where a. is finite, a. there, log a. there and
    -log(a. + k) for k < 4 there."""
    pools = list(map(_pool_mass, grid))
    live = tuple(k for k, a_total in enumerate(pools) if a_total != math.inf)
    pools = tuple(pools[k] for k in live)
    logs = [_log_column(pools, k) for k in range(2 * GENOTYPE_SIZE)]
    neg = tuple(tuple(map(operator.neg, log)) for log in logs)
    return live, pools, tuple(logs[0]), neg


def pair_ratio_curves(freqs: AlleleFrequencies, theta_grid):
    """One ratio curve per multiplicity class over the theta grid.

    Each class is evaluated on its canonical pair, which puts its
    multiplicities on the lowest-index alleles and its singletons on the
    next ones; a class that needs more alleles than there are is left out.
    Singletons cancel, so every pair with the same multiplicity-bearing
    alleles gives the same bits; `validate` checks this.

    The values are pair_ratio's bit for bit.  A theta outside [0, 1), and
    then one where q_a a. underflows, raises pair_ratio's error at the
    first such theta.  Each of pair_ratio's terms is built, negated, as a
    column over the grid: -log(a. + k) for k < 4 and log a., with a. and
    where it is finite, once per distinct grid of exact floats (a cache
    keeps the last 4, 2.3 MB each at 10,001 points, and the grid), and
    log(q_a a. + k), per allele some class counts twice, once per call.
    Each value is exp(-s), s the fsum of the negated multiset less one
    -log a. and one singleton's log a., which sum to exactly 0: fsum is
    exactly rounded and odd, so s is -fsum of pair_ratio's terms to the
    bit, in any order.  The curves are the rows of one array.
    """
    if not isinstance(freqs, AlleleFrequencies):
        raise _type_error(freqs, AlleleFrequencies, "freqs")
    grid = _as_items(theta_grid, "theta_grid", "float")
    live, pools, log_pool, neg_head = _per_grid(_ratio_grid, grid)
    # alleles a canonical pair does not carry add nothing to pair_ratio's
    # sum; its last allele is its largest
    classes = [(cls, carried) for cls, carried in _CANONICAL_PAIRS
               if carried[-1][0] < freqs.n_categories]
    most = {}  # allele -> its largest count >= 2 in any class
    for _, carried in classes:
        for a, c in carried:
            if c >= 2:
                most[a] = max(c, most.get(a, 0))
    log_step = {}  # allele -> columns log(q_a a. + k) for k < most
    # least q_a first: if any q_a a. underflows to 0, the least one does
    for a in sorted(most, key=freqs.extended_probs.__getitem__):
        alpha = list(map(freqs.extended_probs[a].__mul__, pools))
        if 0.0 in alpha:
            raise ParameterError(f"theta = {grid[live[alpha.index(0.0)]]} "
                                 "makes alpha 0")
        log_step[a] = [_log_column(alpha, k) for k in range(most[a])]
    values = []
    for _, carried in classes:
        singletons = sum(c == 1 for _, c in carried)
        columns = (list(neg_head[1:]) + [log_pool] * (singletons - 1)
                   if singletons else list(neg_head))
        for a, c in carried:
            if c >= 2:
                columns.append(repeat(-c * freqs.log_extended_probs[a]))
                columns += log_step[a][:c]
        values.append([math.exp(-math.fsum(terms)) for terms in zip(*columns)])
    curves = np.ones((len(classes), len(grid)))
    curves[:, live] = values
    return dict(zip([cls for cls, _ in classes], curves))
