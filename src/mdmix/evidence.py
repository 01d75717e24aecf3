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
states share once per call, and gives the scalar values bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np

from .mdm import MdmParams, _suffix_sums, mdm_log_pmf
from .model import (
    AlleleFrequencies,
    CountTable,
    ParameterError,
    ProfileCounts,
    _as_int,
    _pool_mass,
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
    counts = [0] * n_categories
    for a in alleles:
        if not 0 <= a < n_categories:
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
        mult = tuple(sorted((int(m) for m in self.multiplicities),
                            reverse=True))
        if any(m < 2 for m in mult):
            raise ParameterError("multiplicities below 2 are not recorded")
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
        n_col = _as_int(self.n_col, "n_col")
        s_prev = _as_int(self.s_prev, "s_prev")
        contribs = _as_int(self.n_contributors, "n_contributors")
        if contribs < 1:
            raise ParameterError(f"n_contributors = {contribs} must be >= 1")
        if n_col < 0 or s_prev < 0:
            raise ParameterError(f"negative margin state ({n_col}, {s_prev})")
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
    a_pool = _woe_pool(q_scaled, theta, tail_mass)
    if a_pool == math.inf:  # theta = 0, or 1 + O(1 / a_pool) rounds to 1
        return 1.0
    return _woe_ratios([(margin.n_col, margin.remaining)], q_scaled,
                       q_scaled * a_pool, (1.0 - q_scaled) * a_pool)[0]


def _woe_ratios(keys, q_scaled: float, a_step, a_tail) -> list:
    """woe_step's cancelled products, unchecked, for each (n, rem) in keys:
    column count n of rem draws,

        prod_{1 <= k < n} (a_step + Q k) / (a_step + k)
        * prod_{j < rem - n} (a_tail + (1-Q)(n + j)) / (a_tail + j),

    multiplied left to right.  Step factors depend on k alone and tail
    factors on (n + j, j), so each factor and each running product is
    computed once per call and every value keeps the bits of a lone
    product, whatever the keys and their order.  a_step and a_tail are
    floats or equal-shape arrays; numpy's arithmetic is correctly rounded,
    so an array gives the bits of the scalar call at each entry."""
    step = [1.0, 1.0]  # step[n]: the product over k < n
    tails = {}  # tails[n][t]: step[n] times the first t tail factors
    out = []
    for n, rem in keys:
        while len(step) <= n:
            k = len(step) - 1
            step.append(step[k] * ((a_step + q_scaled * k) / (a_step + k)))
        run = tails.setdefault(n, [step[n]])
        while len(run) <= rem - n:
            j = len(run) - 1
            run.append(run[j] * ((a_tail + (1.0 - q_scaled) * (n + j))
                                 / (a_tail + j)))
        out.append(run[rem - n])
    return out


def woe_margin_grid(n_contributors: int = 2):
    """All feasible (n_col, s_prev) states for the given contributor count.

    Returns (state, correlation_free) pairs ordered by (n_col, s_prev).
    A state with at most one draw remaining cannot show any correlation
    and its step ratio is identically 1; those states are flagged True.
    """
    if n_contributors < 1:
        raise ParameterError(f"n_contributors = {n_contributors} must be >= 1")
    capacity = 2 * n_contributors
    out = []
    for n_col in range(capacity + 1):
        for s_prev in range(capacity - n_col + 1):
            state = MarginState(n_col=n_col, s_prev=s_prev,
                                n_contributors=n_contributors)
            out.append((state, s_prev >= capacity - 1))
    return out


def woe_curve(states, q_scaled: float, theta_grid,
              tail_mass: float = 1.0) -> np.ndarray:
    """Matrix of woe_step values, one row per state, one column per theta.

    One _woe_ratios call over the whole grid gives every row, so states
    with the same column count share their factors and running products;
    the values are woe_step's bit for bit.  Each theta goes through
    woe_step's checks in grid order, so bad input raises the error woe_step
    raises at the first theta where it would fail.
    """
    grid = list(theta_grid)
    out = np.ones((len(states), len(grid)))
    if not out.size:
        return out
    pools = [_woe_pool(q_scaled, theta, tail_mass) for theta in grid]
    # an index array: numpy converts a list index anew for every row
    live = np.array([k for k, a_pool in enumerate(pools)
                     if a_pool != math.inf], dtype=np.intp)
    a_pool = np.array(pools)[live]
    # Python floats never warn, so neither does this: a subnormal a_tail
    # can overflow a factor to inf in woe_step as here
    with np.errstate(all="ignore"):
        ratios = _woe_ratios([(s.n_col, s.remaining) for s in states],
                             q_scaled, q_scaled * a_pool,
                             (1.0 - q_scaled) * a_pool)
    for r, ratio in enumerate(ratios):
        out[r, live] = ratio
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


# each class's canonical pair as GenotypePair.carried gives it: the
# (allele, pooled count) pairs, multiplicities first and singletons next
_CANONICAL_PAIRS = (
    ((0, 4),),
    ((0, 3), (1, 1)),
    ((0, 2), (1, 2)),
    ((0, 2), (1, 1), (2, 1)),
    ((0, 1), (1, 1), (2, 1), (3, 1)),
)


def pair_ratio_curves(freqs: AlleleFrequencies, theta_grid):
    """One ratio curve per multiplicity class over the theta grid.

    Each class is evaluated on its canonical pair, which puts its
    multiplicities on the lowest-index alleles and its singletons on the
    next ones; a class that needs more alleles than there are is left out.
    Singletons cancel, so every pair with the same multiplicity-bearing
    alleles gives the same bits; `validate` checks this.

    The values are pair_ratio's bit for bit.  A theta outside [0, 1), and
    then one where q_a a. underflows, raises pair_ratio's error at the
    first such theta.  Each of pair_ratio's terms is built once per call as
    a column over the grid (log(a. + k), -log a., and -log(q_a a. + k) per
    allele some class counts twice), and each value is exp of math.fsum
    over the same multiset: fsum is exactly rounded, so the order of the
    terms does not change a bit.
    """
    grid = list(theta_grid)
    pools = list(map(_pool_mass, grid))
    live = [k for k, a_total in enumerate(pools) if a_total != math.inf]
    pools = [pools[k] for k in live]

    def log_column(values, k):
        """[log(v + k) for v in values]"""
        return list(map(math.log, map(float(k).__add__, values)))

    # alleles a canonical pair does not carry add nothing to pair_ratio's
    # sum; its last allele is its largest
    classes = [(MultiplicityClass(tuple(c for _, c in carried if c >= 2)),
                carried)
               for carried in _CANONICAL_PAIRS
               if carried[-1][0] < freqs.n_categories]
    head = [log_column(pools, k) for k in range(2 * GENOTYPE_SIZE)]
    neg_log_pool = list(map(operator.neg, head[0]))
    most = {}  # allele -> its largest count >= 2 in any class
    for _, carried in classes:
        for a, c in carried:
            if c >= 2:
                most[a] = max(c, most.get(a, 0))
    neg_log_step = {}  # allele -> columns -log(q_a a. + k) for k < most
    # least q_a first: if any q_a a. underflows to 0, the least one does
    for a in sorted(most, key=freqs.extended_probs.__getitem__):
        alpha = list(map(freqs.extended_probs[a].__mul__, pools))
        if 0.0 in alpha:
            raise ParameterError(f"theta = {grid[live[alpha.index(0.0)]]} "
                                 "makes alpha 0")
        neg_log_step[a] = [list(map(operator.neg, log_column(alpha, k)))
                           for k in range(most[a])]
    curves: dict[MultiplicityClass, np.ndarray] = {}
    for cls, carried in classes:
        columns = list(head)
        for a, c in carried:
            if c == 1:
                columns.append(neg_log_pool)
            else:
                columns.append(repeat(c * freqs.log_extended_probs[a]))
                columns += neg_log_step[a][:c]
        curves[cls] = curve = np.ones(len(grid))
        curve[live] = list(map(math.exp, map(math.fsum, zip(*columns))))
    return curves
