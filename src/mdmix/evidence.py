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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .mdm import MdmParams, _suffix_sums, mdm_log_pmf
from .model import (
    AlleleFrequencies,
    CountTable,
    ParameterError,
    ProfileCounts,
    _as_int,
    theta_to_alpha,
)

GENOTYPE_SIZE = 2


@dataclass(frozen=True)
class GenotypePair:
    """Two diploid profiles over the same categories."""

    first: ProfileCounts
    second: ProfileCounts
    n_categories: int = field(init=False, repr=False, compare=False)

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


def multiplicity_class(pair: GenotypePair) -> MultiplicityClass:
    """The class of a pair: pooled counts >= 2, largest first."""
    return MultiplicityClass(tuple(c for c in pair.pooled if c >= 2))


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
    if not 0.0 < q_scaled < 1.0:
        raise ParameterError(f"Q = {q_scaled} outside (0, 1)")
    if not 0.0 <= theta < 1.0:
        raise ParameterError(f"theta = {theta} outside [0, 1)")
    if not 0.0 < tail_mass <= 1.0:
        raise ParameterError(f"tail_mass = {tail_mass} outside (0, 1]")
    a_pool = tail_mass * (1.0 - theta) / theta if theta else math.inf
    if a_pool == math.inf:  # theta = 0, or 1 + O(1 / a_pool) rounds to 1
        return 1.0
    a_step = q_scaled * a_pool
    a_tail = (1.0 - q_scaled) * a_pool
    if a_tail == 0.0:
        raise ParameterError(
            f"tail_mass = {tail_mass} underflows at theta = {theta}")
    return _woe_ratio(margin.n_col, margin.remaining, q_scaled, a_step, a_tail)


def _woe_ratio(n: int, rem: int, q_scaled: float, a_step, a_tail):
    """woe_step's cancelled products for column count n of rem draws,
    unchecked.  a_step and a_tail are floats or equal-shape arrays; numpy's
    arithmetic is correctly rounded, so an array gives the bits of the
    scalar call at each entry."""
    ratio = 1.0
    for k in range(1, n):
        ratio = ratio * ((a_step + q_scaled * k) / (a_step + k))
    for j in range(rem - n):
        ratio = ratio * ((a_tail + (1.0 - q_scaled) * (n + j)) / (a_tail + j))
    return ratio


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

    Each state's row is one _woe_ratio call over the whole grid, bit for
    bit the woe_step values.  Bad input raises the error woe_step raises
    at the first state and the first theta where it would fail.
    """
    grid = np.array([float(t) for t in theta_grid])
    out = np.ones((len(states), len(grid)))
    if not out.size:
        return out
    # Python floats never warn, so neither does this: theta = +-0 and an
    # overflowing pool give woe_step's 1.0, and a subnormal a_tail can
    # overflow a factor to inf in woe_step as here
    with np.errstate(all="ignore"):
        a_pool = tail_mass * (1.0 - grid) / grid
        live = (grid != 0.0) & (a_pool != np.inf)
        a_tail = (1.0 - q_scaled) * a_pool
        bad = ~((0.0 <= grid) & (grid < 1.0)) | (live & (a_tail == 0.0))
        bad[0] |= not (0.0 < q_scaled < 1.0 and 0.0 < tail_mass <= 1.0)
        if bad.any():  # woe_step raises the first bad entry's error
            woe_step(states[0], q_scaled, float(grid[bad.argmax()]),
                     tail_mass=tail_mass)
        a_step, a_tail = q_scaled * a_pool[live], a_tail[live]
        for r, state in enumerate(states):
            out[r, live] = _woe_ratio(state.n_col, state.remaining, q_scaled,
                                      a_step, a_tail)
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
    of the alleles with pooled count >= 2.  Exactly 1 at theta = 0.
    """
    _check_pair_width(pair, freqs)
    theta = float(theta)
    if not 0.0 <= theta < 1.0:
        raise ParameterError(f"theta = {theta} outside [0, 1)")
    if theta == 0.0:
        return 1.0
    a_total = (1.0 - theta) / theta
    pooled = pair.pooled
    # one exactly rounded fsum over the whole term multiset, so pairs that
    # share multiplicity-bearing alleles agree bit for bit regardless of
    # where their singletons sit
    terms = [math.log(a_total + k) for k in range(2 * GENOTYPE_SIZE)]
    for q_a, log_q, c in compress(zip(freqs.extended_probs,
                                      freqs.log_extended_probs, pooled),
                                  pooled):
        if c == 1:
            # q_a / alpha_a reduces to 1 / a_total exactly
            terms.append(-math.log(a_total))
            continue
        terms.append(c * log_q)
        terms.extend(-math.log(q_a * a_total + k) for k in range(c))
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


_CANONICAL_PAIRS = (
    ((4,), ((0, 0), (0, 0))),
    ((3,), ((0, 0), (0, 1))),
    ((2, 2), ((0, 0), (1, 1))),
    ((2,), ((0, 0), (1, 2))),
    ((), ((0, 1), (2, 3))),
)


def pair_ratio_curves(freqs: AlleleFrequencies, theta_grid):
    """One ratio curve per multiplicity class over the theta grid.

    Each class is evaluated on its canonical pair, which puts its
    multiplicities on the lowest-index alleles and its singletons on the
    next ones; a class that needs more alleles than there are is left out.
    Singletons cancel, so every pair with the same multiplicity-bearing
    alleles gives the same bits; `validate` checks this.
    """
    grid = [float(t) for t in theta_grid]
    width = freqs.n_categories
    curves: dict[MultiplicityClass, np.ndarray] = {}
    for mult, alleles in _CANONICAL_PAIRS:
        if max(map(max, alleles)) >= width:
            continue
        pair = GenotypePair(*(genotype_from_alleles(g, width) for g in alleles))
        curves[MultiplicityClass(mult)] = np.asarray(
            [pair_ratio(pair, freqs, t) for t in grid])
    return curves
