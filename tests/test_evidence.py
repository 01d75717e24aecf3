# SPDX-License-Identifier: Apache-2.0
"""Evidence-weight ratios for two-contributor genotype pairs."""

from __future__ import annotations

import math
import operator
import os
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields
from itertools import compress
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mdmix.evidence
import mdmix.validation
from mdmix import (AlleleFrequencies, CountTable, GenotypePair, MdmParams,
                   MultiplicityClass, ParameterError, ProfileCounts,
                   genotype_from_alleles, mdm_log_pmf, pair_ratio,
                   pair_ratio_curves, pair_ratio_via_pmfs,
                   pair_ratio_via_steps, theta_to_alpha, woe_curve,
                   woe_margin_grid, woe_step)
from mdmix.evidence import MarginState, enumerate_genotype_pairs
from mdmix.logspace import _Memo
from mdmix.mdm import _log_step
from mdmix.model import _chain_steps

# a six-category reference panel: five named alleles and a rest class
PANEL = AlleleFrequencies((0.025, 0.05, 0.1, 0.2, 0.4))

THETA_GRID = tuple(k / 100.0 for k in range(0, 51))

# each class's pair with its multiplicities on the lowest-index alleles
CANONICAL = {"(4)": ((0, 0), (0, 0)), "(3)": ((0, 0), (0, 1)),
             "(2,2)": ((0, 0), (1, 1)), "(2)": ((0, 0), (1, 2)),
             "()": ((0, 1), (2, 3))}


def pair_of(first, second, width=6):
    return GenotypePair(genotype_from_alleles(first, width),
                        genotype_from_alleles(second, width))


# ---------------------------------------------------------------------------
# genotype containers


def test_genotype_from_alleles_counts_both_slots():
    assert genotype_from_alleles((0, 0), 3).counts == (2, 0, 0)
    assert genotype_from_alleles((2, 0), 3).counts == (1, 0, 1)
    with pytest.raises(ParameterError):
        genotype_from_alleles((0, 3), 3)
    with pytest.raises(ParameterError):
        genotype_from_alleles((0,), 3)


def test_genotype_pair_requires_two_draws_each():
    with pytest.raises(ParameterError):
        GenotypePair(ProfileCounts((1, 0)), ProfileCounts((1, 1)))
    with pytest.raises(ParameterError):
        GenotypePair(ProfileCounts((1, 1)), ProfileCounts((1, 1, 0)))


def test_pooled_counts():
    pair = pair_of((0, 1), (0, 0), width=3)
    assert pair.pooled == (3, 1, 0)


def test_multiplicity_class_labels():
    assert MultiplicityClass(()).label == "()"
    assert MultiplicityClass((2, 2)).label == "(2,2)"
    with pytest.raises(ParameterError):
        MultiplicityClass((3, 1))
    with pytest.raises(ParameterError):
        MultiplicityClass((3, 2))


# ---------------------------------------------------------------------------
# single chain steps


def test_woe_step_spot_values():
    # Q = 0.1, theta = 0.1: a fresh singleton column is more likely under
    # the joint model, a fresh doubleton less
    assert woe_step(MarginState(1, 0, 2), 0.1, 0.1) == \
        pytest.approx(1.2925688173212877, rel=1e-15)
    assert woe_step(MarginState(2, 0, 2), 0.1, 0.1) == \
        pytest.approx(0.7634470792365525, rel=1e-15)


def test_woe_step_is_exactly_one_at_theta_zero():
    for state, _ in woe_margin_grid():
        assert woe_step(state, 0.37, 0.0) == 1.0


def test_woe_step_is_exactly_one_with_one_draw_left():
    for state, flagged in woe_margin_grid():
        if flagged:
            assert woe_step(state, 0.2, 0.3) == 1.0


def test_woe_step_matches_split_enumeration():
    # the ratio of independent binomials to the pooled step mass must not
    # depend on how the margin splits across the two profiles
    def split_ratios(n, s, q, theta):
        a_pool = (1.0 - theta) / theta
        a_step, a_tail = q * a_pool, (1.0 - q) * a_pool
        record = _chain_steps((a_step, a_tail), 1.0,
                              (_Memo(a_step), _Memo(a_tail)))[0]
        out = []
        for n_i in range(min(n, 2) + 1):
            for s_i in range(min(s, 2) + 1):
                n_j, s_j = n - n_i, s - s_i
                if not (0 <= n_j <= 2 and 0 <= s_j <= 2):
                    continue
                if n_i + s_i > 2 or n_j + s_j > 2:
                    continue
                num = (math.comb(2 - s_i, n_i) * q ** n_i
                       * (1 - q) ** (2 - s_i - n_i)
                       * math.comb(2 - s_j, n_j) * q ** n_j
                       * (1 - q) ** (2 - s_j - n_j))
                den = math.exp(_log_step(
                    record, (n_i, n_j), n, (2 - s_i, 2 - s_j), 4 - s))
                out.append(num / den)
        return out

    for q in (0.025, 0.1, 0.4):
        for theta in (0.03, 0.1, 0.3):
            for state, flagged in woe_margin_grid():
                if flagged:
                    continue
                ratios = split_ratios(state.n_col, state.s_prev, q, theta)
                direct = woe_step(state, q, theta)
                assert ratios, (state, q, theta)
                for r in ratios:
                    assert direct == pytest.approx(r, rel=1e-12)


def test_woe_step_singleton_always_favours_independence():
    for q in (0.01, 0.1, 0.3, 0.5):
        for theta in (0.01, 0.1, 0.3, 0.5):
            for s in range(4):
                assert woe_step(MarginState(1, s, 2), q, theta) >= 1.0


def test_woe_step_repeats_favour_the_joint_model():
    for theta in (0.01, 0.1, 0.3, 0.5):
        for state, flagged in woe_margin_grid():
            if flagged or state.n_col < 2:
                continue
            assert woe_step(state, 0.025, theta) < 1.0


def test_woe_step_tail_mass_rescales_the_pool():
    base = woe_step(MarginState(2, 1, 2), 0.2, 0.1)
    interior = woe_step(MarginState(2, 1, 2), 0.2, 0.1, tail_mass=0.6)
    assert interior != base


def test_woe_step_rejects_out_of_range_inputs():
    state = MarginState(1, 0, 2)
    with pytest.raises(ParameterError):
        woe_step(state, 0.0, 0.1)
    with pytest.raises(ParameterError):
        woe_step(state, 0.1, 1.0)
    with pytest.raises(ParameterError):
        woe_step(state, 0.1, 0.1, tail_mass=0.0)


# ---------------------------------------------------------------------------
# the margin grid


def test_margin_grid_size_and_flags():
    grid = woe_margin_grid()
    assert len(grid) == 15
    flagged = [state for state, f in grid if f]
    assert len(flagged) == 3
    assert {(s.n_col, s.s_prev) for s in flagged} == {(0, 3), (1, 3), (0, 4)}


def test_margin_grid_is_ordered():
    keys = [(s.n_col, s.s_prev) for s, _ in woe_margin_grid()]
    assert keys == sorted(keys)


def test_a_margin_states_key_is_derived():
    # key is the converted fields, formed once; equality, hash and repr see
    # the three fields only
    for state, _ in woe_margin_grid(3):
        assert state.key == (state.n_col, state.s_prev, state.n_contributors)
        assert type(state.key) is tuple
        assert all(type(x) is int for x in state.key)
        twin = MarginState(np.int64(state.n_col), state.s_prev,
                           state.n_contributors)
        assert twin == state and hash(twin) == hash(state)
        assert twin.key == state.key
        assert repr(state) == (
            f"MarginState(n_col={state.n_col}, s_prev={state.s_prev}, "
            f"n_contributors={state.n_contributors})")
    assert [f.name for f in fields(MarginState) if f.compare] == [
        "n_col", "s_prev", "n_contributors"]


def test_woe_curve_shape():
    states = [s for s, _ in woe_margin_grid()]
    curve = woe_curve(states, 0.1, (0.0, 0.1, 0.2))
    assert curve.shape == (15, 3)
    np.testing.assert_array_equal(curve[:, 0], 1.0)
    # no state or no theta: an empty matrix of that shape
    assert woe_curve([], 0.1, (0.0, 0.1)).shape == (0, 2)
    assert woe_curve(states, 0.1, ()).shape == (15, 0)
    # every entry is woe_step's, bit for bit and without a RuntimeWarning,
    # from theta = -0 and an overflowing pool to factors that overflow to
    # inf (at tail_mass 1e-300 and theta = 1 - 1e-16)
    grid = (-0.0, 1e-320, 1e-15, 0.3, 0.9999999999999999)
    for q, mass in ((0.4, 1e-300), (1e-300, 1.0), (0.999, 0.4)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = woe_curve(states, q, grid, tail_mass=mass)
        want = np.array([[woe_step(s, q, t, tail_mass=mass) for t in grid]
                         for s in states])
        assert curve.tobytes() == want.tobytes()
        assert np.isinf(curve).any() == (mass == 1e-300)
    # a grid of two blocks
    grid = [k / 4000 for k in range(2001)]
    want = np.array([[woe_step(s, 0.3, t) for t in grid] for s in states])
    assert woe_curve(states, 0.3, grid).tobytes() == want.tobytes()


@pytest.mark.parametrize("q, grid, mass", [
    (0.0, (0.1,), 1.0),
    (0.2, (0.1, 1.0), 1.0),
    (0.2, (0.1, float("nan")), 1.0),
    # tail_mass is checked at the first theta, a bad theta before it
    (0.2, (0.1, 2.0), 5.0),
    (0.2, (-0.1, 0.5), 0.0),
    # the pool mass of the tail underflows to 0 at the last theta only
    (1.0 - 1e-16, (0.0, 0.5, 0.9999999999999999), 1e-300),
    # Q and then tail_mass are converted before any range check
    ("0.1", (0.1,), 1.0),
    (0.2, (0.1,), True),
    ("0.1", (2.0,), True),
    (0.0, (0.1,), "0.5"),
    (0.2, (0.1, "0.3"), 1.0),
])
def test_woe_curve_raises_the_error_of_woe_step(q, grid, mass):
    states = [s for s, _ in woe_margin_grid()]
    with pytest.raises(ParameterError) as want:
        for theta in grid:
            woe_step(states[0], q, theta, tail_mass=mass)
    with pytest.raises(ParameterError) as got:
        woe_curve(states, q, grid, tail_mass=mass)
    assert str(got.value) == str(want.value)


_STATES = [s for s, _ in woe_margin_grid()]


@pytest.mark.parametrize("states, q, grid, mass, message", [
    # no state: each theta is still checked, after Q and before tail_mass
    ([], 2.0, [0.1], 1.0, "Q = 2.0 outside (0, 1)"),
    ([], 0.1, [0.1, 2.0], 1.0, "theta = 2.0 outside [0, 1)"),
    ([], 0.1, [0.1, 2.0], 5.0, "tail_mass = 5.0 outside (0, 1]"),
    ([], 0.1, [float("nan")], 5.0, "theta = nan outside [0, 1)"),
    ([], 1.0 - 1e-16, [0.5, 0.9999999999999999], 1e-300,
     "tail_mass = 1e-300 underflows at theta = 0.9999999999999999"),
    # no theta: Q and tail_mass are still converted and checked
    (_STATES, "x", [], 1.0, "Q: expected float, got 'x'"),
    (_STATES, 2.0, [], 5.0, "Q = 2.0 outside (0, 1)"),
    (_STATES, 0.1, [], 5.0, "tail_mass = 5.0 outside (0, 1]"),
    (_STATES, 0.1, (), "y", "tail_mass: expected float, got 'y'"),
    ([], 0.0, [], 1.0, "Q = 0.0 outside (0, 1)"),
])
def test_woe_curve_checks_its_values_where_its_output_is_empty(
        states, q, grid, mass, message):
    with pytest.raises(ParameterError) as err:
        woe_curve(states, q, grid, tail_mass=mass)
    assert str(err.value) == message
    # woe_step's error, at the first theta where it fails (any theta where
    # the grid is empty, since none of these errors is about a theta)
    with pytest.raises(ParameterError) as want:
        for theta in grid or [0.3]:
            woe_step(_STATES[0], q, theta, tail_mass=mass)
    assert str(want.value) == message


@pytest.mark.parametrize("states, message", [
    (5, "states: expected a list of MarginState, got 5"),
    ("ab", "states: expected a list of MarginState, got 'ab'"),
    ([1], "states[0]: expected a MarginState, got 1"),
    ([MarginState(1, 0, 2), (1, 0, 2)],
     "states[1]: expected a MarginState, got (1, 0, 2)"),
])
def test_woe_curve_refuses_states_naming_the_field(states, message):
    # also where the grid is empty and no ratio would be computed
    for grid in ((0.1,), ()):
        with pytest.raises(ParameterError) as err:
            woe_curve(states, 0.1, grid)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# whole-pair ratios


def test_pair_ratio_is_one_at_theta_zero():
    for pair in enumerate_genotype_pairs(3):
        assert pair_ratio(pair, AlleleFrequencies((0.2, 0.3, 0.5)), 0.0) == 1.0


def test_pair_ratio_three_code_paths_agree():
    freqs = AlleleFrequencies((0.1, 0.2, 0.3, 0.4))
    for pair in enumerate_genotype_pairs(4):
        for theta in (0.01, 0.1, 0.3, 0.5):
            reduced = pair_ratio(pair, freqs, theta)
            via_pmfs = pair_ratio_via_pmfs(pair, freqs, theta)
            via_steps = pair_ratio_via_steps(pair, freqs, theta)
            assert reduced == pytest.approx(via_pmfs, rel=1e-10)
            assert reduced == pytest.approx(via_steps, rel=1e-10)


def test_pair_ratio_ignores_singleton_identity_bit_for_bit():
    # pairs sharing the multiplicity-bearing alleles differ only in where
    # their singletons sit; the reduced form must agree exactly
    groups: dict[tuple, set[float]] = {}
    for pair in enumerate_genotype_pairs(PANEL.n_categories):
        sig = tuple(sorted((c, a) for a, c in enumerate(pair.pooled)
                           if c >= 2))
        for theta in (0.03, 0.2, 0.5):
            groups.setdefault((sig, theta), set()).add(
                pair_ratio(pair, PANEL, theta))
    assert all(len(values) == 1 for values in groups.values())


def test_pair_ratio_closed_form_doubleton():
    # pooled counts (2,1,1): the ratio reduces to
    # q^2 / (q a (q a + 1)) * a^2 (a+1)(a+2)(a+3) / a^3  with a = (1-t)/t
    theta = 0.25
    a = (1.0 - theta) / theta
    q = 0.2
    freqs = AlleleFrequencies((q, 0.3, 0.5))
    pair = pair_of((0, 1), (0, 2), width=3)
    expected = (q * q / (q * a * (q * a + 1.0))
                * (a + 1.0) * (a + 2.0) * (a + 3.0) / a)
    assert pair_ratio(pair, freqs, theta) == pytest.approx(expected,
                                                           rel=1e-13)


def dense_pair_ratio(pair, freqs, theta):
    """pair_ratio as a scan of the pooled counts over every category."""
    if pair.n_categories != freqs.n_categories:
        raise ParameterError(
            f"pair spans {pair.n_categories} categories, frequencies have "
            f"{freqs.n_categories}")
    theta = float(theta)
    if not 0.0 <= theta < 1.0:
        raise ParameterError(f"theta = {theta} outside [0, 1)")
    a_total = (1.0 - theta) / theta if theta else math.inf
    if a_total == math.inf:
        return 1.0
    pooled = tuple(map(operator.add, pair.first.counts, pair.second.counts))
    terms = [math.log(a_total + k) for k in range(4)]
    for q_a, log_q, c in compress(zip(freqs.extended_probs,
                                      freqs.log_extended_probs, pooled),
                                  pooled):
        if c == 1:
            terms.append(-math.log(a_total))
            continue
        alpha = q_a * a_total
        if not alpha:
            raise ParameterError(f"theta = {theta} makes alpha 0")
        terms.append(c * log_q)
        terms.extend(-math.log(alpha + k) for k in range(c))
    return math.exp(math.fsum(terms))


def _outcome(f, *args):
    try:
        return f(*args).hex()
    except ParameterError as err:
        return type(err), str(err)


# tiny weights are taken as probabilities as they are, and q_a a.
# underflows to 0 at theta = 0.9 for the two tiniest
_TINY = (5e-324, 1e-322, 1e-310)
_WEIGHTS = st.lists(st.one_of(st.floats(1e-6, 1.0), st.sampled_from(_TINY)),
                    min_size=41, max_size=41)


@given(st.integers(1, 42), st.booleans(), st.floats(1e-6, 1.0), _WEIGHTS,
       st.lists(st.integers(0, 41), min_size=4, max_size=4),
       st.integers(0, 19).map(lambda k: (k == 19) - (k == 18)),
       st.sampled_from((0.0, 5e-324, 1e-300, 1e-15, 0.01, 0.9, 1.0, -0.1)))
# allele 1 (q = 5e-324) counted twice underflows after the rest of the
# width checks; counted once, it cancels
@example(4, True, 0.5, [5e-324, 0.5] + [1.0] * 39, [1, 1, 0, 2], 0, 0.9)
@example(4, True, 0.5, [5e-324, 0.5] + [1.0] * 39, [1, 0, 0, 2], 0, 0.9)
@example(4, True, 0.5, [5e-324, 0.5] + [1.0] * 39, [1, 1, 0, 2], 19, 0.9)
@example(4, True, 0.5, [5e-324, 0.5] + [1.0] * 39, [1, 1, 0, 2], 0, 1.0)
def test_pair_ratio_is_the_dense_scan_bit_for_bit(width, rest, lead, weights,
                                                   alleles, skew, theta):
    # the frequencies span `width` categories, the last a rest class when
    # `rest`; the pair spans width + skew (skew -1 or +1 one time in 20),
    # so a skewed pair is refused
    rest = rest and width > 1
    named = [lead, *weights][:width - rest]
    scale = math.fsum(w for w in named if w not in _TINY) / (0.8 if rest
                                                              else 1.0)
    freqs = AlleleFrequencies(tuple(w if w in _TINY else w / scale
                                    for w in named))
    assert freqs.n_categories == width
    span = max(1, width + skew)
    first, second = (genotype_from_alleles([a % span for a in two], span)
                     for two in (alleles[:2], alleles[2:]))
    pair = GenotypePair(first, second)
    assert pair.carried == tuple((a, c) for a, c in enumerate(pair.pooled)
                                 if c)
    assert (_outcome(pair_ratio, pair, freqs, theta)
            == _outcome(dense_pair_ratio, pair, freqs, theta))
    # carried is derived: equality, hash and repr see the profiles only
    twin = GenotypePair(first, second)
    assert twin == pair and hash(twin) == hash(pair)
    assert repr(pair) == f"GenotypePair(first={first!r}, second={second!r})"
    assert [f.name for f in fields(GenotypePair) if f.compare] == [
        "first", "second"]


def test_pair_ratio_curves_cover_all_classes():
    curves = pair_ratio_curves(PANEL, THETA_GRID)
    labels = {cls.label for cls in curves}
    assert labels == {"()", "(2)", "(2,2)", "(3)", "(4)"}
    for cls, values in curves.items():
        assert values.shape == (len(THETA_GRID),)
        assert values[0] == 1.0  # theta = 0 column
    # each curve is the class's pair with multiplicities on the
    # lowest-index alleles; a class shows up once A has room for it
    expected = {1: {"(4)"}, 2: {"(2,2)", "(3)", "(4)"},
                3: {"(2)", "(2,2)", "(3)", "(4)"}}
    grid = (0.0, 0.01, 0.1, 0.3)
    for width in range(1, 7):
        weights = tuple(range(1, width + 1))
        freqs = AlleleFrequencies(tuple(w / sum(weights) for w in weights))
        curves = {cls.label: values
                  for cls, values in pair_ratio_curves(freqs, grid).items()}
        assert set(curves) == expected.get(width, set(CANONICAL))
        for label, values in curves.items():
            pair = pair_of(*CANONICAL[label], width=width)
            assert list(values) == [pair_ratio(pair, freqs, t) for t in grid]


def test_pair_ratio_curves_evaluate_one_pair_per_class(monkeypatch):
    # the curves share their logs across classes, whatever the width: 10
    # per nonzero grid point on a cold grid (4 head columns, 4 for allele 0
    # and 2 for allele 1), and 6 once the grid's head columns are kept
    counts = []
    for width in (6, 40):
        calls = []

        def counting_log(x, *base):
            calls.append(x)
            return math.log(x, *base)

        monkeypatch.setattr(mdmix.evidence, "math",
                            SimpleNamespace(**{**vars(math),
                                               "log": counting_log}))
        weights = tuple(range(1, width + 1))
        freqs = AlleleFrequencies(tuple(w / sum(weights) for w in weights))
        grid = tuple(list(THETA_GRID))  # a new tuple: the slot misses
        for _ in ("cold", "warm"):
            calls.clear()
            assert len(pair_ratio_curves(freqs, grid)) == 5
            counts.append(len(calls))
        monkeypatch.undo()
    points = len(THETA_GRID) - 1
    assert counts == [10 * points, 6 * points] * 2


def test_a_warm_grid_cache_changes_no_value_and_no_error():
    # each builder keeps the work of its last grid tuple of exact floats,
    # found again by the tuple's identity; the same tuple again, at
    # alternating tail masses, an equal copy, a grid that equals a kept one
    # but holds a bool, an int or -0.0, a list, another grid in between,
    # or a 0-d array changed in place must give what the scalar functions
    # give
    evidence = mdmix.evidence
    states = [s for s, _ in woe_margin_grid(2)]
    floats = (0.0, 0.25, 1e-320, 0.5)

    def bits(grid, masses=(0.5, 1.0)):
        # a. is kept per grid and tail mass: the tail mass alternates
        for mass in masses:
            want = np.array([[woe_step(s, 0.2, t, tail_mass=mass)
                              for t in grid] for s in states])
            assert (woe_curve(states, 0.2, grid, tail_mass=mass).tobytes()
                    == want.tobytes())
        curves = pair_ratio_curves(PANEL, grid)
        for cls, values in curves.items():
            pair = pair_of(*CANONICAL[cls.label])
            want = np.array([pair_ratio(pair, PANEL, t) for t in grid])
            assert values.tobytes() == want.tobytes()
        return curves

    def refusals(grid):
        errors = []
        for build in (lambda: woe_curve(states, 0.2, grid),
                      lambda: pair_ratio_curves(PANEL, grid)):
            with pytest.raises(ParameterError) as err:
                build()
            errors.append(str(err.value))
        return errors

    other = (0.5, 0.0, 0.125)
    for grid in (floats, floats, tuple(list(floats)), (-0.0,) + floats[1:],
                 (0,) + floats[1:], list(floats), floats, other, floats):
        bits(grid)
    # the same tuple and tail mass read the kept work
    pools = evidence._woe_pools(floats, 0.5)
    assert evidence._woe_pools(floats, 0.5) is pools
    assert evidence._ratio_grid(other) is evidence._ratio_grid(other)
    # a 0-d array in the grid can change in place between two calls with
    # the same tuple, at the same tail mass
    theta = np.array(0.25)
    live = (0.0, theta, 0.5)
    bits(live, masses=(1.0,))
    theta[()] = 0.75
    bits(live, masses=(1.0,))
    # every array kept is read-only: a. and the mask of a. = inf (None for
    # a grid where a. is finite throughout)
    arrays = [x for x in evidence._woe_pools(floats, 0.5)
              if isinstance(x, np.ndarray)]
    assert len(arrays) == 2
    assert not any(array.flags.writeable for array in arrays)
    assert evidence._woe_pools((0.25, 0.5), 0.5)[2] is None
    # a grid that equals a kept float grid, right after it, is refused
    for bad in (False, np.False_):
        for grid in ((0.0,), floats):
            bits(grid)
            assert refusals((bad,) + grid[1:]) == [
                f"theta: expected float, got {bad!r}"] * 2
    # True equals 1.0, which is refused, so no grid that equals it is kept
    for last, message in ((1.0, "theta = 1.0 outside [0, 1)"),
                          (True, "theta: expected float, got True")):
        for _ in ("cold", "again"):
            assert refusals(floats[:3] + (last,)) == [message] * 2
    # the output is the caller's own: writing into it changes no later call
    woe_curve(states, 0.2, floats, tail_mass=0.5)[:] = 7.0
    for values in bits(floats).values():
        values[:] = 7.0
    bits(floats)


def test_threads_sharing_the_grid_slots_get_the_reference_bits():
    # more threads than cores and a short switch interval: each thread
    # reads the per-grid work of grids and tail masses that the others put
    # in the builders' last-grid slots in between, and builds curves on
    # them; every value keeps its bits
    evidence = mdmix.evidence
    states = [s for s, _ in woe_margin_grid(2)]
    grids = (THETA_GRID, THETA_GRID[:7], (0.5, 1e-320, 0.0, 0.25))
    jobs = [(grid, mass) for grid in grids for mass in (0.5, 1.0)]

    def build(grid, mass):
        pools = [evidence._woe_pools(grid, mass)[0].tobytes()
                 for _ in range(20)]
        heads = [evidence._ratio_grid(grid) for _ in range(20)]
        curves = pair_ratio_curves(PANEL, grid)
        return (woe_curve(states, 0.2, grid, tail_mass=mass).tobytes(),
                [values.tobytes() for values in curves.values()],
                set(pools), set(map(repr, heads)))

    want = [build(*job) for job in jobs]
    n_threads = min(4 * (os.cpu_count() or 1), 16)
    bad, rounds = [], [0] * n_threads
    deadline = time.monotonic() + 1.0

    def run(k):
        while time.monotonic() < deadline:
            for i in range(len(jobs)):
                i = (i + k) % len(jobs)
                if build(*jobs[i]) != want[i]:
                    bad.append(jobs[i])
            rounds[k] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert min(rounds) > 0 and not bad


def test_pair_ratio_is_one_where_the_pool_overflows():
    # below about 5.6e-309, (1 - theta) / theta overflows to inf: the
    # theta -> 0 limit, not an inf - inf in the sum
    freqs = AlleleFrequencies((0.1, 0.2, 0.3, 0.4))
    for theta in (1e-310, 5e-324):
        for pair in enumerate_genotype_pairs(4):
            assert pair_ratio(pair, freqs, theta) == 1.0
    curves = pair_ratio_curves(PANEL, (0.0, 1e-310, 5e-324, 0.1))
    for values in curves.values():
        assert list(values[:3]) == [1.0, 1.0, 1.0]


# q_a (1 - theta) / theta underflows to 0 for q_1 = 1e-320 from theta =
# 0.9999 on, and for q_0 = 1e-310 as well at theta = 1 - 2**-53
TINY = AlleleFrequencies((1e-310, 1e-320, 0.3, 0.4))


def _alpha_error(theta):
    return f"theta = {theta} makes alpha 0"


def test_pair_ratio_refuses_an_alpha_that_underflows():
    for theta in (0.9999, 1.0 - 2.0 ** -53):
        with pytest.raises(ParameterError) as model_err:
            mdmix.evidence.theta_to_alpha(TINY, theta)
        assert str(model_err.value) == _alpha_error(theta)
        with pytest.raises(ParameterError) as err:
            pair_ratio(pair_of((0, 1), (1, 2), width=5), TINY, theta)
        assert str(err.value) == _alpha_error(theta)
    # a singleton cancels, so its allele never forms q_a a.: allele 1 at
    # 0.9999, and allele 0 where its own q_a a. is still positive
    for first in ((0, 1), (0, 0)):
        value = pair_ratio(pair_of(first, (2, 3), width=5), TINY, 0.9999)
        assert 0.0 < value < math.inf


def test_pair_ratio_curves_refuse_an_alpha_at_the_first_theta_it_underflows():
    for grid in ((0.5, 0.9999, 1.0 - 2.0 ** -53),
                 (0.0, 1.0 - 2.0 ** -53, 0.9999)):
        with pytest.raises(ParameterError) as err:
            pair_ratio_curves(TINY, grid)
        assert str(err.value) == _alpha_error(grid[1])
    assert len(pair_ratio_curves(TINY, (0.0, 0.5, 0.99))) == 5


_EDGE_THETAS = (0.0, -0.0, 1e-300, 1e-320, 1.0 - 1e-16)


@given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=40),
       st.lists(st.floats(0.0, 0.999), max_size=8), st.randoms())
def test_pair_ratio_curves_are_pair_ratio_bit_for_bit(weights, thetas, rnd):
    freqs = AlleleFrequencies(tuple(w / math.fsum(weights) for w in weights))
    grid = list(thetas) + list(_EDGE_THETAS)
    rnd.shuffle(grid)
    grid = tuple(grid)  # one tuple for both calls
    width = freqs.n_categories
    curves = pair_ratio_curves(freqs, grid)
    assert {cls.label for cls in curves} == {
        label for label, alleles in CANONICAL.items()
        if max(map(max, alleles)) < width}
    for cls, values in curves.items():
        pair = pair_of(*CANONICAL[cls.label], width=width)
        want = np.array([pair_ratio(pair, freqs, t) for t in grid])
        assert values.tobytes() == want.tobytes()
    # the second call, with the same tuple, reads the grid's kept columns
    again = pair_ratio_curves(freqs, grid)
    assert all(again[cls].tobytes() == curves[cls].tobytes() for cls in curves)


@given(st.lists(st.tuples(st.integers(1, 10), st.integers(0, 20),
                          st.integers(0, 20)), min_size=1, max_size=30),
       st.floats(1e-3, 0.999), st.sampled_from((1.0, 0.3, 1e-6)),
       st.lists(st.floats(0.0, 0.999), max_size=6), st.randoms())
def test_woe_curve_is_woe_step_bit_for_bit(specs, q, mass, thetas, rnd):
    # states in any order, with repeats and mixed contributor counts, share
    # factors and running products; each row must still be the bits of its
    # own woe_step product.  The grid is shuffled, and theta = 0, -0 and
    # 1e-320 (whose pool overflows) sit between other points, so the
    # columns where the ratio is exactly 1 are not at one end
    states = []
    for contribs, n_col, s_prev in specs:
        capacity = 2 * contribs
        n_col = n_col % (capacity + 1)
        states.append(MarginState(n_col=n_col,
                                  s_prev=s_prev % (capacity - n_col + 1),
                                  n_contributors=contribs))
    states += rnd.sample(states, rnd.randint(0, len(states)))
    rnd.shuffle(states)
    grid = list(thetas) + [1e-300, 1.0 - 1e-16]
    rnd.shuffle(grid)
    for theta in (0.0, -0.0, 1e-320):
        grid.insert(rnd.randint(1, len(grid) - 1), theta)
    grid = tuple(grid)  # one tuple for both calls
    curve = woe_curve(states, q, grid, tail_mass=mass)
    want = np.array([[woe_step(s, q, t, tail_mass=mass) for t in grid]
                     for s in states])
    assert curve.tobytes() == want.tobytes()
    # the second call, with the same tuple, reads the grid's kept pooled
    # masses
    again = woe_curve(states, q, grid, tail_mass=mass)
    assert again.tobytes() == want.tobytes()


def test_woe_curve_holds_little_beyond_its_output():
    # the rows are formed a block of grid columns at a time, so no
    # temporary grows with the grid
    states = [s for s, _ in woe_margin_grid(10)]
    grid = [k / 4000 for k in range(2001)]
    tracemalloc.start()
    try:
        curve = woe_curve(states, 0.1, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * curve.nbytes


def test_validate_catches_a_ratio_that_depends_on_singleton_positions(
        monkeypatch):
    # a few ulps per singleton index: far below the 1e-10 path comparisons,
    # so only the bit-exact relabelling check can see it
    def perturbed(pair, freqs, theta):
        k = next((a for a, c in enumerate(pair.pooled) if c == 1), 0)
        return pair_ratio(pair, freqs, theta) * (1.0 + k * 2.0 ** -50)

    assert mdmix.validation.suite_woe().passed
    monkeypatch.setattr(mdmix.validation, "pair_ratio", perturbed)
    result = mdmix.validation.suite_woe()
    assert not result.passed
    assert "relabelling check" in result.note


def test_pair_ratio_curves_order_by_sharing():
    # more allele sharing pushes the ratio down: at every positive theta
    # (4) < (3) < (2,2) < (2) < ()
    curves = {cls.label: vals for cls, vals in
              pair_ratio_curves(PANEL, THETA_GRID).items()}
    for k in range(1, len(THETA_GRID)):
        column = [curves[label][k] for label in
                  ("(4)", "(3)", "(2,2)", "(2)", "()")]
        assert column == sorted(column)
        assert column[0] < column[-1]


def test_enumerate_genotype_pairs_counts():
    # 6 genotypes over 3 categories, 21 unordered pairs
    assert len(list(enumerate_genotype_pairs(3))) == 21


# ---------------------------------------------------------------------------
# where the theta-correction raises a single-source likelihood ratio


def _single_source_log_lr(genotype, freqs, theta):
    """log LR = log P(g) - log P(g, g): the one-row table g against the
    two-row table (g, g), both under theta."""
    model = theta_to_alpha(freqs, theta)
    one = mdm_log_pmf(CountTable((genotype,)), MdmParams((2,), model))
    two = mdm_log_pmf(CountTable((genotype, genotype)),
                      MdmParams((2, 2), model))
    return one - two


@settings(max_examples=400)
@given(st.floats(0.01, 0.6), st.floats(0.01, 0.6), st.booleans())
def test_single_source_log_lr_slope_at_theta_zero(p_a, p_b, homozygote):
    # d log LR / d theta at 0 is 5 - 1/p_a - 1/p_b for a heterozygote ab
    # and 5 - 5/p_a for a homozygote aa: negative for every homozygote,
    # positive for a heterozygote with 1/p_a + 1/p_b < 5
    assume(p_a + p_b < 1.0)
    freqs = AlleleFrequencies((p_a, p_b))
    genotype = (2, 0, 0) if homozygote else (1, 1, 0)
    slope = 5.0 - 5.0 / p_a if homozygote else 5.0 - 1.0 / p_a - 1.0 / p_b
    at_zero = _single_source_log_lr(genotype, freqs, 0.0)

    def forward(h):
        return (_single_source_log_lr(genotype, freqs, h) - at_zero) / h

    # Richardson extrapolation of two forward differences cancels the O(h)
    # term; the rest is O(h^2) and rounding, far below the bound
    h = 1e-6
    estimate = 2.0 * forward(h / 2.0) - forward(h)
    assert abs(estimate - slope) <= 1e-6 * max(abs(slope), 1.0)


def test_theta_raises_the_lr_of_a_common_heterozygote():
    # the paper's "reduces the weight of the evidence" has a scope: at
    # p_a = p_b = 0.5, 1/p_a + 1/p_b = 4 < 5, and the LR grows with theta
    freqs = AlleleFrequencies((0.5, 0.5))
    lr = [math.exp(_single_source_log_lr((1, 1), freqs, theta))
          for theta in (0.0, 0.1)]
    assert lr[0] == pytest.approx(2.0, rel=1e-12)
    # 1 / P(ab | ab) = (1 + theta)(1 + 2 theta) / (2 (theta + (1 - theta)/2)^2)
    assert lr[1] == pytest.approx(1.1 * 1.2 / (2.0 * 0.55 ** 2), rel=1e-12)
    assert lr[1] == pytest.approx(2.1818181818181817, rel=1e-12)
