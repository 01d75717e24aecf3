# SPDX-License-Identifier: Apache-2.0
"""Evidence-weight ratios for two-contributor genotype pairs."""

from __future__ import annotations

import math

import numpy as np
import pytest

import mdmix.evidence
import mdmix.validation
from mdmix import (AlleleFrequencies, GenotypePair, MarginState,
                   MultiplicityClass, ParameterError, ProfileCounts,
                   enumerate_genotype_pairs, genotype_from_alleles,
                   joint_step_conditional, multiplicity_class, pair_ratio,
                   pair_ratio_curves, pair_ratio_via_pmfs,
                   pair_ratio_via_steps, woe_curve, woe_margin_grid, woe_step)

# a six-category reference panel: five named alleles and a rest class
PANEL = AlleleFrequencies((0.025, 0.05, 0.1, 0.2, 0.4))

THETA_GRID = tuple(k / 100.0 for k in range(0, 51))


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


def test_multiplicity_classes_cover_all_five_shapes():
    cases = {
        ((0, 1), (2, 3)): (),
        ((0, 0), (1, 2)): (2,),
        ((0, 1), (0, 1)): (2, 2),
        ((0, 0), (0, 1)): (3,),
        ((0, 0), (0, 0)): (4,),
    }
    for (first, second), expected in cases.items():
        cls = multiplicity_class(pair_of(first, second, width=4))
        assert cls.multiplicities == expected


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
                den = math.exp(joint_step_conditional(
                    MarginState(n, s, 2), a_step, a_tail,
                    [(n_i, s_i), (n_j, s_j)]))
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


def test_woe_curve_shape():
    states = [s for s, _ in woe_margin_grid()]
    curve = woe_curve(states, 0.1, (0.0, 0.1, 0.2))
    assert curve.shape == (15, 3)
    np.testing.assert_array_equal(curve[:, 0], 1.0)


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


def test_pair_ratio_curves_cover_all_classes():
    curves = pair_ratio_curves(PANEL, THETA_GRID)
    labels = {cls.label for cls in curves}
    assert labels == {"()", "(2)", "(2,2)", "(3)", "(4)"}
    for cls, values in curves.items():
        assert values.shape == (len(THETA_GRID),)
        assert values[0] == 1.0  # theta = 0 column
    # each curve is the class's pair with multiplicities on the
    # lowest-index alleles; a class shows up once A has room for it
    canonical = {"(4)": ((0, 0), (0, 0)), "(3)": ((0, 0), (0, 1)),
                 "(2,2)": ((0, 0), (1, 1)), "(2)": ((0, 0), (1, 2)),
                 "()": ((0, 1), (2, 3))}
    expected = {1: {"(4)"}, 2: {"(2,2)", "(3)", "(4)"},
                3: {"(2)", "(2,2)", "(3)", "(4)"}}
    grid = (0.0, 0.01, 0.1, 0.3)
    for width in range(1, 7):
        weights = tuple(range(1, width + 1))
        freqs = AlleleFrequencies(tuple(w / sum(weights) for w in weights))
        curves = {cls.label: values
                  for cls, values in pair_ratio_curves(freqs, grid).items()}
        assert set(curves) == expected.get(width, set(canonical))
        for label, values in curves.items():
            pair = pair_of(*canonical[label], width=width)
            assert list(values) == [pair_ratio(pair, freqs, t) for t in grid]


def test_pair_ratio_curves_evaluate_one_pair_per_class(monkeypatch):
    # the curves cost 5 pair ratios per grid point, whatever the width
    calls = []

    def counting(pair, freqs, theta):
        calls.append(theta)
        return pair_ratio(pair, freqs, theta)

    monkeypatch.setattr(mdmix.evidence, "pair_ratio", counting)
    weights = tuple(range(1, 13))
    freqs = AlleleFrequencies(tuple(w / sum(weights) for w in weights))
    assert len(pair_ratio_curves(freqs, THETA_GRID)) == 5
    assert len(calls) == 5 * len(THETA_GRID)


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
