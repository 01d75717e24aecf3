# SPDX-License-Identifier: Apache-2.0
"""The shared suites behind `validate` and acceptance criteria 1-5 fail
when the closed form they check is off by a little, or is nan."""

from __future__ import annotations

import math
from functools import lru_cache

import pytest

import mdmix.oracle
import mdmix.validation
from mdmix import DispersionModel, MdmParams


def _shifted(fn, by=1e-9):
    return lambda *args: fn(*args) + by


def _scaled(fn, by=1e-8):
    return lambda *args: fn(*args) * (1.0 + by)


def _nan(fn):
    return lambda *args: float("nan")


def _nan_after_first(fn):
    calls = []

    def perturbed(*args):
        calls.append(args)
        return fn(*args) if len(calls) == 1 else float("nan")
    return perturbed


def _nan_if_first_cell_is_0(fn):
    return lambda t, params: (float("nan") if t.counts[0][0] == 0
                              else fn(t, params))


def _wider_alphas(fn, by=1e-8):
    def perturbed(*args):
        params = fn(*args)
        alpha = tuple(a * (1.0 + by) for a in params.model.alpha)
        return MdmParams(params.row_sums, DispersionModel.from_alpha(alpha))
    return perturbed


def _without_first(fn):
    return lambda *args: fn(*args)[1:]


def _reciprocal(fn):
    # exactly 1 where the step is 1, at theta = 0; below 1 where it is above
    return lambda *args: 1.0 / fn(*args)


@pytest.mark.parametrize("suite, module, name, perturb, note", [
    ("normalization", mdmix.oracle, "mdm_log_pmf", _shifted, ""),
    ("chain-equivalence", mdmix.validation, "mdm_chain_log_pmf", _shifted,
     ""),
    ("chain-equivalence", mdmix.validation, "mdm_chain_log_pmf", _nan, ""),
    ("marginal-conditional", mdmix.validation, "conditional_over_profiles",
     _wider_alphas, ""),
    ("hypergeometric", mdmix.validation, "hypergeometric_log_pmf", _shifted,
     ""),
    ("moment-oracle", mdmix.validation, "factorial_moment", _scaled, ""),
    ("woe-properties", mdmix.validation, "pair_ratio_via_steps", _nan, ""),
    ("woe-properties", mdmix.validation, "woe_margin_grid", _without_first,
     "grid sizes 14/3"),
    ("woe-properties", mdmix.validation, "woe_step", _scaled,
     "theta = 0 step not exactly 1"),
    ("woe-properties", mdmix.validation, "woe_step", _reciprocal,
     "single-count step below 1"),
])
def test_validate_catches_a_perturbed_closed_form(monkeypatch, suite, module,
                                                  name, perturb, note):
    # a fresh support cache, so the oracle sees the perturbation and keeps
    # no perturbed probabilities once the test ends
    monkeypatch.setattr(mdmix.oracle, "_support_and_probs", lru_cache(
        maxsize=128)(mdmix.oracle._support_and_probs.__wrapped__))
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    results = {r.name: r for r in mdmix.validation.run_all_suites()}
    assert not results[suite].passed
    assert results[suite].note == note


@pytest.mark.parametrize("suite, name, perturb", [
    ("chain-equivalence", "mdm_chain_log_pmf", _nan_if_first_cell_is_0),
    ("woe-properties", "pair_ratio_via_steps", _nan_after_first),
])
def test_a_nan_error_is_the_max_error(monkeypatch, suite, name, perturb):
    # max() keeps a finite error over every nan that comes after it
    monkeypatch.setattr(mdmix.validation, name,
                        perturb(getattr(mdmix.validation, name)))
    results = {r.name: r for r in mdmix.validation.run_all_suites()}
    assert not results[suite].passed
    assert math.isnan(results[suite].max_error)
