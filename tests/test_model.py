# SPDX-License-Identifier: Apache-2.0
"""Parameter containers: frequency sets, dispersion models, count tables."""

from __future__ import annotations

import math
import os
import re
import sys
import threading
import time

import pytest
from hypothesis import example, given, strategies as st

import numpy as np

from mdmix import (AlleleFrequencies, CountTable, DispersionModel,
                   FrequencyFileError, GenotypePair, MdmParams, MdmSampler,
                   MultiplicityClass, ParameterError, ProfileCounts,
                   SubsetSpec, TableError, covariance_matrix,
                   genotype_from_alleles, mdm_chain_log_pmf, mdm_log_pmf,
                   pair_ratio, pair_ratio_curves, pair_ratio_via_pmfs,
                   pair_ratio_via_steps, read_frequency_csv, theta_to_alpha,
                   woe_curve, woe_margin_grid, woe_step)
from mdmix.cli import _build_parser, _merge
from mdmix.evidence import MarginState
from mdmix.model import (_MAX_TOTAL, _MODEL_CACHE_SIZE, _as_counts,
                         _as_items)
from mdmix.oracle import (count_tables, enumerate_tables,
                          enumerate_tables_with_margins)


# ---------------------------------------------------------------------------
# AlleleFrequencies


def test_rest_mass_is_inferred_from_the_shortfall():
    f = AlleleFrequencies((0.1, 0.2))
    assert f.rest_mass == pytest.approx(0.7, abs=1e-15)
    assert f.extended_probs == pytest.approx((0.1, 0.2, 0.7))
    assert f.n_categories == 3
    # the rest class is always inferred, never given
    with pytest.raises(TypeError):
        AlleleFrequencies((0.1, 0.2), rest_mass=0.7)


def test_full_simplex_has_no_rest_category():
    f = AlleleFrequencies((0.25, 0.75))
    assert f.rest_mass == 0.0
    assert f.extended_probs == (0.25, 0.75)
    assert f.n_categories == 2


def test_probabilities_must_be_positive():
    with pytest.raises(ParameterError):
        AlleleFrequencies((0.5, 0.0))
    with pytest.raises(ParameterError):
        AlleleFrequencies((0.5, -0.1))


def test_probabilities_must_not_exceed_one():
    with pytest.raises(ParameterError):
        AlleleFrequencies((0.6, 0.7))


# ---------------------------------------------------------------------------
# DispersionModel


def test_theta_to_alpha_example():
    # theta 0.2 with a uniform pair gives alpha (2, 2)
    model = theta_to_alpha(AlleleFrequencies((0.5, 0.5)), 0.2)
    assert model.alpha == pytest.approx((2.0, 2.0), abs=1e-15)
    assert model.alpha_total == pytest.approx(4.0, abs=1e-15)


def test_theta_zero_has_no_finite_alpha():
    # theta = 0 is the limit alpha_total = inf, with q kept as given
    model = theta_to_alpha(AlleleFrequencies((0.5, 0.5)), 0.0)
    assert model.theta == 0.0
    assert model.alpha_total == math.inf
    assert model.alpha == (math.inf, math.inf)
    assert model.freqs.extended_probs == (0.5, 0.5)


def test_from_alpha_recovers_theta_and_frequencies():
    model = DispersionModel.from_alpha((1.0, 3.0))
    assert model.theta == pytest.approx(0.2, abs=1e-15)
    assert model.freqs.extended_probs == pytest.approx((0.25, 0.75))


@given(st.floats(1e-6, 0.9), st.lists(st.floats(0.05, 1.0),
                                      min_size=2, max_size=6))
def test_theta_alpha_round_trip(theta, raw):
    total = math.fsum(raw)
    probs = tuple(x / total for x in raw)
    model = theta_to_alpha(AlleleFrequencies(probs[:-1]), theta)
    back = DispersionModel.from_alpha(model.alpha)
    assert back.theta == pytest.approx(theta, rel=1e-12)
    assert back.freqs.extended_probs == pytest.approx(
        model.freqs.extended_probs, rel=1e-12)


def test_theta_outside_unit_interval_rejected():
    f = AlleleFrequencies((0.5, 0.5))
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ParameterError):
            theta_to_alpha(f, bad)


QUAD = AlleleFrequencies((0.1, 0.2, 0.3, 0.4))
STATE = MarginState(n_col=2, s_prev=0, n_contributors=2)
GENOTYPE = genotype_from_alleles((0, 1), QUAD.n_categories)
PAIR = GenotypePair(GENOTYPE, GENOTYPE)
# each entry point that takes a caller's theta, as theta -> a value whose
# float bits show in its repr
THETA_TAKERS = {
    "DispersionModel": lambda t: DispersionModel(t, QUAD),
    "theta_to_alpha": lambda t: theta_to_alpha(QUAD, t),
    "pair_ratio": lambda t: pair_ratio(GenotypePair(
        genotype_from_alleles((0, 1), 4), genotype_from_alleles((0, 0), 4)),
        QUAD, t).hex(),
    "woe_step": lambda t: woe_step(STATE, 0.3, t).hex(),
    "woe_curve": lambda t: woe_curve([STATE], 0.3, [t])[0, 0].hex(),
    "pair_ratio_curves": lambda t: [
        (c.label, v[0].hex())
        for c, v in pair_ratio_curves(QUAD, [t]).items()],
}


@pytest.mark.parametrize("taker", THETA_TAKERS)
def test_theta_that_is_not_a_number_is_refused_at_every_entry_point(taker):
    call = THETA_TAKERS[taker]
    for bad in ("abc", "0.1", b"0", bytearray(b"0"), True, None,
                np.False_, np.True_, np.array(False)):
        with pytest.raises(ParameterError) as err:
            call(bad)
        assert str(err.value) == f"theta: expected float, got {bad!r}"
    # a number of another type gives the bits of the float
    for number, same in ((np.float64(0.25), 0.25), (0, 0.0)):
        assert repr(call(number)) == repr(call(same))


def test_theta_whose_alpha_is_not_a_positive_double_rejected():
    # q (1 - theta) / theta underflows to 0; (1 - theta) / theta that
    # overflows is the alpha_total = inf limit, as at theta = 0
    model = theta_to_alpha(AlleleFrequencies((0.5, 0.5)), 1e-320)
    assert (model.theta, model.alpha_total) == (1e-320, math.inf)
    tiny = AlleleFrequencies((1e-310, 1.0 - 1e-310))
    with pytest.raises(ParameterError, match="theta = 0.9999999999999999"):
        theta_to_alpha(tiny, 0.9999999999999999)


def test_theta_and_alpha_total_must_agree():
    # alpha_total is derived from theta, never given
    f = AlleleFrequencies((0.5, 0.5))
    for theta in (0.0, 1e-300, 1e-12, 1.0 / 6.0, 0.3, 0.9999999999999999):
        assert DispersionModel(theta, f) == theta_to_alpha(f, theta)
    with pytest.raises(TypeError):
        DispersionModel(theta=1.0 / 6.0, freqs=f, alpha_total=5.0)


def test_negative_zero_theta_is_zero_however_the_model_is_built():
    # equal models give the same bits: theta = -0.0 would carry its sign
    # into the theta-scaled cross-profile covariances
    f = AlleleFrequencies((0.5, 0.5))
    for model in (DispersionModel(-0.0, f), theta_to_alpha(f, -0.0)):
        assert math.copysign(1.0, model.theta) == 1.0
        cov = covariance_matrix(MdmParams((2, 2), model))
        assert math.copysign(1.0, cov[0, 2]) == 1.0


def test_a_float_theta_shares_one_model_per_frequency_set():
    # a repeated float theta gives the identical model, with its L memos,
    # from the frequency set's cache; it equals a fresh model, hashes and
    # prints alike, and -0.0 finds the model of theta = 0.0.  The cache is
    # no field: a set built afresh equals this one and keeps its own models
    f = AlleleFrequencies((0.1, 0.2, 0.3))
    for theta in (0.0, 0.01, 0.03, 1e-300):
        model = theta_to_alpha(f, theta)
        assert theta_to_alpha(f, theta) is model
        fresh = DispersionModel(theta, f)
        assert model == fresh and hash(model) == hash(fresh)
        assert repr(model) == repr(fresh)
    zero = theta_to_alpha(f, -0.0)
    assert zero is theta_to_alpha(f, 0.0) and repr(zero.theta) == "0.0"
    other = AlleleFrequencies((0.1, 0.2, 0.3))
    assert other == f and hash(other) == hash(f) and repr(other) == repr(f)
    assert theta_to_alpha(other, 0.01) is not theta_to_alpha(f, 0.01)


def test_a_theta_that_is_not_a_float_never_meets_the_cache():
    # False and np.False_ equal 0.0 and hash alike, but are refused after
    # a 0.0 model is cached; an int or a numpy float gets an equal model
    # checked afresh; a bad theta raises on every call and is not kept
    f = AlleleFrequencies((0.5, 0.5))
    zero = theta_to_alpha(f, 0.0)
    for bad in (False, np.False_, "0.0"):
        with pytest.raises(ParameterError, match="theta: expected float"):
            theta_to_alpha(f, bad)
    for number in (0, np.float64(0.0)):
        model = theta_to_alpha(f, number)
        assert model == zero and model is not zero
    tiny = AlleleFrequencies((1e-310, 1.0 - 1e-310))
    for freqs, bad in ((f, 1.0), (f, -0.5), (f, math.nan), (f, math.inf),
                       (tiny, 0.9999999999999999)):
        for _ in range(2):
            with pytest.raises(ParameterError):
                theta_to_alpha(freqs, bad)
    assert list(f._models) == [0.0] and not tiny._models


def test_a_frequency_set_keeps_the_models_of_its_last_four_thetas():
    f = AlleleFrequencies((0.25, 0.75))
    thetas = [k / 100 for k in range(10)]
    models = [theta_to_alpha(f, theta) for theta in thetas]
    assert _MODEL_CACHE_SIZE == 4 and list(f._models) == thetas[-4:]
    for theta, model in zip(thetas[-4:], models[-4:]):
        assert theta_to_alpha(f, theta) is model
    again = theta_to_alpha(f, thetas[0])
    assert again == models[0] and again is not models[0]
    assert len(f._models) == _MODEL_CACHE_SIZE


def test_threads_sharing_one_frequency_set_get_the_reference_bits():
    # more threads than cores, a short switch interval and more thetas than
    # the cache keeps: each thread scores tables, direct and by the chain,
    # on models that the others evict and rebuild.  Every value has the
    # bits of a fresh model, and the cache never holds more than its bound
    f = AlleleFrequencies((0.3, 0.2, 0.1, 0.25))
    thetas = (0.0, 1e-300, 0.01, 0.03, 0.1, 0.5)
    tables = [CountTable(((2, 0, 0, 0, 0), (1, 1, 0, 0, 0))),
              CountTable(((0, 1, 0, 1, 0), (0, 0, 0, 0, 2))),
              CountTable(((3, 0, 0, 1, 4), (0, 2, 1, 0, 5)))]
    want = {}
    for theta in thetas:
        for table in tables:
            params = MdmParams(table.row_sums, DispersionModel(theta, f))
            want[theta, table] = (mdm_log_pmf(table, params).hex(),
                                  mdm_chain_log_pmf(table, params).hex())
    n_threads = min(4 * (os.cpu_count() or 1), 16)
    bad, sizes, rounds = [], [], [0] * n_threads
    deadline = time.monotonic() + 1.5

    def score(k):
        while time.monotonic() < deadline:
            for i, theta in enumerate(thetas[k % 2::2] + thetas[1 - k % 2::2]):
                table = tables[(i + k) % len(tables)]
                params = MdmParams(table.row_sums, theta_to_alpha(f, theta))
                got = (mdm_log_pmf(table, params).hex(),
                       mdm_chain_log_pmf(table, params).hex())
                if got != want[theta, table]:
                    bad.append((theta, table, got))
                sizes.append(len(f._models))
            rounds[k] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=score, args=(k,))
                   for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert min(rounds) > 0 and not bad
    assert max(sizes) <= _MODEL_CACHE_SIZE == len(f._models)


def test_from_alpha_refuses_a_total_that_is_not_finite():
    with pytest.raises(ParameterError, match="^alpha sums past"):
        DispersionModel.from_alpha((1e308, 1e308))
    # a total so small that theta = 1 / (1 + total) rounds to 1
    with pytest.raises(ParameterError, match=r"^theta = 1.0 outside"):
        DispersionModel.from_alpha((1e-300, 1e-300))


# ---------------------------------------------------------------------------
# CountTable


def test_count_table_margins():
    t = CountTable(((1, 1, 0), (0, 2, 1)))
    assert t.row_sums == (2, 3)
    assert t.col_sums == (1, 3, 1)
    assert t.total == 5
    assert t.n_profiles == 2
    assert t.n_categories == 3


def test_profile_counts_totals_and_width():
    p = ProfileCounts((1, 0, 2))
    assert p.counts == (1, 0, 2)
    assert p.n_total == 3
    assert p.n_categories == 3
    with pytest.raises(TableError):
        ProfileCounts((1, -1))
    with pytest.raises(TableError):
        ProfileCounts(())


def test_count_table_rejects_ragged_rows():
    with pytest.raises(TableError):
        CountTable(((1, 1), (1,)))
    # a ragged row is named before a negative cell in a later row
    with pytest.raises(TableError, match=r"^row 1 has 3 entries, expected 2$"):
        CountTable(((1, 1), (1, 0, 0), (0, -1)))


def test_count_table_rejects_negative_counts():
    with pytest.raises(TableError):
        CountTable(((1, -1),))
    with pytest.raises(TableError, match=r"^counts\[1\]\[2\]: expected an "
                       r"int >= 0, got -2$"):
        CountTable(((1, 1, 0), (0, 3, -2)))
    with pytest.raises(TableError, match=r"^counts\[1\]: expected an int "
                       r">= 0, got -1$"):
        ProfileCounts((0, -1, -2))


def test_count_table_coerces_integer_like_values():
    import numpy as np

    t = CountTable(((np.int64(1), np.int64(1)), (1, np.int64(0))))
    assert t.counts == ((1, 1), (1, 0))
    assert all(type(x) is int for row in t.counts for x in row)
    assert (t.row_sums, t.col_sums, t.total) == ((2, 1), (2, 1), 3)
    for counts, message in [
        (((1.5, 0.5),), "counts[0][0]: expected an int >= 0, got 1.5"),
        (((1, 2.0),), "counts[0][1]: expected an int >= 0, got 2.0"),
        (((1, 1), (True, 0)), "counts[1][0]: expected an int >= 0, got True"),
        # rows are checked in order, each one's cells before its width, and
        # the first bad cell is named
        (((1, 1, 0), (0, 1, 0), (2, "x", -1)),
         "counts[2][1]: expected an int >= 0, got 'x'"),
        (((0, 1), (None, 0)), "counts[1][0]: expected an int >= 0, got None"),
    ]:
        with pytest.raises(TableError) as err:
            CountTable(counts)
        assert str(err.value) == message


def _row_by_row_table(counts):
    """CountTable's fields by the row-by-row rule alone, the reference of
    its one-pass test of tuples of exact ints."""
    rows = []
    for i, row in enumerate(_as_items(counts, "counts", "lists of int",
                                      TableError)):
        rows.append(_as_counts(row, f"counts[{i}]"))
        width = len(rows[0])
        if width == 0:
            raise TableError("a table needs at least one allele column")
        if len(rows[i]) != width:
            raise TableError(f"row {i} has {len(rows[i])} entries, "
                             f"expected {width}")
    if not rows:
        raise TableError("counts: expected a non-empty list")
    rows = tuple(rows)
    row_sums = tuple(map(sum, rows))
    if sum(row_sums) > _MAX_TOTAL:
        raise TableError("counts: the table's total is above 10**300")
    return rows, row_sums, tuple(map(sum, zip(*rows))), sum(row_sums)


# a cell that is not an exact int >= 0
_OTHER_CELL = st.one_of(st.integers(0, 9).map(np.int64), st.just(True),
                        st.floats(0, 9), st.text(max_size=1), st.none(),
                        st.integers(-3, -1))


@st.composite
def _tables(draw):
    """A table as a caller may give it: rows of exact ints from 0 to 9, all
    of one width but in a ragged table; in half the tables one or two cells
    of another kind; each row and the table a list or a tuple.  The width
    and the row count may be 0."""
    # widths and row counts of 0 come first in their lists, as shrinking
    # prefers, but are drawn once in six
    width = draw(st.sampled_from((0, 1, 2, 3, 4, 5)))
    ragged = not draw(st.integers(0, 3))
    rows = []
    for _ in range(draw(st.sampled_from((0, 1, 2, 3, 4, 6)))):
        size = draw(st.integers(0, width + 1)) if ragged else width
        rows.append(draw(st.lists(st.integers(0, 9), min_size=size,
                                  max_size=size)))
    cells = [(i, k) for i, row in enumerate(rows) for k in range(len(row))]
    if cells and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            i, k = draw(st.sampled_from(cells))
            rows[i][k] = draw(_OTHER_CELL)
    lists = not draw(st.integers(0, 3))
    rows = [row if lists and draw(st.booleans()) else tuple(row)
            for row in rows]
    return rows if lists and draw(st.booleans()) else tuple(rows)


@given(_tables())
@example(((1, 0), (0, -1)))
@example(((1, 2), (3,)))
@example(((1, 2), (3,), (0, -1)))
@example(((), ()))
@example(())
@example([(1, 2), [0, 1]])
@example(((1, np.int64(2)), (True, 0)))
@example((5, (1,)))
@example(("ab",))
def test_differential_count_table_is_the_row_by_row_rule(counts):
    try:
        want = _row_by_row_table(counts)
    except TableError as err:
        with pytest.raises(TableError) as got:
            CountTable(counts)
        assert type(got.value) is TableError
        assert str(got.value) == str(err)
        return
    t = CountTable(counts)
    assert (t.counts, t.row_sums, t.col_sums, t.total) == want
    assert type(t.counts) is tuple
    assert all(type(row) is tuple and set(map(type, row)) == {int}
               for row in t.counts)
    assert set(map(type, t.row_sums + t.col_sums + (t.total,))) == {int}
    if all(type(row) is tuple and set(map(type, row)) <= {int}
           for row in counts):
        # a row that passes the one-pass test is kept as it is
        assert all(kept is row for kept, row in zip(t.counts, counts))


def test_a_table_of_many_rows_has_its_column_sums():
    # column sums over more than a few rows are not one chain of maps, which
    # at this depth would overflow the C stack
    rows = ((1, 0, 2),) * 100_000
    t = CountTable(rows)
    assert t.col_sums == (100_000, 0, 200_000)
    assert t.total == 300_000


# ---------------------------------------------------------------------------
# MarginState


def test_margin_state_remaining_capacity():
    s = MarginState(n_col=1, s_prev=2, n_contributors=2)
    assert s.remaining == 2


def test_margin_state_rejects_overfull_states():
    with pytest.raises(ParameterError):
        MarginState(n_col=3, s_prev=2, n_contributors=2)
    with pytest.raises(ParameterError):
        MarginState(n_col=-1, s_prev=0, n_contributors=2)


# ---------------------------------------------------------------------------
# SubsetSpec


def test_subset_spec_complement_preserves_order():
    spec = SubsetSpec((0, 2))
    assert spec.complement(4) == (1, 3)
    spec.validate_for(3)
    with pytest.raises(ParameterError):
        spec.validate_for(2)


def test_subset_spec_requires_strictly_increasing_indices():
    with pytest.raises(ParameterError):
        SubsetSpec((2, 1))
    with pytest.raises(ParameterError):
        SubsetSpec((1, 1))


# ---------------------------------------------------------------------------
# a caller's integers


def _cli(command, name):
    """The CLI's check of option name, as a flag or config value."""
    def run(value):
        args = _build_parser().parse_args([command])
        setattr(args, name, value)
        _merge(args)
    return run


PAIR_PARAMS = MdmParams((2, 2), DispersionModel.from_alpha((1.0, 2.0, 3.0)))
# every site that takes a caller's integer: value -> a call with the value
# in the checked place, the error class, the field as named, and its least
# value
COUNT_SITES = {
    "CountTable": (lambda v: CountTable(((1, 0), (2, v))), TableError,
                   r"counts\[1\]\[1\]", 0),
    "ProfileCounts": (lambda v: ProfileCounts((1, v)), TableError,
                      r"counts\[1\]", 0),
    "SubsetSpec": (lambda v: SubsetSpec((v,)), ParameterError,
                   r"indices\[0\]", 0),
    "MdmParams": (lambda v: MdmParams((2, v), PAIR_PARAMS.model), ParameterError,
                  r"row_sums\[1\]", 0),
    "MarginState.n_col": (lambda v: MarginState(v, 0, 2), ParameterError,
                          "n_col", 0),
    "MarginState.s_prev": (lambda v: MarginState(0, v, 2), ParameterError,
                           "s_prev", 0),
    "MarginState.n_contributors": (lambda v: MarginState(0, 0, v),
                                   ParameterError, "n_contributors", 1),
    "woe_margin_grid": (woe_margin_grid, ParameterError, "n_contributors", 1),
    "genotype_from_alleles.alleles": (
        lambda v: genotype_from_alleles((v, 1), 3), ParameterError,
        r"alleles\[0\]", 0),
    "genotype_from_alleles.n_categories": (
        lambda v: genotype_from_alleles((0, 1), v), ParameterError,
        "n_categories", 1),
    "MultiplicityClass": (lambda v: MultiplicityClass((2, v)),
                          ParameterError, r"multiplicities\[1\]", 2),
    "count_tables.row_sums": (lambda v: count_tables((2, v), 3), TableError,
                              r"row_sums\[1\]", 0),
    "count_tables.n_categories": (lambda v: count_tables((2,), v),
                                  TableError, "n_categories", 1),
    "enumerate_tables.row_sums": (
        lambda v: next(enumerate_tables((2, v), 3)), TableError,
        r"row_sums\[1\]", 0),
    "enumerate_tables.n_categories": (
        lambda v: next(enumerate_tables((2,), v)), TableError,
        "n_categories", 1),
    "enumerate_tables_with_margins.row_sums": (
        lambda v: next(enumerate_tables_with_margins((2, v), (2, 2))),
        TableError, r"row_sums\[1\]", 0),
    "enumerate_tables_with_margins.col_sums": (
        lambda v: next(enumerate_tables_with_margins((2, 2), (2, v))),
        TableError, r"col_sums\[1\]", 0),
    "MdmSampler.seed": (lambda v: MdmSampler(PAIR_PARAMS, v), ParameterError,
                        "seed", 0),
    "cli.seed": (_cli("sample", "seed"), ParameterError, "seed", 0),
    "cli.rows": (lambda v: _cli("moments", "rows")([2, v]), ParameterError,
                 r"rows\[1\]", 0),
    "cli.contributors": (_cli("woe-curve", "contributors"), ParameterError,
                         "contributors", 1),
}


@pytest.mark.parametrize("kind", ["bool", "float", "below least"])
@pytest.mark.parametrize("site", COUNT_SITES)
def test_a_callers_integer_is_refused_as_a_bool_a_float_or_below_least(
        site, kind):
    call, error, field, least = COUNT_SITES[site]
    # 2.9 would truncate to 2, which MultiplicityClass records
    value = {"bool": True, "float": 2.9 if least == 2 else 2.0,
             "below least": least - 1}[kind]
    with pytest.raises(error, match=rf"^{field}: expected an int >= {least}, "
                       rf"got {re.escape(repr(value))}$"):
        call(value)


# ---------------------------------------------------------------------------
# a caller's reals and lists


# every site that takes a caller's real: value -> a call with the value in
# the checked place, and the field as named
REAL_SITES = {
    **{f"{taker}.theta": (call, "theta")
       for taker, call in THETA_TAKERS.items()},
    "AlleleFrequencies": (lambda v: AlleleFrequencies((0.5, v)), "probs[1]"),
    "DispersionModel.from_alpha": (
        lambda v: DispersionModel.from_alpha((1.0, v)), "alpha[1]"),
    "woe_step.Q": (lambda v: woe_step(STATE, v, 0.1), "Q"),
    "woe_step.tail_mass": (lambda v: woe_step(STATE, 0.3, 0.1, v),
                           "tail_mass"),
    "woe_curve.Q": (lambda v: woe_curve([STATE], v, [0.1]), "Q"),
    "woe_curve.tail_mass": (lambda v: woe_curve([STATE], 0.3, [0.1], v),
                            "tail_mass"),
}


@pytest.mark.parametrize("value", [True, np.True_, "0.1", b"0", None],
                         ids=["bool", "numpy-bool", "str", "bytes", "None"])
@pytest.mark.parametrize("site", REAL_SITES)
def test_a_callers_real_is_refused_as_a_bool_text_or_none(site, value):
    call, field = REAL_SITES[site]
    with pytest.raises(ParameterError) as err:
        call(value)
    assert str(err.value) == f"{field}: expected float, got {value!r}"


def test_the_cli_takes_a_float_option_that_is_not_text_by_the_same_rule():
    # text is parsed, None leaves the option unset, and any other value
    # goes through the library's rule
    for name in ("theta", "tail_mass"):
        for value in (True, np.True_, b"0", [0.1]):
            with pytest.raises(ParameterError) as err:
                _cli("woe-curve", name)(value)
            assert str(err.value) == f"{name}: expected float, got {value!r}"


def test_frequencies_from_numpy_give_the_bits_of_floats():
    probs = (0.1, 0.2, 1.0 / 3.0)
    want = AlleleFrequencies(probs)
    for same in (np.array(probs), tuple(map(np.float64, probs)),
                 [np.float32(0.1), 0.2, 1.0 / 3.0]):
        got = AlleleFrequencies(same)
        floats = AlleleFrequencies(tuple(map(float, same)))
        assert all(type(p) is float for p in got.extended_probs)
        assert repr((got.extended_probs, got.log_extended_probs)) == repr(
            (floats.extended_probs, floats.log_extended_probs))
    assert repr(AlleleFrequencies(np.array(probs))) == repr(want)
    model = DispersionModel.from_alpha(np.array((1.0, 2.5)))
    assert repr(model) == repr(DispersionModel.from_alpha((1.0, 2.5)))


def test_an_empty_list_of_reals_is_refused_naming_the_field():
    for call, field in ((AlleleFrequencies, "probs"),
                        (DispersionModel.from_alpha, "alpha")):
        for empty in ((), [], np.array([])):
            with pytest.raises(ParameterError) as err:
                call(empty)
            assert str(err.value) == f"{field}: expected a non-empty list"


# every refusal of an empty table, row or list of ints: a call, the error
# class and the message, which names the field
EMPTY_SITES = {
    "MdmParams": (lambda: MdmParams((), PAIR_PARAMS.model), ParameterError,
                  "row_sums: expected a non-empty list"),
    "CountTable": (lambda: CountTable(()), TableError,
                   "counts: expected a non-empty list"),
    "CountTable.row": (lambda: CountTable(((), ())), TableError,
                       "a table needs at least one allele column"),
    "SubsetSpec": (lambda: SubsetSpec(()), ParameterError,
                   "indices: expected a non-empty list"),
    "enumerate_tables": (lambda: next(enumerate_tables((), 3)), TableError,
                         "row_sums: expected a non-empty list"),
    "enumerate_tables_with_margins.row_sums": (
        lambda: next(enumerate_tables_with_margins((), (2, 2))), TableError,
        "row_sums: expected a non-empty list"),
    "enumerate_tables_with_margins.col_sums": (
        lambda: next(enumerate_tables_with_margins((2, 2), ())), TableError,
        "col_sums: expected a non-empty list"),
}


@pytest.mark.parametrize("site", EMPTY_SITES)
def test_an_empty_table_or_list_of_ints_is_refused(site):
    call, error, message = EMPTY_SITES[site]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


# every site that takes a caller's list: value -> a call with the value in
# the list's place, the error class, the field as named and the kind of its
# entries
LIST_SITES = {
    "CountTable": (CountTable, TableError, "counts", "lists of int"),
    "CountTable.row": (lambda v: CountTable(((1, 0), v)), TableError,
                       r"counts\[1\]", "int"),
    "ProfileCounts": (ProfileCounts, TableError, "counts", "int"),
    "SubsetSpec": (SubsetSpec, ParameterError, "indices", "int"),
    "MdmParams": (lambda v: MdmParams(v, PAIR_PARAMS.model), ParameterError,
                  "row_sums", "int"),
    "MultiplicityClass": (MultiplicityClass, ParameterError,
                          "multiplicities", "int"),
    "genotype_from_alleles": (lambda v: genotype_from_alleles(v, 3),
                              ParameterError, "alleles", "int"),
    "count_tables": (lambda v: count_tables(v, 3), TableError, "row_sums",
                     "int"),
    "enumerate_tables": (lambda v: next(enumerate_tables(v, 3)), TableError,
                         "row_sums", "int"),
    "enumerate_tables_with_margins.row_sums": (
        lambda v: next(enumerate_tables_with_margins(v, (2, 2))),
        TableError, "row_sums", "int"),
    "enumerate_tables_with_margins.col_sums": (
        lambda v: next(enumerate_tables_with_margins((2, 2), v)),
        TableError, "col_sums", "int"),
    "AlleleFrequencies": (AlleleFrequencies, ParameterError, "probs",
                          "float"),
    "DispersionModel.from_alpha": (DispersionModel.from_alpha,
                                   ParameterError, "alpha", "float"),
    "woe_curve": (lambda v: woe_curve([STATE], 0.3, v), ParameterError,
                  "theta_grid", "float"),
    "pair_ratio_curves": (lambda v: pair_ratio_curves(QUAD, v),
                          ParameterError, "theta_grid", "float"),
}


@pytest.mark.parametrize("value", [2, 0.1, "12", b"12", None, np.array(2)],
                         ids=["int", "float", "str", "bytes", "None",
                              "numpy-0d"])
@pytest.mark.parametrize("site", LIST_SITES)
def test_a_callers_list_is_refused_as_a_scalar_or_text(site, value):
    call, error, field, kind = LIST_SITES[site]
    with pytest.raises(error, match=rf"^{field}: expected a list of {kind}, "
                       rf"got {re.escape(repr(value))}$"):
        call(value)


# every site that takes one of the package's own objects: value -> a call
# with the value in its place, and the message's field and type
COMPONENT_SITES = {
    "DispersionModel.freqs": (lambda v: DispersionModel(0.1, v),
                              "freqs: expected an AlleleFrequencies"),
    "theta_to_alpha.freqs": (lambda v: theta_to_alpha(v, 0.1),
                             "freqs: expected an AlleleFrequencies"),
    "MdmParams.model": (lambda v: MdmParams((2, 2), v),
                        "model: expected a DispersionModel"),
    "MdmSampler.params": (lambda v: MdmSampler(v, 1),
                          "params: expected a MdmParams"),
    "woe_curve.states": (lambda v: woe_curve([STATE, v], 0.3, [0.1]),
                         r"states\[1\]: expected a MarginState"),
    "woe_step.margin": (lambda v: woe_step(v, 0.3, 0.1),
                        "margin: expected a MarginState"),
    "pair_ratio_curves.freqs": (lambda v: pair_ratio_curves(v, [0.1]),
                                "freqs: expected an AlleleFrequencies"),
    "GenotypePair.first": (lambda v: GenotypePair(v, GENOTYPE),
                           "first: expected a ProfileCounts"),
    "GenotypePair.second": (lambda v: GenotypePair(GENOTYPE, v),
                            "second: expected a ProfileCounts"),
    "pair_ratio.pair": (lambda v: pair_ratio(v, QUAD, 0.1),
                        "pair: expected a GenotypePair"),
    "pair_ratio.freqs": (lambda v: pair_ratio(PAIR, v, 0.1),
                         "freqs: expected an AlleleFrequencies"),
    "pair_ratio_via_pmfs.pair": (lambda v: pair_ratio_via_pmfs(v, QUAD, 0.1),
                                 "pair: expected a GenotypePair"),
    "pair_ratio_via_pmfs.freqs": (
        lambda v: pair_ratio_via_pmfs(PAIR, v, 0.1),
        "freqs: expected an AlleleFrequencies"),
    "pair_ratio_via_steps.pair": (
        lambda v: pair_ratio_via_steps(v, QUAD, 0.1),
        "pair: expected a GenotypePair"),
    "pair_ratio_via_steps.freqs": (
        lambda v: pair_ratio_via_steps(PAIR, v, 0.1),
        "freqs: expected an AlleleFrequencies"),
}


@pytest.mark.parametrize("value", [None, (0.5, 0.5), "x", 1.0],
                         ids=["None", "tuple", "str", "float"])
@pytest.mark.parametrize("site", COMPONENT_SITES)
def test_a_component_of_the_wrong_type_is_refused_naming_the_field(
        site, value):
    call, message = COMPONENT_SITES[site]
    with pytest.raises(ParameterError,
                       match=rf"^{message}, got {re.escape(repr(value))}$"):
        call(value)


def test_a_component_of_another_package_type_is_refused():
    # a model of the wrong type used to pass MdmParams and fail later
    model = PAIR_PARAMS.model
    for site, value in (("DispersionModel.freqs", model),
                        ("theta_to_alpha.freqs", PAIR_PARAMS),
                        ("MdmParams.model", model.freqs),
                        ("MdmSampler.params", model),
                        ("woe_curve.states", QUAD),
                        ("woe_step.margin", QUAD),
                        ("pair_ratio_curves.freqs", STATE),
                        ("GenotypePair.first", STATE),
                        ("GenotypePair.second", QUAD),
                        ("pair_ratio.pair", GENOTYPE),
                        ("pair_ratio.freqs", model),
                        ("pair_ratio_via_pmfs.pair", GENOTYPE),
                        ("pair_ratio_via_pmfs.freqs", PAIR),
                        ("pair_ratio_via_steps.pair", STATE),
                        ("pair_ratio_via_steps.freqs", PAIR_PARAMS)):
        call, message = COMPONENT_SITES[site]
        with pytest.raises(ParameterError, match=rf"^{message}, got "
                           rf"{type(value).__name__}\("):
            call(value)


@pytest.mark.parametrize("name", ["rows", "q_values", "theta_grid"])
def test_the_cli_refuses_a_scalar_for_a_list_option_in_the_same_words(name):
    kind = "int" if name == "rows" else "float"
    with pytest.raises(ParameterError) as err:
        _cli("moments", name)(2)
    assert str(err.value) == f"{name}: expected a list of {kind}, got 2"


# ---------------------------------------------------------------------------
# frequency files


def test_read_frequency_csv_round_trip(tmp_path):
    path = tmp_path / "freqs.csv"
    path.write_text(
        "locus,allele,frequency\n"
        "L1,a,0.1\n"
        "L1,b,0.4\n"
        "L2,x,0.5\n"
        "L2,y,0.5\n"
    )
    table = read_frequency_csv(path)
    assert set(table) == {"L1", "L2"}
    l1 = table["L1"]
    assert l1.allele_names == ("a", "b")
    assert l1.freqs.rest_mass == pytest.approx(0.5)
    assert table["L2"].freqs.rest_mass == 0.0


def test_read_frequency_csv_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "locus,allele,frequency\n"
        "L1,a,0.1\n"
        "L1,b,zebra\n"
    )
    with pytest.raises(FrequencyFileError, match="line 3"):
        read_frequency_csv(path)
    # lines are physical: the quoted allele name spans lines 2 and 3
    path.write_text(
        "locus,allele,frequency\n"
        'L1,"a\nb",0.1\n'
        "L1,c,zebra\n"
    )
    with pytest.raises(FrequencyFileError,
                       match=r"line 4: frequency 'zebra' is not a number"):
        read_frequency_csv(path)


def test_read_frequency_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("chrom,allele,frequency\nL1,a,0.1\n")
    with pytest.raises(FrequencyFileError):
        read_frequency_csv(path)


def test_read_frequency_csv_names_a_path_that_holds_a_nul():
    # open refuses the path with a bare ValueError; the reader names it
    with pytest.raises(FrequencyFileError) as err:
        read_frequency_csv("a\x00b")
    assert str(err.value) == "'a\\x00b': embedded null byte"


def test_read_frequency_csv_rejects_duplicate_allele(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "locus,allele,frequency\n"
        "L1,a,0.1\n"
        "L1,a,0.2\n"
    )
    with pytest.raises(FrequencyFileError):
        read_frequency_csv(path)
