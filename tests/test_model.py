# SPDX-License-Identifier: Apache-2.0
"""Parameter containers: frequency sets, dispersion models, count tables."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

import numpy as np

from mdmix import (AlleleFrequencies, CountTable, DispersionModel,
                   FrequencyFileError, GenotypePair, MdmParams,
                   ParameterError, ProfileCounts, SubsetSpec, TableError,
                   covariance_matrix, genotype_from_alleles, pair_ratio,
                   pair_ratio_curves, read_frequency_csv, theta_to_alpha,
                   woe_curve, woe_step)
from mdmix.evidence import MarginState


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
    for bad in ("abc", "0.1", b"0", bytearray(b"0"), True, None):
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
    with pytest.raises(TableError,
                       match=r"^counts\[1\]\[2\] = -2 is negative$"):
        CountTable(((1, 1, 0), (0, 3, -2)))
    with pytest.raises(TableError, match=r"^counts\[1\] = -1 is negative$"):
        ProfileCounts((0, -1, -2))


def test_count_table_coerces_integer_like_values():
    import numpy as np

    t = CountTable(((np.int64(1), np.int64(1)), (True, np.int64(0))))
    assert t.counts == ((1, 1), (1, 0))
    assert all(type(x) is int for row in t.counts for x in row)
    assert (t.row_sums, t.col_sums, t.total) == ((2, 1), (2, 1), 3)
    for counts, message in [
        (((1.5, 0.5),), "counts[0][0] must be an integer, got 1.5"),
        (((1, 2.0),), "counts[0][1] must be an integer, got 2.0"),
        # every cell is converted before any other check, and the first
        # non-integer in row-major order is the one named
        (((1, -1), (0, 1), (2, "x", 0.5)),
         "counts[2][1] must be an integer, got 'x'"),
        (((0, 1), (None,)), "counts[1][0] must be an integer, got None"),
    ]:
        with pytest.raises(TableError) as err:
            CountTable(counts)
        assert str(err.value) == message


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


def test_read_frequency_csv_rejects_duplicate_allele(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "locus,allele,frequency\n"
        "L1,a,0.1\n"
        "L1,a,0.2\n"
    )
    with pytest.raises(FrequencyFileError):
        read_frequency_csv(path)
