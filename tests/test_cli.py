# SPDX-License-Identifier: Apache-2.0
"""Command-line interface: schemas, determinism, option precedence."""

from __future__ import annotations

import csv
import json
import math
import re

import pytest

from mdmix import (AlleleFrequencies, CountTable, MdmParams, TableError,
                   mdm_log_pmf, theta_to_alpha)
from mdmix.cli import main, parse_theta_grid, read_table_csv

FREQ_CSV = """locus,allele,frequency
D1,10,0.025
D1,11,0.05
D1,12,0.1
D1,13,0.2
D1,14,0.4
D2,8,0.5
D2,9,0.5
"""

TABLE_CSV = """profile,allele_1,allele_2,allele_3,allele_4,allele_5,allele_6
suspect,2,0,0,0,0,0
unknown,1,1,0,0,0,0
"""


@pytest.fixture
def freq_file(tmp_path):
    path = tmp_path / "freqs.csv"
    path.write_text(FREQ_CSV)
    return str(path)


@pytest.fixture
def table_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(TABLE_CSV)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# helpers


def test_parse_theta_grid_range_and_list():
    assert parse_theta_grid("0:0.2:0.1") == pytest.approx((0.0, 0.1, 0.2))
    assert parse_theta_grid("0.05,0.3") == pytest.approx((0.05, 0.3))
    with pytest.raises(Exception):
        parse_theta_grid("0:0.5")
    with pytest.raises(Exception):
        parse_theta_grid("0:2:0.5")


def test_read_table_csv(tmp_path, table_file):
    ids, table = read_table_csv(table_file)
    assert ids == ("suspect", "unknown")
    assert table.counts == ((2, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0))
    bad = tmp_path / "bad.csv"
    bad.write_text("profile,allele_1,allele_3\nx,1,1\n")
    with pytest.raises(TableError, match="allele_2"):
        read_table_csv(str(bad))


# ---------------------------------------------------------------------------
# pmf


def test_pmf_matches_library_value(tmp_path, freq_file, table_file):
    out = tmp_path / "pmf.csv"
    code = main(["pmf", "--freqs", freq_file, "--table", table_file,
                 "--locus", "D1", "--theta", "0.03", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["table_id", "log_pmf", "pmf"]
    assert len(rows) == 2
    freqs = AlleleFrequencies((0.025, 0.05, 0.1, 0.2, 0.4))
    params = MdmParams((2, 2), theta_to_alpha(freqs, 0.03))
    expected = mdm_log_pmf(CountTable(((2, 0, 0, 0, 0, 0),
                                       (1, 1, 0, 0, 0, 0))), params)
    assert float(rows[1][1]) == pytest.approx(expected, rel=1e-15)
    assert float(rows[1][2]) == pytest.approx(math.exp(expected), rel=1e-15)


def test_pmf_unknown_locus_is_a_usage_error(capsys, freq_file, table_file):
    code = main(["pmf", "--freqs", freq_file, "--table", table_file,
                 "--locus", "NOPE", "--theta", "0.03"])
    assert code == 2
    assert "NOPE" in capsys.readouterr().err


def test_pmf_width_mismatch_is_a_usage_error(capsys, freq_file, table_file):
    code = main(["pmf", "--freqs", freq_file, "--table", table_file,
                 "--locus", "D2", "--theta", "0.03"])
    assert code == 2
    assert "categories" in capsys.readouterr().err


def test_pmf_missing_required_option(capsys, freq_file, table_file):
    code = main(["pmf", "--freqs", freq_file, "--table", table_file,
                 "--locus", "D1"])
    assert code == 2
    assert "--theta" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# moments


def test_moments_schema_and_mean_value(tmp_path, freq_file):
    out = tmp_path / "mom.csv"
    code = main(["moments", "--freqs", freq_file, "--locus", "D2",
                 "--theta", "0.1", "--rows", "2,2", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["kind", "profile", "allele", "profile2", "allele2",
                       "value"]
    means = [r for r in rows[1:] if r[0] == "mean"]
    covs = [r for r in rows[1:] if r[0] == "cov"]
    assert len(means) == 4 and len(covs) == 16
    assert float(means[0][5]) == pytest.approx(1.0)  # 2 draws at q = 0.5
    # same-cell variance 2 q (1-q) (1 + theta)
    first_cov = next(r for r in covs
                     if r[1:5] == ["1", "1", "1", "1"])
    assert float(first_cov[5]) == pytest.approx(2 * 0.25 * 1.1, rel=1e-14)


# ---------------------------------------------------------------------------
# woe-curve


def test_woe_curve_schema_and_grid(tmp_path):
    out = tmp_path / "woe.csv"
    code = main(["woe-curve", "--theta-grid", "0,0.1,0.3",
                 "--q-values", "0.1", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["n_col", "s_prev", "Q", "theta", "woe"]
    assert len(rows) == 1 + 15 * 3
    zeros = [r for r in rows[1:] if r[3] == "0"]
    assert len(zeros) == 15
    assert all(r[4] == "1" for r in zeros)


def test_woe_curve_default_grid_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["woe-curve", "--out", str(a)]) == 0
    assert main(["woe-curve", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_rows(a)
    # five default Q values, 15 states, 51 grid points
    assert len(rows) == 1 + 5 * 15 * 51


# ---------------------------------------------------------------------------
# ratio-curve


def test_ratio_curve_lists_all_classes(tmp_path, freq_file):
    out = tmp_path / "ratio.csv"
    code = main(["ratio-curve", "--freqs", freq_file, "--locus", "D1",
                 "--theta-grid", "0,0.25,0.5", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["class", "theta", "ratio"]
    by_class = {}
    for label, theta, ratio in rows[1:]:
        by_class.setdefault(label, []).append((float(theta), float(ratio)))
    assert list(by_class) == ["()", "(2)", "(2,2)", "(3)", "(4)"]
    for label, pts in by_class.items():
        assert pts[0] == (0.0, 1.0)
    # deterministic repeat
    out2 = tmp_path / "ratio2.csv"
    main(["ratio-curve", "--freqs", freq_file, "--locus", "D1",
          "--theta-grid", "0,0.25,0.5", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# sample


def test_sample_is_reproducible_and_reports_metadata(tmp_path, capsys,
                                                     freq_file):
    out = tmp_path / "s.csv"
    code = main(["sample", "--freqs", freq_file, "--locus", "D1",
                 "--theta", "0.1", "--rows", "2,2", "--seed", "42",
                 "--out", str(out)])
    assert code == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["algorithm"] == "pcg64-urn-deal-v1"
    assert meta["seed"] == 42
    assert meta["row_sums"] == [2, 2]
    rows = read_rows(out)
    assert rows[0][:2] == ["profile", "allele_1"]
    table = CountTable(tuple(tuple(int(x) for x in r[1:]) for r in rows[1:]))
    assert table.row_sums == (2, 2)

    again = tmp_path / "s2.csv"
    main(["sample", "--freqs", freq_file, "--locus", "D1", "--theta", "0.1",
          "--rows", "2,2", "--seed", "42", "--out", str(again)])
    assert out.read_bytes() == again.read_bytes()


# ---------------------------------------------------------------------------
# validate


def test_validate_passes_and_reports_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert {s["name"] for s in report["suites"]} >= {
        "normalization", "chain-equivalence", "moment-oracle"}
    assert all(s["passed"] for s in report["suites"])


# ---------------------------------------------------------------------------
# config file precedence


def test_flags_override_config_file(tmp_path, capsys, freq_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": 0.2, "locus": "D1",
                               "rows": [2, 2], "seed": 9}))
    out = tmp_path / "s.csv"
    code = main(["sample", "--freqs", freq_file, "--config", str(cfg),
                 "--seed", "10", "--out", str(out)])
    assert code == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["seed"] == 10      # flag wins
    assert meta["theta"] == 0.2    # config fills the gap
    assert meta["locus"] == "D1"


def test_config_must_be_a_json_object(tmp_path, capsys, freq_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code = main(["sample", "--freqs", freq_file, "--config", str(cfg),
                 "--theta", "0.1", "--rows", "2,2"])
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command, field, value", [
    ("moments", "theta", "abc"),
    ("moments", "theta", [0.1]),
    ("sample", "seed", "x"),
    ("sample", "seed", 1e400),
    ("sample", "seed", -1),
    ("moments", "rows", ["two", 2]),
    ("moments", "rows", 4),
    ("woe-curve", "q_values", ["0.1", "high"]),
    ("woe-curve", "contributors", "two"),
    ("woe-curve", "tail_mass", "heavy"),
    ("woe-curve", "theta_grid", [0.0, None]),
    ("moments", "rows", [2.5, 2]),
    ("sample", "seed", 1.7),
    ("sample", "seed", True),
    ("woe-curve", "contributors", 2.9),
    ("woe-curve", "tail_mass", True),
])
def test_config_value_of_the_wrong_type_is_a_usage_error(
        tmp_path, capsys, command, field, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mdmix {command}: error: {field}: expected")


@pytest.mark.parametrize("flags, config", [
    pytest.param(["--theta-grid", "0:inf:0.1"], None, id="inf-stop"),
    pytest.param(["--theta-grid", "0:nan:0.1"], None, id="nan-stop"),
    pytest.param(["--theta-grid", "0:0.5:nan"], None, id="nan-step"),
    pytest.param(["--theta-grid", "nan:0.5:0.1"], None, id="nan-start"),
    pytest.param(["--theta-grid", "0:0.5:1e-9"], None, id="5e8-points"),
    pytest.param([], {"theta_grid": [0.0, 2.0]}, id="config-list-above-1"),
])
def test_bad_theta_grid_is_a_usage_error(tmp_path, capsys, flags, config):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = ["--config", str(cfg)]
    assert main(["woe-curve", *flags]) == 2
    err = capsys.readouterr().err
    assert re.search(r"error: theta[ _]grid", err)
    assert "Traceback" not in err
