# SPDX-License-Identifier: Apache-2.0
"""Command-line interface: schemas, determinism, option precedence."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

import mdmix
from mdmix import (AlleleFrequencies, CountTable, MdmParams, ParameterError,
                   TableError, mdm_log_pmf, read_frequency_csv,
                   theta_to_alpha)
from mdmix.cli import (COMMANDS, MAX_MOMENT_CELLS, MAX_SAMPLE_SIZE,
                       MAX_THETA_GRID_POINTS, MAX_WOE_CONTRIBUTORS, OPTIONS,
                       main, parse_theta_grid, read_table_csv)

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


def test_range_points_are_rounded_once():
    # start + k * step in exact arithmetic on the fields' shortest text:
    # the doubles 0.1 * 3 and 0.01 * 35 are not 0.3 and 0.35
    assert parse_theta_grid("0:0.9:0.1")[3] == 0.3
    assert parse_theta_grid("0:0.5:0.01") == tuple(k / 100 for k in
                                                    range(51))
    # the stop is a point when it is one exactly, and never overshot
    assert parse_theta_grid("0:0.3:0.1")[-1] == 0.3
    assert parse_theta_grid("0:0.29999999999999:0.1")[-1] == 0.2


@pytest.mark.parametrize("spec, result", [
    ("0:1/3:0.1", "non-numeric"),
    ("0:0.5:1/3", "non-numeric"),
    ("0:inf:0.1", "non-finite"),
    ("-inf:0.5:0.1", "non-finite"),
    ("0:0.5:1e-999999999", "not increasing"),
    ("0:1e-999999999:0.1", (0.0,)),
    ("1e-999999999:0.2:0.1", (0.0, 0.1, 0.2)),
])
def test_range_fields_are_parsed_as_doubles(spec, result):
    # Fraction would take 1/3 as a field, and build 10**999999999 for
    # 1e-999999999, which float() reads as 0.0 at once
    if isinstance(result, tuple):
        assert parse_theta_grid(spec) == result
    else:
        with pytest.raises(ParameterError, match=result):
            parse_theta_grid(spec)


@pytest.mark.parametrize("command", ["woe-curve", "ratio-curve"])
def test_the_default_grid_prints_the_bytes_of_its_text(capsys, freq_file,
                                                  command):
    argv = ([command, "--q-values", "0.1"] if command == "woe-curve"
            else [command, "--freqs", freq_file, "--locus", "D1"])
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--theta-grid", "0:0.5:0.01"]) == 0
    assert capsys.readouterr().out == default
    assert len(default.splitlines()) > 51


def _env_with_src():
    return dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(mdmix.__file__)))


@pytest.mark.parametrize("argv, fractions, numpy", [
    (["pmf", "--theta", "0.1"], False, False),
    (["moments", "--theta", "0.1", "--rows", "2"], False, True),
    (["sample", "--theta", "0.1", "--rows", "2"], False, True),
    (["ratio-curve", "--theta-grid", "0.1"], False, True),
    (["woe-curve", "--theta-grid", "0.1", "--q-values", "0.1"], False, True),
    (["woe-curve", "--q-values", "0.1"], True, True),
    (["validate"], False, True),
])
def test_each_command_imports_only_the_modules_it_uses(freq_file, table_file,
                                                       argv, fractions,
                                                       numpy):
    # the commands start in a fresh interpreter, where the package imports
    # neither fractions nor numpy; a default range grid imports fractions,
    # once parsed, and each command but pmf a module that imports numpy
    if argv[0] in ("pmf", "moments", "sample", "ratio-curve"):
        argv = [*argv, "--freqs", freq_file, "--locus", "D1"]
    if argv[0] == "pmf":
        argv = [*argv, "--table", table_file]
    code = ("import sys; from mdmix.cli import main; main(sys.argv[1:]); "
            "print('fractions' in sys.modules, 'numpy' in sys.modules, "
            "file=sys.stderr)")
    run = subprocess.run([sys.executable, "-c", code, *argv, "--out",
                          os.devnull], env=_env_with_src(),
                         capture_output=True, text=True, check=True)
    assert run.stderr == f"{fractions} {numpy}\n"


def test_importing_the_package_or_the_cli_loads_no_numpy():
    code = ("import sys, mdmix; package = 'numpy' in sys.modules; "
            "import mdmix.cli; print(package, 'numpy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=_env_with_src(),
                         capture_output=True, text=True, check=True)
    assert run.stdout == "False False\n"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_prints_each_default_once(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for name in COMMANDS[command][2]:
        default = OPTIONS[name][2]
        if default is not None:
            assert text.count(f"(default {default})") == 1, name


def test_read_table_csv(tmp_path, table_file):
    ids, table = read_table_csv(table_file)
    assert ids == ("suspect", "unknown")
    assert table.counts == ((2, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0))
    bad = tmp_path / "bad.csv"
    bad.write_text("profile,allele_1,allele_3\nx,1,1\n")
    with pytest.raises(TableError, match="allele_2"):
        read_table_csv(str(bad))


def test_read_table_csv_names_a_path_that_holds_a_nul():
    with pytest.raises(TableError) as err:
        read_table_csv("a\x00b")
    assert str(err.value) == "'a\\x00b': embedded null byte"


@pytest.mark.parametrize("kind", ["freqs", "table"])
def test_a_file_that_starts_with_a_byte_order_mark_reads_the_same(
        tmp_path, capsys, freq_file, table_file, kind):
    # spreadsheet programs save "CSV UTF-8" with a leading U+FEFF
    text = {"freqs": FREQ_CSV, "table": TABLE_CSV}[kind]
    marked = tmp_path / "bom.csv"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    assert marked.read_bytes()[:4] == b"\xef\xbb\xbf" + text[:1].encode()
    plain = {"freqs": freq_file, "table": table_file}
    read = {"freqs": read_frequency_csv, "table": read_table_csv}[kind]
    assert read(str(marked)) == read(plain[kind])
    outputs = []
    for files in (plain, {**plain, kind: str(marked)}):
        assert main(["pmf", "--freqs", files["freqs"], "--table",
                     files["table"], "--locus", "D1", "--theta", "0.03"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


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


@pytest.mark.parametrize("big", [10 ** 306, 10 ** 400])
def test_pmf_with_a_count_past_the_cap_is_a_usage_error(tmp_path, capsys,
                                                        freq_file, big):
    # these ended in a traceback: log_factorial's math range error at
    # 10**306 and the float conversion's OverflowError at 10**400; the
    # reader refuses them at their line
    table = tmp_path / "big.csv"
    table.write_text(TABLE_CSV.replace("suspect,2,", f"suspect,{big},"))
    assert main(["pmf", "--freqs", freq_file, "--table", str(table),
                 "--locus", "D1", "--theta", "0.03"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"mdmix pmf: error: {table}: line 2: the "
                            "table's total is above 10**300\n")


def test_pmf_missing_required_option(capsys, freq_file, table_file):
    code = main(["pmf", "--freqs", freq_file, "--table", table_file,
                 "--locus", "D1"])
    assert code == 2
    assert "--theta" in capsys.readouterr().err


def test_pmf_theta_with_infinite_alpha_is_the_multinomial_limit(
        capsys, freq_file, table_file):
    # (1 - theta) / theta overflows to inf below theta ~ 5.6e-309: the
    # alpha_total = inf limit, whose pmf is theta = 0's
    outputs = []
    for theta in ("0", "1e-320"):
        code = main(["pmf", "--freqs", freq_file, "--table", table_file,
                     "--locus", "D1", "--theta", theta])
        assert code == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].out == outputs[1].out
    assert outputs[1].err == ""


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


@pytest.fixture
def one_allele_file(tmp_path):
    # one category, so a table has exactly one cell per profile
    path = tmp_path / "one.csv"
    path.write_text("locus,allele,frequency\nD0,1,1.0\n")
    return str(path)


def test_moments_above_the_cell_cap_is_a_usage_error(tmp_path, capsys,
                                                     one_allele_file):
    rows = ",".join(["1"] * (MAX_MOMENT_CELLS + 1))
    out = tmp_path / "mom.csv"
    assert main(["moments", "--freqs", one_allele_file, "--theta", "0.1",
                 "--rows", rows, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"mdmix moments: error: rows: {MAX_MOMENT_CELLS + 1} profiles x 1 "
        f"categories is {MAX_MOMENT_CELLS + 1} cells, at most "
        f"{MAX_MOMENT_CELLS}\n")
    assert not out.exists()


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


def test_woe_curve_streams_its_rows(tmp_path):
    # five Q values, 231 states and 101 points make 116,655 rows; held as
    # tuples of text they took 44 MiB, and the five tables take 0.9 MiB
    mdmix.evidence  # loaded before tracing, so its import is not counted
    argv = ["woe-curve", "--contributors", "10", "--theta-grid",
            "0:0.5:0.005", "--out", str(tmp_path / "w.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_woe_curve_holds_one_q_table_at_a_time(monkeypatch, tmp_path):
    # 40 Q values at 10 contributors and 1,001 points: each table is 231 x
    # 1,001 doubles (1.8 MB), and the 40 held before the first row took
    # 74 MB; the peak when the first row reaches the writer is at most two
    mdmix.evidence  # loaded before tracing, so its import is not counted
    peaks = []

    def first_row(out, header, rows):
        next(iter(rows))
        peaks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(mdmix.cli, "_write_csv", first_row)
    q_values = ",".join(str(k / 50) for k in range(1, 41))
    argv = ["woe-curve", "--contributors", "10", "--theta-grid",
            "0:0.5:0.0005", "--q-values", q_values]
    tracemalloc.start()
    try:
        assert main(argv) == 0
    finally:
        tracemalloc.stop()
    assert peaks[0] < 2 * 231 * 1001 * 8
    # every Q is still checked before a row is written: the second one
    # underflows its tail mass at the last theta
    out = tmp_path / "w.csv"
    monkeypatch.undo()
    code = main(["woe-curve", "--tail-mass", "1e-300", "--theta-grid",
                 "0,0.5,0.9999999999999999", "--q-values",
                 "0.5,0.9999999999999999", "--out", str(out)])
    assert code == 2
    assert not out.exists()


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


def test_ratio_curve_at_a_subnormal_theta(tmp_path):
    # (1 - theta) / theta overflows below about 5.6e-309: the ratio is the
    # theta -> 0 limit 1, not a traceback
    freqs = tmp_path / "f.csv"
    freqs.write_text("locus,allele,frequency\n"
                     + "".join(f"D1,{a},{q}\n"
                               for a, q in zip("abcd", (0.1, 0.2, 0.3, 0.4))))
    out = tmp_path / "ratio.csv"
    assert main(["ratio-curve", "--freqs", str(freqs), "--locus", "D1",
                 "--theta-grid", "0,1e-310", "--out", str(out)]) == 0
    assert {row[2] for row in read_rows(out)[1:]} == {"1"}


def test_ratio_curve_where_alpha_underflows_is_a_usage_error(tmp_path,
                                                             capsys):
    # q_a (1 - theta) / theta underflows to 0 for the first allele, which
    # the (4) class counts four times
    freqs = tmp_path / "f.csv"
    freqs.write_text("locus,allele,frequency\n"
                     + "".join(f"D1,{a},{q}\n" for a, q in
                               zip("abcd", (1e-320, 0.2, 0.3, 0.4))))
    code = main(["ratio-curve", "--freqs", str(freqs), "--locus", "D1",
                 "--theta-grid", "0,0.9999999999999999",
                 "--out", str(tmp_path / "ratio.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("mdmix ratio-curve: error: theta = "
                          "0.9999999999999999 makes alpha 0")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("rows", ["draws", "cells"])
def test_sample_above_the_size_cap_is_a_usage_error(tmp_path, capsys,
                                                    one_allele_file, rows):
    if rows == "draws":
        row_sums, n_draws, n_cells = [MAX_SAMPLE_SIZE + 1], \
            MAX_SAMPLE_SIZE + 1, 1
    else:
        row_sums, n_draws, n_cells = [0] * (MAX_SAMPLE_SIZE + 1), 0, \
            MAX_SAMPLE_SIZE + 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rows": row_sums}))
    out = tmp_path / "s.csv"
    assert main(["sample", "--config", str(cfg), "--freqs", one_allele_file,
                 "--theta", "0.1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"mdmix sample: error: rows: {n_draws} draws into {n_cells} cells, "
        f"at most {MAX_SAMPLE_SIZE} of each\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# validate


def test_validate_passes_and_reports_json(tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert {s["name"]: s["n_checks"] for s in report["suites"]} == {
        "normalization": 32, "chain-equivalence": 852,
        "marginal-conditional": 144, "hypergeometric": 52,
        "moment-oracle": 83, "woe-properties": 741,
        "sampler-determinism": 402}
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


def test_a_config_that_starts_with_a_byte_order_mark_reads_the_same(
        tmp_path, freq_file):
    text = json.dumps({"freqs": freq_file, "locus": "D1", "theta": 0.03,
                       "rows": [2, 2]})
    outputs = []
    for name, mark in (("plain.json", ""), ("bom.json", "\ufeff")):
        cfg = tmp_path / name
        cfg.write_text(mark + text, encoding="utf-8")
        run = subprocess.run([sys.executable, "-m", "mdmix.cli", "moments",
                              "--config", str(cfg)], env=_env_with_src(),
                             capture_output=True)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert cfg.read_bytes()[:4] == b"\xef\xbb\xbf{"
    assert outputs[0] == outputs[1] and outputs[0]


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
    ("ratio-curve", "freqs", ["a"]),
    ("validate", "out", {"a": 1}),
    ("moments", "locus", ["L"]),
    ("woe-curve", "out", 1),
    ("woe-curve", "q_values", "0.1,high"),
    ("moments", "rows", "two,2"),
    # an empty list of a many-valued option would run on nothing
    ("woe-curve", "theta_grid", []),
    ("woe-curve", "q_values", []),
    ("ratio-curve", "theta_grid", []),
    ("moments", "rows", []),
    # a field written as its flag is given on the command line: a flag
    # and a config value go through the same coercion and message
    ("moments", "--theta", "abc"),
    ("sample", "--seed", "x"),
    ("woe-curve", "--contributors", "two"),
    ("woe-curve", "--contributors", "2.9"),
    ("woe-curve", "--tail-mass", "heavy"),
    ("woe-curve", "--q-values", "0.1,high"),
    ("moments", "--rows", "two,2"),
    # a value of the right type outside the field's range
    ("woe-curve", "--contributors", "0"),
    ("woe-curve", "--contributors", "-1"),
    ("moments", "--rows", "2,-1"),
])
def test_config_value_of_the_wrong_type_is_a_usage_error(
        tmp_path, capsys, command, field, value):
    if field.startswith("--"):
        argv = [command, field, value]
        field = field[2:].replace("-", "_")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        argv = [command, "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    # an entry of a list is named with its index, as rows[1]
    assert re.match(rf"mdmix {command}: error: {field}(\[\d+\])?: expected",
                    err)


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys, freq_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeed": 5, "theta": 0.1, "rows": [2, 2]}))
    out = tmp_path / "s.csv"
    argv = ["sample", "--freqs", freq_file, "--locus", "D1",
            "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "mdmix sample: error: seeed: not an option\n")
    assert not out.exists()
    # a key another subcommand reads is still accepted
    cfg.write_text(json.dumps({"seed": 5, "theta": 0.1, "rows": [2, 2],
                               "q_values": [0.2], "table": "unused.csv"}))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


@pytest.mark.parametrize("bad", ["freqs", "table", "config", "long-field"])
def test_unreadable_input_file_is_a_usage_error(tmp_path, capsys, freq_file,
                                                table_file, bad):
    files = {"freqs": freq_file, "table": table_file,
             "config": str(tmp_path / "cfg.json")}
    (tmp_path / "cfg.json").write_text(json.dumps({"theta": 0.03}))
    bad_file = tmp_path / "bad.csv"
    if bad == "long-field":
        # one field over the csv module's 131,072-character limit
        bad_file.write_text(TABLE_CSV + "x" * 200_000 + ",0,0,0,0,0,0\n")
        files["table"] = str(bad_file)
    else:
        bad_file.write_bytes(b"\xff\xfe not utf-8\n")
        files[bad] = str(bad_file)
    code = main(["pmf", "--freqs", files["freqs"], "--table", files["table"],
                 "--locus", "D1", "--config", files["config"]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mdmix pmf: error: {bad_file}: ")
    assert "Traceback" not in err


FREQ_HEADER = "locus,allele,frequency\n"


# each refusal of a frequency or table file: the file, its text and the
# message after the file's path
@pytest.mark.parametrize("kind, text, message", [
    pytest.param("freqs", "", "empty file", id="freqs-empty"),
    pytest.param("table", "", "empty file", id="table-empty"),
    pytest.param("freqs", "locus,allele\nD1,10\n",
                 "line 1: expected header locus,allele,frequency, got "
                 "locus,allele", id="freqs-header"),
    pytest.param("table", "profile,allele_1,allele_3\nx,1,1\n",
                 "line 1: expected header profile,allele_1,allele_2, got "
                 "profile,allele_1,allele_3", id="table-header"),
    pytest.param("table", "profile\nx\n",
                 "line 1: expected header profile,allele_1, got profile",
                 id="table-header-no-allele"),
    pytest.param("freqs", FREQ_CSV + "D1,15\n",
                 "line 9: expected 3 fields, got 2", id="freqs-width"),
    pytest.param("table", TABLE_CSV + "x,1,0\n",
                 "line 4: expected 7 fields, got 3", id="table-width"),
    pytest.param("freqs", FREQ_HEADER + "\n", "no rows after the header",
                 id="freqs-no-rows"),
    pytest.param("table", TABLE_CSV.partition("\n")[0] + "\n , ,,,,,\n",
                 "no rows after the header", id="table-no-rows"),
    pytest.param("freqs", FREQ_HEADER + "D1,10,0.5\n ,11,0.1\n",
                 "line 3: empty locus or allele name", id="empty-locus"),
    pytest.param("freqs", FREQ_HEADER + "D1, ,0.1\n",
                 "line 2: empty locus or allele name", id="empty-allele"),
    pytest.param("freqs", FREQ_HEADER + "D1,10,0.5\nD1,11,0\n",
                 "line 3: frequency 0.0 is not strictly positive",
                 id="zero-frequency"),
    pytest.param("freqs", FREQ_HEADER + "D1,10,-0.5\n",
                 "line 2: frequency -0.5 is not strictly positive",
                 id="negative-frequency"),
    pytest.param("freqs", FREQ_HEADER + "D1,10,abc\n",
                 "line 2: frequency 'abc' is not a number",
                 id="frequency-not-a-number"),
    pytest.param("freqs", FREQ_HEADER + "D1,10,0.5\nD1,10,0.25\n",
                 "line 3: duplicate allele '10' for locus 'D1'",
                 id="duplicate-allele"),
    pytest.param("freqs", FREQ_HEADER + "D1,10,0.75\nD1,11,0.5\n",
                 "locus 'D1': probabilities sum to 1.25 > 1",
                 id="sum-past-1"),
    pytest.param("table", TABLE_CSV.replace("unknown,1,", "unknown,1.0,"),
                 "line 3: counts must be integers", id="count-not-an-int"),
    pytest.param("table", TABLE_CSV.replace("unknown,1,1,", "unknown,1,-1,"),
                 "line 3: count -1 is negative", id="negative-count"),
    pytest.param("freqs", FREQ_HEADER + "D1,10,0.2_5\n",
                 "line 2: frequency '0.2_5' is not a number",
                 id="frequency-digit-group"),
    pytest.param("freqs", FREQ_HEADER + "D1,10,\u0660.\u0665\n",
                 "line 2: frequency '\u0660.\u0665' is not a number",
                 id="frequency-other-digits"),
    pytest.param("table", TABLE_CSV + "x,1_0,0,0,0,0,0\n",
                 "line 4: counts must be integers", id="count-digit-group"),
    pytest.param("table", TABLE_CSV + "x,1,0,+2,0,0,0\n",
                 "line 4: counts must be integers", id="count-plus-sign"),
    pytest.param("table", TABLE_CSV + "x,1,0,\u0662,0,0,0\n",
                 "line 4: counts must be integers", id="count-other-digits"),
    pytest.param("table", TABLE_CSV.replace("unknown,1,",
                                            f"unknown,{'9' * 4301},"),
                 "line 3: the table's total is above 10**300",
                 id="count-of-4301-digits"),
    pytest.param("table", TABLE_CSV.replace("suspect,2,",
                                            f"suspect,{10 ** 300},"),
                 "line 3: the table's total is above 10**300",
                 id="total-past-the-cap"),
])
def test_a_bad_input_file_exits_2_naming_the_file_and_line(
        tmp_path, capsys, freq_file, table_file, kind, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    files = {"freqs": freq_file, "table": table_file, kind: str(bad)}
    assert main(["pmf", "--freqs", files["freqs"], "--table", files["table"],
                 "--locus", "D1", "--theta", "0.03"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mdmix pmf: error: {bad}: {message}\n"
    assert "...,got" not in captured.err


def test_a_file_of_two_loci_needs_a_locus(capsys, freq_file):
    assert main(["ratio-curve", "--freqs", freq_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"mdmix ratio-curve: error: {freq_file}: 2 loci; "
                            "pick one with --locus\n")


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
    assert re.search(r"error: theta_grid", err)
    assert "Traceback" not in err


def test_a_config_list_grid_meets_the_point_cap(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "w.csv"
    argv = ["woe-curve", "--config", str(cfg), "--contributors", "1",
            "--q-values", "0.1", "--out", str(out)]
    grid = [k / 20_000 for k in range(MAX_THETA_GRID_POINTS + 1)]
    cfg.write_text(json.dumps({"theta_grid": grid}))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "mdmix woe-curve: error: theta_grid has more than "
        f"{MAX_THETA_GRID_POINTS} points\n")
    assert not out.exists()
    cfg.write_text(json.dumps({"theta_grid": grid[:-1]}))
    assert main(argv) == 0
    # one contributor: six states
    assert len(read_rows(out)) == 1 + 6 * MAX_THETA_GRID_POINTS


@pytest.mark.parametrize("source", ["flag", "config"])
def test_woe_curve_contributors_above_the_cap_is_a_usage_error(
        tmp_path, capsys, source):
    too_many = MAX_WOE_CONTRIBUTORS + 1
    if source == "flag":
        flags = ["--contributors", str(too_many)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"contributors": too_many}))
        flags = ["--config", str(cfg)]
    assert main(["woe-curve", *flags, "--out", str(tmp_path / "w.csv")]) == 2
    assert capsys.readouterr().err == (
        f"mdmix woe-curve: error: contributors: at most "
        f"{MAX_WOE_CONTRIBUTORS}, got {too_many}\n")
    assert not (tmp_path / "w.csv").exists()


def test_woe_curve_at_the_contributor_cap_runs(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["woe-curve", "--contributors", str(MAX_WOE_CONTRIBUTORS),
                 "--theta-grid", "0.1", "--q-values", "0.2",
                 "--out", str(out)]) == 0
    capacity = 2 * MAX_WOE_CONTRIBUTORS
    assert len(read_rows(out)) == 1 + (capacity + 1) * (capacity + 2) // 2


# ---------------------------------------------------------------------------
# edge inputs, every numeric subcommand

EDGE_THETAS = ("0", "-0.0", "5e-324", "1e-320", "5.56e-309",
               "5.562684646268097e-309", "1e-300", repr(1.0 - 2.0 ** -53),
               "1", "nan", "inf")

# loci whose frequencies sum to exactly 1, to 1 + 1e-13 (within the
# tolerance), to 1 with a subnormal allele, and to 1/2 with a rest class;
# each has three categories, as the table below
EDGE_FREQ_CSV = """locus,allele,frequency
exact,a,0.25
exact,b,0.25
exact,c,0.5
over,a,0.3
over,b,0.3
over,c,0.4000000000001
tiny,a,1e-310
tiny,b,0.5
tiny,c,0.5
short,a,0.2
short,b,0.3
"""


@pytest.fixture(scope="module")
def edge_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("edge")
    (root / "freqs.csv").write_text(EDGE_FREQ_CSV)
    (root / "table.csv").write_text(
        "profile,allele_1,allele_2,allele_3\ns,2,0,0\nu,1,0,1\n")
    return str(root / "freqs.csv"), str(root / "table.csv")


def _edge_argv(command, theta, locus, q, files):
    freqs, table = files
    if command in ("woe-curve", "ratio-curve"):
        argv = [f"--theta-grid={theta}"]
        argv += (["--q-values", q] if command == "woe-curve"
                 else ["--freqs", freqs, "--locus", locus])
    else:
        argv = ["--freqs", freqs, "--locus", locus, f"--theta={theta}"]
        argv += (["--table", table] if command == "pmf"
                 else ["--rows", "2,2"])
        argv += ["--seed", "3"] if command == "sample" else []
    return [command, *argv]


@settings(max_examples=250)
@given(command=st.sampled_from(("pmf", "moments", "sample", "woe-curve",
                                "ratio-curve")),
       theta=st.sampled_from(EDGE_THETAS),
       locus=st.sampled_from(("exact", "over", "tiny", "short")),
       q=st.sampled_from(("0.25", "0.4000000000001", "1e-310")))
@example(command="sample", theta="5.562684646268097e-309", locus="over",
         q="0.25")
def test_edge_inputs_exit_0_or_name_the_error(edge_files, command, theta,
                                              locus, q):
    # a raise out of main() would be the traceback of a CLI run
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(_edge_argv(command, theta, locus, q, edge_files))
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(f"mdmix {command}: error: ")


# ---------------------------------------------------------------------------
# generated --config files, every subcommand

# files a config names, as tokens the test replaces with paths
FILE_TOKENS = ("@freqs", "@table", "@missing", "@dir")
# a value each option takes when it is right; sizes stay far below
# MAX_MOMENT_CELLS and MAX_SAMPLE_SIZE
RIGHT = {
    "freqs": st.just("@freqs"),
    "table": st.just("@table"),
    "locus": st.sampled_from(("D1", "D2")),
    "out": st.just("-"),
    "theta": st.floats(0.0, 0.99),
    "theta_grid": st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4),
    "rows": st.lists(st.integers(0, 4), min_size=1, max_size=3),
    "seed": st.integers(0, 2 ** 70),
    "q_values": st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
    "contributors": st.integers(1, 3),
    "tail_mass": st.floats(0.01, 1.0),
}
NUMBERS = st.one_of(
    st.floats(), st.integers(-3, 12),
    st.sampled_from((10 ** 7, 10 ** 30, 10 ** 400, -10 ** 400, 1e308,
                     5e-324, -0.0)))
# no '/' or '\\' in text: a path it names stays in the working directory
TEXT = st.text(st.characters(blacklist_characters="/\\"), max_size=6)
SCALARS = st.one_of(
    st.none(), st.booleans(), NUMBERS, TEXT,
    st.sampled_from(FILE_TOKENS + ("0:0.5:0.1", "0:1:0", "nan:1:0.1",
                                   "0.1,0.2", "2,2", "2,-1", "θ", "２,２",
                                   "a\x00b")))
WRONG = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=2), max_leaves=4)


@st.composite
def configs(draw):
    """A subcommand and a config for it.  At most two options, the
    subcommand's or others, get an edge value (a number, or a list of
    numbers for a list option) or a value of any type; each other option of
    the subcommand is right or absent.  Now and then a key is no option."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    odd = draw(st.lists(st.sampled_from(sorted(OPTIONS)), max_size=2))
    cfg = {}
    for name, (_, many, _, _) in OPTIONS.items():
        if name in odd:
            edge = st.lists(NUMBERS, max_size=4) if many else NUMBERS
            cfg[name] = draw(st.one_of(edge, WRONG))
        elif name in COMMANDS[command][2] and draw(st.integers(0, 3)):
            cfg[name] = draw(RIGHT[name])
    if draw(st.sampled_from(range(8))) == 7:
        cfg[draw(TEXT.filter(lambda key: key not in OPTIONS))] = draw(WRONG)
    return command, cfg


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    (root / "dir").mkdir()
    return root


def _named(message: str, cfg: dict, paths: dict) -> bool:
    """Whether message names an option, as a word, or a file the config
    gave."""
    files = [v for k, v in cfg.items()
             if k in ("freqs", "table", "out") and isinstance(v, str)]
    return (any(re.search(rf"(?<!\w){name}(?!\w)", message)
                for name in OPTIONS)
            or any(path in message for path in paths.values())
            or any(repr(path) in message for path in files))


@settings(max_examples=150)
@given(configs())
@example(("woe-curve", {"q_values": [1e308]}))
@example(("moments", {"freqs": "@freqs", "locus": "D2", "theta": 0.1,
                      "rows": [10 ** 400]}))
@example(("pmf", {"freqs": "a\x00b", "table": "@table", "theta": 0.1}))
def test_generated_config_exits_0_or_names_the_field(config_dir, case):
    command, cfg = case
    paths = {token: str(config_dir / name) for token, name in zip(
        FILE_TOKENS, ("freqs.csv", "table.csv", "missing", "dir"))}
    # an earlier example's --out may have written over the inputs
    (config_dir / "freqs.csv").write_text(FREQ_CSV)
    (config_dir / "table.csv").write_text(TABLE_CSV)

    def resolve(value):
        if isinstance(value, list):
            return list(map(resolve, value))
        return paths.get(value, value) if isinstance(value, str) else value

    cfg = {key: resolve(value) for key, value in cfg.items()}
    cfg_path = config_dir / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    # a file the config names by a bare name lands in config_dir
    cwd = os.getcwd()
    os.chdir(config_dir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--config", str(cfg_path)])
    finally:
        os.chdir(cwd)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        prefix = f"mdmix {command}: error: "
        message = err.getvalue()
        assert message.startswith(prefix)
        unknown = [key for key in cfg if key not in OPTIONS]
        if unknown:
            assert message == f"{prefix}{unknown[0]}: not an option\n"
        else:
            assert _named(message[len(prefix):], cfg, paths), message
