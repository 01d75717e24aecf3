"""Tests of the benchmark itself: seeded inputs, and checks that can fail.

    python3 -m pytest bench/selftest.py -q

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NULL = tracing.NullTracer()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert inputs.to_bytes(inputs.build(name, 7)) == \
        inputs.to_bytes(inputs.build(name, 7))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seeds_give_different_inputs(name):
    assert inputs.to_bytes(inputs.build(name, 7)) != \
        inputs.to_bytes(inputs.build(name, 8))


def _shapes(name, data):
    if name == "casework":
        return sorted(c["contributors"] for c in data["cases"])
    if name == "simulation":
        return sorted((len(s["rows"]), s["rows"][0], s["theta"],
                       inputs.n_categories(data["panel"][s["locus"]]))
                      for s in data["sets"])
    if name == "curves":
        return sorted(inputs.n_categories(l) for l in data["panel"])
    return [job for job, _ in data["jobs"]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_mix_does_not_depend_on_the_seed(name):
    want = _shapes(name, inputs.build(name, 0))
    for seed in (1, 2, 3):
        assert _shapes(name, inputs.build(name, seed)) == want


def test_frequency_file_round_trips_through_mdmix(tmp_path):
    panel = inputs.make_panel(5)
    path = tmp_path / "freqs.csv"
    path.write_text(inputs.frequency_csv(panel))
    db = workloads.mdmix.read_frequency_csv(path)
    for locus in panel:
        freqs = db[locus["locus"]].freqs
        assert freqs.n_categories == inputs.n_categories(locus)
        assert freqs.probs == tuple(locus["freqs"])


def _one_op(wl, key):
    wl.bind(NULL)
    wl.begin_pass()
    for k, fn, arg in wl.ops:
        if k == key:
            return fn(arg)
    raise KeyError(key)


def _replace(seq, index, value):
    return seq[:index] + (value,) + seq[index + 1:]


def test_casework_counts_a_shifted_log_pmf_as_failed(tmp_path):
    wl = workloads.Casework(3, tmp_path, NULL)
    case, locus, theta = wl.mp_sample[0]
    out = _one_op(wl, case)
    assert wl.check_round([(case, out)]) == 0
    assert wl.end_pass() == 0

    lps = out[theta][0]
    shifted = _replace(lps, locus, lps[locus] + 1e-8)
    bad = _replace(out, theta, _replace(out[theta], 0, shifted))
    wl.bind(NULL)
    assert wl.check_round([(case, bad)]) == 0  # found by the mpmath check
    assert wl.end_pass() == 1


def test_casework_counts_a_wrong_pair_ratio_as_failed(tmp_path):
    wl = workloads.Casework(3, tmp_path, NULL)
    out = _one_op(wl, 0)
    ratios = out[1][1]
    first = ratios[0]
    bad_ratios = _replace(ratios, 0, _replace(first, 0, first[0] * (1 + 1e-8)))
    bad = _replace(out, 1, _replace(out[1], 1, bad_ratios))
    assert wl.check_round([(0, bad), (0, out)]) == 2


def test_casework_counts_a_changed_repeat_as_failed(tmp_path):
    wl = workloads.Casework(3, tmp_path, NULL)
    out = _one_op(wl, 0)
    lps = out[0][0]
    bad = _replace(out, 0, _replace(out[0], 0,
                                    _replace(lps, 0, lps[0] + 1e-8)))
    assert wl.check_round([(0, out), (0, out), (0, bad)]) == 1


def test_simulation_counts_a_shifted_chain_pmf_as_failed(tmp_path):
    wl = workloads.Simulation(4, tmp_path, NULL)
    table, direct, chained = _one_op(wl, 0)
    assert wl.check_round([(0, (table, direct, chained))]) == 0
    assert wl.check_round([(0, (table, direct, chained + 1e-8))]) == 1


def test_simulation_counts_biased_draws_as_failed(tmp_path):
    wl = workloads.Simulation(4, tmp_path, NULL)
    wl.bind(NULL)
    wl.begin_pass()
    s = wl.sets[0]
    records = [(0, (s.draw(), 0.0, 0.0)) for _ in range(200)]
    assert wl.check_round(records) == 0
    assert wl.end_pass() == 0
    s.total[0, 0] += 5 * s.n  # five extra counts per draw in one cell
    assert wl.end_pass() == 200


def test_simulation_counts_a_wrong_row_sum_as_failed(tmp_path):
    wl = workloads.Simulation(4, tmp_path, NULL)
    table, direct, chained = _one_op(wl, 0)
    counts = [list(row) for row in table.counts]
    counts[0][0] += 1
    bad = workloads.mdmix.CountTable(counts)
    assert wl.check_round([(0, (bad, direct, direct))]) == 1


def _smallest_curve_locus(wl):
    return min(range(len(wl.loci)), key=lambda k: wl.loci[k].n_categories)


def test_curves_count_a_wrong_value_as_failed(tmp_path):
    wl = workloads.Curves(5, tmp_path, NULL)
    key = _smallest_curve_locus(wl)
    by_class, woe = _one_op(wl, key)
    assert wl.check_round([(key, (by_class, woe))]) == 0

    for index in (0, 7):  # theta = 0 must be exactly 1; theta > 0 agrees
        bad = {cls: values.copy() for cls, values in by_class.items()}
        values = next(iter(bad.values()))
        values[index] *= 1 + 1e-8
        wl.bind(NULL)
        assert wl.check_round([(key, (bad, woe))]) == 1


def test_curves_count_a_changed_repeat_as_failed(tmp_path):
    wl = workloads.Curves(5, tmp_path, NULL)
    key = _smallest_curve_locus(wl)
    by_class, woe = _one_op(wl, key)
    bad_woe = [w.copy() for w in woe]
    bad_woe[0][3, 5] += 1e-12
    assert wl.check_round([(key, (by_class, woe)),
                           (key, (by_class, bad_woe))]) == 1


def test_cli_counts_a_changed_byte_as_failed(tmp_path):
    wl = workloads.Cli(6, tmp_path, NULL)
    wl.bind(NULL)
    good = (0, b"", b"class,theta,ratio\n(),0,1\n")
    bad = (0, b"", b"class,theta,ratio\n(),0,2\n")
    assert wl.check_round([("ratio-curve", good), ("ratio-curve", good),
                           ("ratio-curve", bad)]) == 1
    assert wl.check_round([("pmf", (2, b"", b""))]) == 1


def test_cli_counts_a_failed_validate_as_failed(tmp_path):
    wl = workloads.Cli(6, tmp_path, NULL)
    wl.bind(NULL)
    report = json.dumps({"passed": False, "suites": []}).encode()
    assert wl.check_round([("validate", (0, b"", report))]) == 1


def test_cli_op_runs_the_subcommand(tmp_path):
    wl = workloads.Cli(6, tmp_path, NULL)
    returncode, _, data = _one_op(wl, "woe-curve")
    assert returncode == 0
    assert data.startswith(b"n_col,s_prev,Q,theta,woe\n")


def test_tail_takes_the_highest_ladder_percentile_with_ten_beyond():
    assert run.tail([float(k) for k in range(1, 40)], 39) == (50.0, 20.0, 1)
    assert run.tail([float(k) for k in range(1, 41)], 40) == (75.0, 30.0, 1)
    assert run.tail([float(k) for k in range(1, 1001)], 100) == \
        (99.0, 990.0, 1)


def test_tail_is_the_median_over_windows_of_whole_rounds():
    window = [float(k) for k in range(1, 1001)]
    burst = [3.0 * x for x in window]
    pct, value, windows = run.tail(window + burst + window + window, 400)
    assert (pct, windows) == (99.0, 4)
    assert value == 990.0


@pytest.fixture
def kernel_runs(monkeypatch):
    """Replace the recorded kernel runs with the (start, end) pairs given."""

    def install(runs):
        total = [0.0]
        for start, end in runs:
            total.append(total[-1] + end - start)
        monkeypatch.setattr(hostspeed, "_starts", [a for a, _ in runs])
        monkeypatch.setattr(hostspeed, "_ends", [b for _, b in runs])
        monkeypatch.setattr(hostspeed, "_total", total)

    install([])
    return install


def test_busy_time_leaves_out_the_kernel_runs_inside(kernel_runs):
    kernel_runs([(0.0, 0.002), (1.0, 1.004), (2.0, 2.004), (5.0, 5.002)])
    assert hostspeed.busy(0.5, 3.0) == pytest.approx(2.5 - 0.008)
    assert hostspeed.busy(2.5, 4.0) == pytest.approx(1.5)


def test_scaling_uses_the_kernel_runs_in_and_around_the_interval(kernel_runs):
    # kernel at 4 ms, twice the reference time: the host runs at half speed
    kernel_runs([(0.0, 0.004), (1.0, 1.004), (2.0, 2.004), (5.0, 5.002)])
    assert hostspeed.scaled(0.5, 0.9) == pytest.approx(0.4 / 2)
    # runs before, inside, after: 4, 4, 4 ms
    assert hostspeed.scaled(0.5, 1.9) == pytest.approx((1.4 - 0.004) / 2)
    # runs before and after: 4 and 2 ms, a mean of 3 ms
    assert hostspeed.scaled(2.5, 4.0) == pytest.approx(1.5 * 2 / 3)
    with pytest.raises(ValueError):
        hostspeed.scaled(5.5, 6.0)
    with pytest.raises(ValueError):
        hostspeed.scaled(-1.0, -0.5)


def test_the_timer_runs_the_kernel_inside_a_busy_loop(kernel_runs):
    with hostspeed.sampling(0.01):
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert len(hostspeed._starts) >= 5
    assert hostspeed.paused(start, end) > 0.0
    assert hostspeed.busy(start, end) < end - start
    assert hostspeed.scaled(start, end) > 0.0


def test_self_time_is_op_time_outside_child_spans(kernel_runs):
    tr = tracing.Tracer()
    tr.spans = [("op", 0.0, 10.0, -1, 0), ("mdm.mdm_log_pmf", 1.0, 4.0, 0, 0),
                ("evidence.pair_ratio", 5.0, 6.0, 0, 0),
                ("evidence.pair_ratio_curves.A12", 6.0, 8.0, 0, 0)]
    metrics = tr.layer_metrics()
    assert metrics["op.self_s"][0] == pytest.approx(4.0)
    assert metrics["evidence.pair_ratio_curves.calls"][0] == 1
    assert metrics["evidence.pair_ratio_curves.A12.busy_s"][0] == 2.0
    assert metrics["evidence.pair_ratio_curves.A30.calls"][0] == 0


def test_curve_bucket_is_the_nearest():
    assert [tracing.curve_bucket(a)[-3:] for a in (6, 9, 10, 16, 17, 25, 26)] \
        == ["A06", "A06", "A12", "A12", "A20", "A20", "A30"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "casework", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no mdmix package" in proc.stderr
