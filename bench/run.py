"""mdmix benchmark: four seeded workloads against the public API of mdmix.

    python3 bench/run.py --workload casework --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; mdmix is imported from ./src and
nowhere else.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (ops_per_s, op_p50_ms, op_tail_ms, setup_s, peak_rss_mb);
with --trace 1 they are the per-layer span metrics, op.self_s and
trace.overhead.  The process pins itself to one CPU, and every time in the
end-to-end metrics is scaled to a reference host speed (hostspeed.py).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("casework", "simulation", "curves", "cli")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120
# op_tail_ms reports the highest of these percentiles that still has at
# least TAIL_BEYOND samples above it.  A fixed ladder keeps the reported
# percentile the same while the op count stays inside one band.
LADDER = (50.0, 75.0, 90.0, 99.0)
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for the "
                             "setup_s samples)")
    return parser.parse_args(argv)


def import_workloads():
    """Import the workloads module with mdmix taken from ./src only."""
    if not (SRC / "mdmix" / "__init__.py").is_file():
        raise BenchError(f"no mdmix package under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    found = Path(workloads.mdmix.__file__).resolve().parent
    if found != (SRC / "mdmix").resolve():
        raise BenchError(f"mdmix imported from {found}, not from {SRC}")
    return workloads


def set_up(workload: str, seed: int, tracer):
    """Import mdmix, generate the inputs, write and read the CSVs.

    Returns (workloads module, workload, work directory, seconds taken
    scaled to the reference host speed, raw seconds taken).
    """
    with hostspeed.sampling():
        start = time.perf_counter()
        mod = import_workloads()
        workdir = OUT / f"work-{workload}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        wl = mod.WORKLOADS[workload](seed, workdir, tracer)
        end = time.perf_counter()
    return (mod, wl, workdir, hostspeed.scaled(start, end),
            hostspeed.busy(start, end))


def setup_samples(workload: str, seed: int, count: int):
    """Scaled and raw set-up times of `count` fresh processes."""
    samples, raws = [], []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        samples.append(result["setup_s"])
        raws.append(result["raw_setup_s"])
    return samples, raws


def _nearest_rank(ordered: list[float], pct: float) -> float:
    return ordered[math.ceil(pct / 100.0 * len(ordered)) - 1]


def _beyond(n: int, pct: float) -> int:
    return n - math.ceil(pct / 100.0 * n)


def tail(latencies: list[float], rounds: int) -> tuple[float, float, int]:
    """(percentile, value, windows) for op_tail_ms.

    The percentile is the highest in LADDER with at least TAIL_BEYOND of
    all samples above it.  The value is that percentile taken in
    consecutive windows of whole rounds, each just big enough to hold
    TAIL_BEYOND samples above it, and the median over the windows, so a
    burst of load from another tenant that covers one window does not set
    the tail.  With one window it is the plain nearest-rank percentile.
    """
    n = len(latencies)
    usable = [p for p in LADDER if _beyond(n, p) >= TAIL_BEYOND]
    if not usable:
        return 100.0, max(latencies), 1
    pct = usable[-1]
    need = next(m for m in range(TAIL_BEYOND, n + 1)
                if _beyond(m, pct) >= TAIL_BEYOND)
    per_round = n // rounds
    windows = max(1, rounds // math.ceil(need / per_round))
    cuts = [round(k * rounds / windows) * per_round
            for k in range(windows + 1)]
    values = [_nearest_rank(sorted(latencies[a:b]), pct)
              for a, b in zip(cuts, cuts[1:])]
    return pct, statistics.median(values), windows


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mdmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, mod, attempted, failed, extra) -> dict:
    import mpmath

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": mod.np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "attempted": attempted,
        "failed": failed,
        **extra,
    }


def run(args) -> dict:
    traced = bool(args.trace)
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    mod, wl, workdir, setup_s, raw_setup_s = set_up(args.workload, args.seed,
                                                    tracer)
    try:
        if not traced:
            res = mod.run_pass(wl, tracer, args.seconds)
            # more set-up samples from fresh processes; taken after the
            # pass, because the cli workload's peak RSS is over children
            more, raws = setup_samples(args.workload, args.seed,
                                       SETUP_SAMPLES - 1)
            samples, raws = [setup_s] + more, [raw_setup_s] + raws
            pct, tail_s, windows = tail(res.latencies, len(res.round_s))
            metrics = {
                "ops_per_s": (res.ops_per_s, "op/s"),
                "op_p50_ms": (res.p50_s * 1e3, "ms"),
                "op_tail_ms": (tail_s * 1e3, "ms"),
                "setup_s": (statistics.median(samples), "s"),
                "peak_rss_mb": (res.peak_rss_mb, "MB"),
            }
            notes = {"op_tail_ms": f"p{pct:g} of {res.ops} ops, median of "
                                   f"{windows} windows"}
            extra = {"ops": res.ops, "rounds": len(res.round_s),
                     "timed_s": res.timed_s, "raw_timed_s": res.raw_s,
                     "raw_ops_per_s": res.ops / res.raw_s,
                     "host_factor": res.host_factor,
                     "tail_percentile": pct, "tail_samples": res.ops,
                     "tail_windows": windows, "setup_samples_s": samples,
                     "raw_setup_samples_s": raws}
            failed, attempted = res.failed, res.ops
        else:
            # same seed, untraced then traced; each gets half the time
            plain = mod.run_pass(wl, tracing.NullTracer(), args.seconds / 2)
            res = mod.run_pass(wl, tracer, args.seconds / 2)
            if hasattr(wl, "probe"):
                wl.probe(tracer)
            failed = plain.failed + res.failed
            attempted = plain.ops + res.ops
            metrics = tracer.layer_metrics()
            metrics["trace.overhead"] = (res.ops_per_s / plain.ops_per_s,
                                         "ratio")
            notes = {"trace.overhead": "traced / untraced ops_per_s"}
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.csv"
            tracer.write_csv(trace_file)
            extra = {"spans": len(tracer.spans),
                     "trace_file": str(trace_file.relative_to(ROOT))}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"metrics": metrics, "notes": notes, "failed": failed,
            "attempted": attempted,
            "provenance": provenance(args, mod, attempted, failed, extra)}


def main(argv=None) -> int:
    args = parse_args(argv)
    hostspeed.pin_to_one_cpu()
    try:
        if args.setup_only:
            _, _, workdir, setup_s, raw = set_up(args.workload, args.seed,
                                                 tracing.NullTracer())
            shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw}))
            return 0
        result = run(args)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    for name, (value, unit) in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"{args.workload:<11} {name:<42} {value:>16.6f} {unit:<6} "
              f"{note}".rstrip())
    print(json.dumps({"provenance": result["provenance"]}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
