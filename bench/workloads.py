"""The four workloads: set-up, ops, and the checks on every op's output.

Every workload is a closed loop with one caller in one process.  Ops come
in rounds; a round is the whole op mix, and a pass runs whole rounds until
its ops' unscaled time reaches the requested seconds, so every run sees
the same mix.  Op times are scaled to the reference host speed
(hostspeed.py).  The checks of a round run after it, outside the timed
intervals, and every failed check counts its op as failed.  Checks that
need the whole pass (Monte Carlo means, the mpmath reference) run once the
pass ends.

Importing this module imports numpy and mdmix; run.py imports it inside
the measured set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import mdmix
import mdmix.oracle

import hostspeed
import inputs
from tracing import curve_bucket

TOL = 1e-10
MC_SIGMAS = 5.0
# Draws per set before the 5-sigma cell-mean check is trusted: with about
# 3,500 cells, fewer draws leave too many cells with a handful of expected
# counts, and an exact sampler then fails the check now and then.
MC_MIN_DRAWS = 1500
MP_SAMPLE = 30
MIN_ROUNDS = 2
CLI_TIMEOUT_S = 120
PROBE_REPEATS = 3

CANONICAL_PAIRS = {
    "()": ((0, 1), (2, 3)),
    "(2)": ((0, 1), (0, 2)),
    "(2,2)": ((0, 1), (0, 1)),
    "(3)": ((0, 0), (0, 1)),
    "(4)": ((0, 0), (0, 0)),
}


class Workload:
    """Set-up on construction; `bind` a tracer, then run passes.

    Subclasses build `self.ops`, a list of (key, fn, arg): one op is
    fn(arg).  Ops with equal keys repeat the same computation: `verify`
    checks the first output of a key in full, and every later output must
    equal it (`same`).
    """

    name = ""
    min_rounds = MIN_ROUNDS
    # how often the host-speed reference runs during a pass
    sample_every_s: float | None = hostspeed.EVERY_S

    def __init__(self, seed: int, workdir: Path, tracer):
        self.data = inputs.build(self.name, seed)
        for fname, text in self.data["files"].items():
            (workdir / fname).write_text(text, encoding="utf-8")
        read = tracer.wrap("model.read_frequency_csv",
                           mdmix.read_frequency_csv)
        self.freq_db = read(workdir / "freqs.csv")
        self.ops = []

    # -- per pass -----------------------------------------------------
    def bind(self, tracer) -> None:
        """Wrap the library callables for this pass and reset the checks."""
        self.n_ops: Counter = Counter()
        self.n_failed: Counter = Counter()
        self.first: dict = {}
        self.first_ok: dict = {}

    def prep_steps(self) -> list:
        """Timed work done once per pass before the first op, as a list
        of callables; each is timed and scaled on its own."""
        return []

    def begin_pass(self) -> None:
        for step in self.prep_steps():
            step()

    def end_pass(self) -> int:
        """Checks that need the whole pass; returns ops newly failed."""
        return sum(self.n_ops[k] - self.n_failed[k]
                   for k in self.deferred_bad_keys())

    def unbind(self) -> None:
        pass

    # -- checks ---------------------------------------------------------
    def check_round(self, records) -> int:
        failed = 0
        for key, out in records:
            self.n_ops[key] += 1
            if not self.check_op(key, out):
                self.n_failed[key] += 1
                failed += 1
        return failed

    def check_op(self, key, out) -> bool:
        if isinstance(out, Exception):
            return False
        if key not in self.first:
            self.first[key] = out
            self.first_ok[key] = self.verify(key, out)
            return self.first_ok[key]
        return self.first_ok[key] and self.same(out, self.first[key])

    def verify(self, key, out) -> bool:
        return True

    def same(self, a, b) -> bool:
        return a == b

    def deferred_bad_keys(self) -> set:
        return set()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Case:
    __slots__ = ("contributors", "row_sums", "loci", "n_pairs")


class Casework(Workload):
    """One op is one case: every locus at every casework theta."""

    name = "casework"

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        panel = self.data["panel"]
        freqs = [self.freq_db[locus["locus"]].freqs for locus in panel]
        self.cases = []
        for spec in self.data["cases"]:
            case = _Case()
            case.contributors = spec["contributors"]
            case.row_sums = (2,) * case.contributors
            case.loci = []
            for locus, f, genos in zip(panel, freqs, spec["genotypes"]):
                rows = inputs.genotype_rows(genos, inputs.n_categories(locus))
                profiles = [mdmix.ProfileCounts(tuple(r)) for r in rows]
                pairs = [mdmix.GenotypePair(profiles[i], profiles[j])
                         for i in range(len(rows))
                         for j in range(i + 1, len(rows))]
                case.loci.append((f, tuple(map(tuple, rows)), pairs))
            case.n_pairs = len(case.loci[0][2])
            self.cases.append(case)
        rng = random.Random(f"mdmix-bench:{seed}:mp-sample")
        triples = [(c, l, t) for c in range(len(self.cases))
                   for l in range(len(panel))
                   for t in range(len(inputs.CASEWORK_THETAS))]
        self.mp_sample = rng.sample(triples, MP_SAMPLE)
        self._mp_ref: dict = {}

    def bind(self, tracer):
        super().bind(tracer)
        table = tracer.wrap("model.CountTable", mdmix.CountTable)
        to_alpha = tracer.wrap("model.theta_to_alpha", mdmix.theta_to_alpha)
        make_params = tracer.wrap("mdm.MdmParams", mdmix.MdmParams)
        log_pmf = tracer.wrap("mdm.mdm_log_pmf", mdmix.mdm_log_pmf)
        ratio = tracer.wrap("evidence.pair_ratio", mdmix.pair_ratio)
        thetas = inputs.CASEWORK_THETAS

        def op(case):
            out = []
            for theta in thetas:
                lps = []
                ratios = []
                for freqs, rows, pairs in case.loci:
                    params = make_params(case.row_sums,
                                         to_alpha(freqs, theta))
                    lps.append(log_pmf(table(rows), params))
                    ratios.append(tuple(ratio(p, freqs, theta)
                                        for p in pairs))
                log_ratios = tuple(
                    math.fsum(math.log(r[k]) for r in ratios)
                    for k in range(case.n_pairs))
                out.append((tuple(lps), tuple(ratios), math.fsum(lps),
                            log_ratios))
            return tuple(out)

        self.ops = [(k, op, case) for k, case in enumerate(self.cases)]

    def verify(self, key, out):
        case = self.cases[key]
        for theta, (_, ratios, _, _) in zip(inputs.CASEWORK_THETAS, out):
            for (freqs, _, pairs), values in zip(case.loci, ratios):
                for pair, value in zip(pairs, values):
                    want = mdmix.pair_ratio_via_pmfs(pair, freqs, theta)
                    if not abs(value - want) <= TOL * max(1.0, abs(want)):
                        return False
        return True

    def mp_reference(self, triple) -> float:
        # imported here so that mpmath stays out of the measured set-up
        import reference

        if triple not in self._mp_ref:
            c, l, t = triple
            locus = self.data["panel"][l]
            self._mp_ref[triple] = reference.log_pmf(
                self.cases[c].loci[l][1], locus["freqs"], locus["rest"] > 0,
                inputs.CASEWORK_THETAS[t])
        return self._mp_ref[triple]

    def deferred_bad_keys(self):
        bad = set()
        for triple in self.mp_sample:
            c, l, t = triple
            if c not in self.first or c in bad:
                continue
            value = self.first[c][t][0][l]
            if not abs(value - self.mp_reference(triple)) <= TOL:
                bad.add(c)
        return bad


class _SimSet:
    __slots__ = ("params", "draw", "mean", "var", "total", "n")


class Simulation(Workload):
    """One op is one sampler draw scored by the direct and chain pmf.

    Per parameter set the pass also builds the sampler and the exact means
    and covariances once, inside the timed region.
    """

    name = "simulation"
    min_rounds = MC_MIN_DRAWS // inputs.SIM_DRAWS_PER_ROUND

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        panel = self.data["panel"]
        self.freqs = [self.freq_db[locus["locus"]].freqs for locus in panel]

    def bind(self, tracer):
        super().bind(tracer)
        self.tracer = tracer
        self.sets: list[_SimSet] = []
        log_pmf = tracer.wrap("mdm.mdm_log_pmf", mdmix.mdm_log_pmf)
        chain = tracer.wrap("mdm.mdm_chain_log_pmf", mdmix.mdm_chain_log_pmf)
        sets = self.sets

        def op(k):
            s = sets[k]
            table = s.draw()
            return table, log_pmf(table, s.params), chain(table, s.params)

        if tracer.enabled:
            # the sampler builds its CountTable inside draw(); rebinding the
            # name it looks up records that call as a child span
            mdmix.oracle.CountTable = tracer.wrap("model.CountTable",
                                                  mdmix.CountTable)
        n_sets = len(self.data["sets"])
        self.ops = [(k, op, k) for _ in range(inputs.SIM_DRAWS_PER_ROUND)
                    for k in range(n_sets)]

    def unbind(self):
        mdmix.oracle.CountTable = mdmix.CountTable

    def prep_steps(self):
        tr = self.tracer
        to_alpha = tr.wrap("model.theta_to_alpha", mdmix.theta_to_alpha)
        make_params = tr.wrap("mdm.MdmParams", mdmix.MdmParams)
        make_sampler = tr.wrap("oracle.MdmSampler.init", mdmix.MdmSampler)
        mean_matrix = tr.wrap("moments.mean_matrix", mdmix.mean_matrix)
        cov_matrix = tr.wrap("moments.covariance_matrix",
                             mdmix.covariance_matrix)

        def prepare(spec):
            s = _SimSet()
            s.params = make_params(tuple(spec["rows"]),
                                   to_alpha(self.freqs[spec["locus"]],
                                            spec["theta"]))
            sampler = make_sampler(s.params, spec["sampler_seed"])
            s.draw = tr.wrap("oracle.MdmSampler.draw", sampler.draw)
            s.mean = mean_matrix(s.params)
            s.var = np.diag(cov_matrix(s.params)).reshape(s.mean.shape)
            s.total = np.zeros(s.mean.shape)
            s.n = 0
            self.sets.append(s)

        return [lambda spec=spec: prepare(spec) for spec in self.data["sets"]]

    def check_op(self, key, out):
        if isinstance(out, Exception):
            return False
        table, direct, chained = out
        s = self.sets[key]
        counts = np.asarray(table.counts)
        if (table.row_sums != s.params.row_sums
                or counts.shape != s.total.shape):
            return False
        s.total += counts
        s.n += 1
        return abs(direct - chained) <= TOL

    def deferred_bad_keys(self):
        bad = set()
        for k, s in enumerate(self.sets):
            if s.n == 0:
                continue
            se = np.sqrt(s.var / s.n)
            if np.any(np.abs(s.total / s.n - s.mean) > MC_SIGMAS * se):
                bad.add(k)
        return bad


class Curves(Workload):
    """One op is the curve set of one locus: pair_ratio_curves on the
    51-point grid and woe_curve over the 15 margin states per Q."""

    name = "curves"

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.loci = [self.freq_db[locus["locus"]].freqs
                     for locus in self.data["panel"]]
        self.states = [state for state, _ in mdmix.woe_margin_grid(2)]

    def bind(self, tracer):
        super().bind(tracer)
        grid = inputs.THETA_GRID
        states = self.states
        woe_curve = tracer.wrap("evidence.woe_curve", mdmix.woe_curve)
        # one span name per A bucket, so the curve builder is wrapped once
        # per bucket and the op does not look the bucket up
        builders = {}
        for freqs in self.loci:
            name = curve_bucket(freqs.n_categories)
            builders.setdefault(name, tracer.wrap(name,
                                                  mdmix.pair_ratio_curves))

        def op(locus):
            freqs, build = locus
            by_class = build(freqs, grid)
            woe = [woe_curve(states, q, grid) for q in inputs.Q_PANEL]
            return by_class, woe

        self.ops = [
            (k, op, (freqs, builders[curve_bucket(freqs.n_categories)]))
            for k, freqs in enumerate(self.loci)]

    def verify(self, key, out):
        by_class, woe = out
        freqs = self.loci[key]
        grid = inputs.THETA_GRID
        curves = {cls.label: values for cls, values in by_class.items()}
        if set(curves) != set(CANONICAL_PAIRS) or grid[0] != 0.0:
            return False
        for label, values in curves.items():
            if values[0] != 1.0:
                return False
            first, second = (mdmix.genotype_from_alleles(g, freqs.n_categories)
                             for g in CANONICAL_PAIRS[label])
            pair = mdmix.GenotypePair(first, second)
            for theta, value in zip(grid, values):
                want = mdmix.pair_ratio_via_steps(pair, freqs, theta)
                if not abs(value - want) <= TOL * max(1.0, abs(want)):
                    return False
        return all(np.all(w[:, 0] == 1.0) for w in woe)

    def same(self, a, b):
        (curves_a, woe_a), (curves_b, woe_b) = a, b
        return (curves_a.keys() == curves_b.keys()
                and all(np.array_equal(curves_a[c], curves_b[c])
                        for c in curves_a)
                and all(np.array_equal(x, y) for x, y in zip(woe_a, woe_b)))


class Cli(Workload):
    """One op is one `python -m mdmix.cli` subprocess; a round runs each
    subcommand once, writing with --out into the work directory."""

    name = "cli"
    PATH_FLAGS = ("--freqs", "--table", "--out")
    # the child does the work: sample the host speed between ops only
    sample_every_s = None

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.jobs = []
        for name, argv in self.data["jobs"]:
            resolved = [str(workdir / arg) if prev in self.PATH_FLAGS else arg
                        for prev, arg in zip([""] + argv, argv)]
            out = Path(resolved[resolved.index("--out") + 1])
            self.jobs.append((name, resolved, out))
        src = Path(mdmix.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def bind(self, tracer):
        super().bind(tracer)
        env = self.env

        def op(job):
            name, argv, out = job
            with tracer.span("cli.process." + name):
                proc = subprocess.run(
                    [sys.executable, "-m", "mdmix.cli", *argv], env=env,
                    stdin=subprocess.DEVNULL, capture_output=True,
                    timeout=CLI_TIMEOUT_S)
            data = out.read_bytes() if out.exists() else b""
            out.unlink(missing_ok=True)
            return proc.returncode, proc.stdout, data

        self.ops = [(job[0], op, job) for job in self.jobs]

    def verify(self, key, out):
        returncode, _, data = out
        if returncode != 0:
            return False
        if key == "validate":
            try:
                return json.loads(data)["passed"] is True
            except (ValueError, KeyError, TypeError):
                return False
        return True

    def peak_rss_mb(self):
        return (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                / 1024.0)

    def probe(self, tracer) -> None:
        """In-process and start-up spans, for the traced run only."""
        import mdmix.cli
        import mdmix.validation

        main = mdmix.cli.main
        run_all = tracer.wrap("validation.run_all_suites",
                              mdmix.validation.run_all_suites)
        quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL,
                 "env": self.env, "timeout": CLI_TIMEOUT_S, "check": True}
        unique = {name: (name, argv, out) for name, argv, out in self.jobs}
        for _ in range(PROBE_REPEATS):
            for name, argv, out in unique.values():
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    tracer.wrap("cli.main." + name, main)(argv)
                out.unlink(missing_ok=True)
            run_all()
            with tracer.span("cli.import"):
                subprocess.run([sys.executable, "-c", "import mdmix.cli"],
                               **quiet)
            with tracer.span("cli.interpreter"):
                subprocess.run([sys.executable, "-c", "pass"], **quiet)


WORKLOADS = {cls.name: cls for cls in (Casework, Simulation, Curves, Cli)}


class PassResult:
    """What one pass measured.

    Every time here is scaled to the reference host speed (hostspeed.py);
    `raw_s` is the unscaled busy time, which bounds the pass's length.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.round_s: list[float] = []
        self.round_p50: list[float] = []
        self.prep: list[float] = []
        self.raw_s = 0.0
        self.host_factor = math.nan
        self.failed = 0
        self.peak_rss_mb = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def prep_s(self) -> float:
        return sum(self.prep)

    @property
    def timed_s(self) -> float:
        return self.prep_s + sum(self.round_s)

    @property
    def ops_per_s(self) -> float:
        """Ops over the timed region's time, with every round timed as the
        median round: rounds are the same mix, so this discards bursts
        that the host-speed scaling leaves."""
        rounds = len(self.round_s)
        return self.ops / (self.prep_s
                           + rounds * statistics.median(self.round_s))

    @property
    def p50_s(self) -> float:
        """Median over rounds of each round's median op latency; the same
        as the median op when rounds are alike, and robust to bursts."""
        return statistics.median(self.round_p50)


def run_pass(wl: Workload, tracer, seconds: float) -> PassResult:
    """Run whole rounds until the ops' busy time adds up to `seconds`.

    The pass runs inside hostspeed.sampling().  Each prep step and each op
    is timed on its own and scaled to the reference host speed once a
    reference run follows it; a round's time is the sum of its ops.
    """
    res = PassResult()
    wl.bind(tracer)
    perf = time.perf_counter
    try:
        between_ops = wl.sample_every_s is None
        with hostspeed.sampling(wl.sample_every_s):
            t_pass = perf()
            spans = []
            for step in wl.prep_steps():
                start = perf()
                step()
                spans.append((start, perf()))
            hostspeed.record()
            res.prep = [hostspeed.scaled(a, b) for a, b in spans]
            res.raw_s = sum(hostspeed.busy(a, b) for a, b in spans)
            op_id = 0
            while len(res.round_s) < wl.min_rounds or res.raw_s < seconds:
                records = []
                spans = []
                for key, fn, arg in wl.ops:
                    tracer.set_op(op_id)
                    op_id += 1
                    with tracer.span("op"):
                        start = perf()
                        try:
                            out = fn(arg)
                        except Exception as err:  # a raising op has failed
                            out = err
                        spans.append((start, perf()))
                    records.append((key, out))
                    if between_ops:
                        hostspeed.record()
                hostspeed.record()
                latencies = [hostspeed.scaled(a, b) for a, b in spans]
                res.raw_s += sum(hostspeed.busy(a, b) for a, b in spans)
                res.latencies += latencies
                res.round_s.append(math.fsum(latencies))
                res.round_p50.append(statistics.median(latencies))
                for _, out in records:
                    if isinstance(out, Exception):
                        traceback.print_exception(out, file=sys.stderr)
                        break
                res.failed += wl.check_round(records)
            res.host_factor = hostspeed.host_factor(t_pass, perf())
        res.peak_rss_mb = wl.peak_rss_mb()
        res.failed += wl.end_pass()
    finally:
        wl.unbind()
    return res
