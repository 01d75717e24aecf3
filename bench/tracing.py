"""Spans around the benchmark's own calls into mdmix.

A span is (name, start, end, parent span index, op id).  Spans are kept in
memory and written out once, when the run ends.  The untraced path uses
NullTracer, whose `wrap` hands back the library callable itself, so the
untraced run executes no tracing code at all inside an op.
"""

from __future__ import annotations

import csv
import statistics
import time

import hostspeed

SETUP_OP = -1

# Spans reported by the traced run, per layer (module of src/mdmix).
LAYER_SPANS = (
    "model.read_frequency_csv",
    "model.theta_to_alpha",
    "model.CountTable",
    "mdm.MdmParams",
    "mdm.mdm_log_pmf",
    "mdm.mdm_chain_log_pmf",
    "moments.mean_matrix",
    "moments.covariance_matrix",
    "oracle.MdmSampler.init",
    "oracle.MdmSampler.draw",
    "evidence.pair_ratio",
    "evidence.woe_curve",
    "evidence.pair_ratio_curves",
    "evidence.pair_ratio_curves.A06",
    "evidence.pair_ratio_curves.A12",
    "evidence.pair_ratio_curves.A20",
    "evidence.pair_ratio_curves.A30",
    "validation.run_all_suites",
    "cli.main.pmf",
    "cli.main.moments",
    "cli.main.sample",
    "cli.main.woe-curve",
    "cli.main.ratio-curve",
    "cli.main.validate",
    "cli.process.pmf",
    "cli.process.moments",
    "cli.process.sample",
    "cli.process.woe-curve",
    "cli.process.ratio-curve",
    "cli.process.validate",
    "cli.import",
    "cli.interpreter",
    "op",
)

CURVE_BUCKETS = (6, 12, 20, 30)


def curve_bucket(n_categories: int) -> str:
    """Span name of a pair_ratio_curves call, by the nearest A bucket."""
    nearest = min(CURVE_BUCKETS, key=lambda b: (abs(b - n_categories), b))
    return f"evidence.pair_ratio_curves.A{nearest:02d}"


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: library callables are used as they are."""

    enabled = False

    def wrap(self, name, fn):
        return fn

    def span(self, name):
        return _NULL_SPAN

    def set_op(self, op_id):
        pass


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr.stack[-1] if tr.stack else -1
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent,
                                tr.op_id)
        return False


class Tracer:
    """Records spans in memory; `wrap` returns a recording callable."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = SETUP_OP

    def set_op(self, op_id):
        self.op_id = op_id

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn):
        # the same bookkeeping as _Span, inlined: this runs once per
        # library call, so it sets the tracing overhead
        spans = self.spans
        stack = self.stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("index", "name", "start_s", "end_s", "parent",
                             "op"))
            for k, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow((k, name, repr(start), repr(end), parent, op))

    def layer_metrics(self) -> dict:
        """calls, busy_s and median us_per_call for each of LAYER_SPANS,
        plus op.self_s: op time not covered by the op's child spans.

        Span times are wall times without the host-speed reference runs
        inside them (hostspeed.busy), and are not scaled."""
        durations: dict[str, list[float]] = {}
        child_time = [0.0] * len(self.spans)
        busy = [hostspeed.busy(start, end)
                for _, start, end, _, _ in self.spans]
        for k, (name, _, _, parent, _) in enumerate(self.spans):
            durations.setdefault(name, []).append(busy[k])
            if parent >= 0:
                child_time[parent] += busy[k]
        metrics = {}
        for layer in LAYER_SPANS:
            # a parent name also counts the spans of its buckets
            values = [d for name, ds in durations.items()
                      if name == layer or name.startswith(layer + ".A")
                      for d in ds]
            metrics[f"{layer}.calls"] = (len(values), "count")
            metrics[f"{layer}.busy_s"] = (sum(values), "s")
            metrics[f"{layer}.us_per_call"] = (
                statistics.median(values) * 1e6 if values else 0.0, "us")
        self_s = sum(busy[k] - child_time[k]
                     for k, (name, _, _, _, _) in enumerate(self.spans)
                     if name == "op")
        metrics["op.self_s"] = (self_s, "s")
        return metrics
