"""Host speed: a fixed pure-Python reference kernel, sampled while ops run.

The benchmark runs on shared machines whose speed for one process moves by
up to half, both over stretches of seconds and within one long op, and a
whole run can fall into a slow or a fast stretch.  So the benchmark pins
itself and its children to one CPU (`pin_to_one_cpu`), and while a pass
runs, an interval timer (SIGALRM) runs the reference kernel every EVERY_S
seconds, wherever the main thread is, and records how long it took.  A
timed interval is then

- its wall time minus the kernel runs inside it (`busy`), and
- scaled by REF_S over the mean time of the kernel runs inside it and of
  the last run before and the first run after it (`scaled`),

so that it reads as it would on a host where the kernel takes exactly
REF_S.  The kernel does not call mdmix, so a change to mdmix moves the
scaled times as much as the raw ones; only the host's speed cancels.

The kernel is interpreter-bound like most of mdmix (math.lgamma in list
comprehensions, dicts, sorting) and this module imports only the standard
library, so sampling can run before numpy and mdmix are imported, around
the measured set-up.  REF_S and the kernel define the unit of every timing
metric: they must not change between two commits that are compared.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import signal
import statistics
import time

# The kernel's time on an unloaded 2-vCPU virtual machine (Python 3.11).
REF_S = 0.002
KERNEL_STEPS = 200
EVERY_S = 0.025

# Every kernel run of this process: start, end and the running total of
# their durations (_total[k] is the time of the first k runs).
_starts: list[float] = []
_ends: list[float] = []
_total: list[float] = [0.0]
_running = False


def kernel() -> float:
    acc = 0.0
    for i in range(KERNEL_STEPS):
        xs = [math.lgamma(0.5 + i + k) for k in range(20)]
        by_index = {k: x for k, x in enumerate(xs)}
        acc += math.fsum(sorted(by_index.values())[:5])
    return acc


def record() -> None:
    """Run the kernel once and record when it ran."""
    global _running
    if _running:  # an alarm that fires inside the kernel is dropped
        return
    _running = True
    try:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        _starts.append(start)
        _ends.append(end)
        _total.append(_total[-1] + (end - start))
    finally:
        _running = False


def _on_alarm(signum, frame) -> None:
    record()


@contextlib.contextmanager
def sampling(every_s: float | None = EVERY_S):
    """Record a kernel run now, every `every_s` s inside the block, and
    once more when it ends, so every interval inside has runs around it.

    With `every_s` None there is no timer, and the caller records between
    the intervals it times.  That is for intervals in which a child
    process does the work: a kernel run in parallel with it would share
    its CPU.
    """
    kernel()  # warm-up, not recorded
    record()
    if every_s is None:
        try:
            yield
        finally:
            record()
        return
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        record()


def pin_to_one_cpu() -> int:
    """Pin this process, and the children it starts, to one CPU, so that
    the kernel runs where the timed work runs.  The highest CPU it may use:
    CPU 0 takes more of the interrupts and other processes."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def paused(start: float, end: float) -> float:
    """Seconds of kernel runs inside [start, end].

    A run happens between two bytecodes of the main thread, so it lies
    wholly inside or wholly outside any interval timed there.
    """
    first = bisect.bisect_left(_starts, start)
    stop = bisect.bisect_right(_ends, end)
    return _total[stop] - _total[first] if stop > first else 0.0


def busy(start: float, end: float) -> float:
    """Wall time of [start, end] without the kernel runs inside it."""
    return end - start - paused(start, end)


def scaled(start: float, end: float) -> float:
    """busy(start, end) at the host speed where the kernel takes REF_S.

    Needs a kernel run before `start` and one after `end`: time only
    inside `sampling`, and scale once the block has ended or after a
    `record()`.
    """
    first = bisect.bisect_left(_starts, start) - 1
    last = bisect.bisect_right(_ends, end)
    if first < 0 or last >= len(_ends):
        raise ValueError("no reference run on both sides of the interval")
    mean = (_total[last + 1] - _total[first]) / (last + 1 - first)
    return busy(start, end) * REF_S / mean


def host_factor(start: float, end: float) -> float:
    """REF_S over the median kernel time in [start, end]; below 1 on a
    host slower than the unit.  For the provenance only."""
    first = bisect.bisect_left(_starts, start)
    stop = bisect.bisect_right(_ends, end)
    times = [b - a for a, b in zip(_starts[first:stop], _ends[first:stop])]
    return REF_S / statistics.median(times) if times else math.nan
