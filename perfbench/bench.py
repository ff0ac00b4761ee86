"""Building, running and reading the workloads, shared by ``run.py`` and
``selftest.py``."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time

from tracing import EventCounter, profile_by_package
from workloads import outcome

#: Runs per invocation below which the medians mean little. No run is set
#: aside as a warm-up: a cold first run only sits at the edge of a median.
MIN_RUNS = 4

#: The run phase is timed in this many equal slices of simulated time.
SLICES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_ms_per_frame": "ms",
    "kernel_events_per_frame": "events",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "delivered_fps": "frames/s",
    "drop_share": "ratio",
    "passed_share": "ratio",
}


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-quantile by nearest rank (no interpolation)."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


#: CPU seconds one :class:`Calibrator` call takes on a quiet 2-vCPU
#: x86-64 VM under CPython 3.11; normalized times are in seconds of that
#: machine.
CALIBRATION_REF_S = 0.0036


class _Probe:
    __slots__ = ("key", "items", "attrs")

    def __init__(self, key, items, attrs):
        self.key = key
        self.items = items
        self.attrs = attrs


class Calibrator:
    """A fixed interpreter workload that shares no code with the program.

    Each call allocates small objects, lists and dicts into a small table,
    then reads and replaces entries at pseudo-random places in a 16,384-entry
    pool that does not fit in a core's private cache: the two kinds of work
    the simulator spends its time on, and the two a busy host slows by
    different amounts."""

    POOL = 16384

    def __init__(self) -> None:
        self._pool = [_Probe(i, [i], {"k": i}) for i in range(self.POOL)]
        self._index = 12345

    def __call__(self) -> float:
        """CPU seconds of one pass, with the cyclic collector paused so that
        a collection of the simulation's heap is not billed to the pass."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._pass()
        finally:
            if collecting:
                gc.enable()

    def _pass(self) -> float:
        start = time.process_time()
        table = {}
        total = 0
        for i in range(1000):
            probe = _Probe(i, [i, i + 1], {"k": i})
            table[i % 601] = probe
            total += probe.items[0] + probe.attrs["k"]
        pool = self._pool
        index = self._index
        for _ in range(1000):
            index = (index * 1103515245 + 12345) & (self.POOL - 1)
            probe = pool[index]
            total += probe.items[0] + probe.attrs["k"]
            pool[index] = _Probe(index, [total & 7], {"k": index})
        self._index = index
        return time.process_time() - start


def normalized(cpu_s: float, calibration_s: float) -> float:
    return cpu_s * CALIBRATION_REF_S / calibration_s


def run_in_slices(built, calibrate: Calibrator) -> float:
    """Run *built* to completion; return its normalized run-phase CPU.

    The run phase is cut into ``SLICES`` equal steps of simulated time
    plus the final settle. Each slice's CPU time is scaled by
    ``CALIBRATION_REF_S`` over the time of a calibration pass made right
    after it, so a slice that ran while the host was busy is scaled down
    by about as much as the host slowed it. Stopping the kernel at a slice
    boundary changes nothing it computes: no simulation code runs in
    between, and the next step resumes at the same event."""
    total = 0.0
    step = built.horizon_s / SLICES
    for k in range(1, SLICES + 2):
        start = time.process_time()
        if k <= SLICES:
            built.kernel.run(until=built.horizon_s if k == SLICES else k * step)
        else:
            built.run()
        cpu_s = time.process_time() - start
        total += normalized(cpu_s, calibrate())
    return total


class Run:
    """One build-and-run of a workload: host costs plus its outcome.

    With a *calibrate* the set-up and the run phase are timed and
    normalized (end-to-end runs, :func:`run_in_slices`); otherwise the run
    phase runs straight through, under the tracer or the profiler if
    given."""

    def __init__(self, workload, seed, log, tracer=None, profile=False,
                 calibrate: Calibrator | None = None):
        log.reset()
        gc.collect()
        self.tracer = tracer
        if tracer is not None:
            tracer.install()
        try:
            calibration0 = calibrate() if calibrate else CALIBRATION_REF_S
            cpu0 = time.process_time()
            built = workload.build(seed)
            cpu1 = time.process_time()
            calibration1 = calibrate() if calibrate else CALIBRATION_REF_S
            # events scheduled from here on: the run phase's own work
            counter = EventCounter()
            built.kernel.add_observer(counter)
            self.setup_trace = tracer.snapshot() if tracer else None
            wall0 = time.perf_counter_ns()
            cpu2 = time.process_time()
            self.run_normalized_s = None
            if profile:
                self.profile, self.profile_total_s = profile_by_package(built.run)
            elif calibrate:
                self.run_normalized_s = run_in_slices(built, calibrate)
            else:
                built.run()
            cpu3 = time.process_time()
            self.run_ns = time.perf_counter_ns() - wall0
        finally:
            if tracer is not None:
                tracer.remove()
        built.kernel.remove_observer(counter)
        self.setup_cpu_s = cpu1 - cpu0
        self.setup_normalized_s = normalized(
            self.setup_cpu_s, (calibration0 + calibration1) / 2)
        self.run_cpu_s = cpu3 - cpu2
        self.events = counter
        self.duration_s = built.duration_s
        self.built = built
        self.outcome = outcome(built, log)

    def release(self) -> None:
        """Drop the simulation objects once the run has been read."""
        self.built = None


def end_to_end(runs: list[Run], failed: int) -> dict:
    first = runs[0].outcome
    completed = first.completed
    latencies = sorted(first.latencies)
    duration_s = runs[0].duration_s
    metrics = {
        "setup_s": statistics.median(r.setup_normalized_s for r in runs),
        "cpu_ms_per_frame": statistics.median(
            r.run_normalized_s for r in runs) * 1e3 / completed,
        "kernel_events_per_frame": runs[0].events.scheduled / completed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latency_p50_ms": nearest_rank(latencies, 0.50) * 1e3,
        "latency_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
        "delivered_fps": completed / duration_s,
        "drop_share": first.dropped / first.captured,
        "passed_share": (len(runs) - failed) / len(runs),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def measure(workload, seed: int, seconds: float, log,
            min_runs: int = MIN_RUNS) -> tuple[list[Run], int]:
    """Build and run *workload* until *seconds* of wall time are used.

    A run fails when its checks fail or its simulated outputs differ from
    the first run's: the same seed must give the same result every time."""
    runs: list[Run] = []
    failed = 0
    calibrate = Calibrator()
    start = time.perf_counter()
    while True:
        run = Run(workload, seed, log, calibrate=calibrate)
        run.release()
        problems = list(run.outcome.failures)
        if runs and run.outcome.digest != runs[0].outcome.digest:
            problems.append("simulated outputs differ from the first run")
        if problems:
            failed += 1
            print(f"run {len(runs)} FAILED: " + "; ".join(problems),
                  file=sys.stderr)
        runs.append(run)
        elapsed = time.perf_counter() - start
        if len(runs) >= min_runs and elapsed * (1 + 1 / len(runs)) > seconds:
            break
    return runs, failed
