"""The benchmark's own self-test: does it catch what it claims to catch?

Usage (from the repository root):

    python3 perfbench/selftest.py [--workload fleet_stage] [--seed 99]

Measures the workload once clean and once under each of three injected
faults, then compares each faulty result with the clean one through
``compare.compare`` and the bounds in ``BENCHMARK.json``:

1. one extra no-op kernel event per completed frame must raise
   ``kernel_events_per_frame`` by at least 1 and be flagged;
2. a simulated latency perturbed by 20 ms per frame must be flagged;
3. a frame store that leaks one reference in fifty must fail the
   conservation check, lower ``passed_share`` and be flagged.

It also checks that the workload descriptions in ``BENCHMARK.json`` match
the ones in ``workloads.py``, and that it lists every per-layer metric
``layers.py`` reports. The default seed, 99, is held out: it was not used
to size the workloads, tune the estimators or make the committed
steadiness record. Exits with code 1 if any case fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import end_to_end, measure  # noqa: E402
from compare import compare, format_rows, load_spec  # noqa: E402
from layers import METRICS  # noqa: E402
from workloads import WORKLOADS, CompletionLog  # noqa: E402

from repro.frames.framestore import FrameStore  # noqa: E402
from repro.metrics.collector import MetricsCollector  # noqa: E402
from repro.sim.kernel import Kernel  # noqa: E402

#: Seconds of measurement per case; every case still makes two runs.
SECONDS = 1.0


def _noop() -> None:
    pass


@contextmanager
def patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextmanager
def extra_event_per_frame():
    """Wrap Kernel so each completed frame schedules one no-op event."""
    kernels: list[Kernel] = []

    def init(original):
        def wrapper(self, *args, **kwargs):
            original(self, *args, **kwargs)
            kernels.append(self)
        return wrapper

    def completed(original):
        def wrapper(collector, frame_id, now):
            original(collector, frame_id, now)
            kernels[-1].schedule(0.0, _noop)
        return wrapper

    with patched(Kernel, "__init__", init), \
            patched(MetricsCollector, "frame_completed", completed):
        yield


@contextmanager
def perturbed_latency(extra_s: float = 0.020):
    """Record every frame as completing *extra_s* later than it did."""
    def completed(original):
        def wrapper(collector, frame_id, now):
            original(collector, frame_id, now + extra_s)
        return wrapper

    with patched(MetricsCollector, "frame_completed", completed):
        yield


@contextmanager
def leaking_store(every: int = 50):
    """Skip one frame-reference release in *every*."""
    def release(original):
        calls = [0]

        def wrapper(self, ref, *args, **kwargs):
            calls[0] += 1
            if calls[0] % every:
                original(self, ref, *args, **kwargs)
        return wrapper

    with patched(FrameStore, "release", release):
        yield


def run_case(workload, seed: int) -> dict:
    log = CompletionLog()
    log.install()
    try:
        runs, failed = measure(workload, seed, SECONDS, log, min_runs=2)
    finally:
        log.remove()
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": end_to_end(runs, failed), "digest": runs[0].outcome.digest}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fleet_stage")
    parser.add_argument("--seed", type=int, default=99)
    args = parser.parse_args(argv)
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    ok = True

    def check(label: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {label}{': ' + detail if detail else ''}")

    described = {w["name"]: w["why"] for w in spec["workloads"]}
    for name, w in WORKLOADS.items():
        check(f"BENCHMARK.json describes {name}",
              described.get(name) == w.description)
    check("BENCHMARK.json lists every per-layer metric",
          [tuple(m.values()) for m in spec["per_layer"]] == list(METRICS))

    clean = run_case(workload, args.seed)
    check("clean run passes its checks", clean["correct"])
    again = run_case(workload, args.seed)
    check("simulated outputs repeat exactly", again["digest"] == clean["digest"])

    cases = {
        "extra kernel event per frame": (extra_event_per_frame,
                                         "kernel_events_per_frame"),
        "perturbed simulated latency": (perturbed_latency, "latency_p50_ms"),
        "leaked frame reference": (leaking_store, "passed_share"),
    }
    for label, (fault, metric) in cases.items():
        with fault():
            faulty = run_case(workload, args.seed)
        rows = compare({args.workload: [clean]}, {args.workload: [faulty]}, spec)
        print(format_rows(rows))
        flagged = {r["metric"] for r in rows if r["flagged"]}
        check(f"{label} flags {metric}", metric in flagged,
              f"flagged {sorted(flagged)}")
        if metric == "kernel_events_per_frame":
            rise = (faulty["metrics"][metric]["value"]
                    - clean["metrics"][metric]["value"])
            check(f"{label} adds at least one event per frame", rise >= 1.0,
                  f"+{rise:.4f}")
        if metric == "passed_share":
            check(f"{label} fails the correctness checks",
                  not faulty["correct"] and faulty["failed"] > 0,
                  f"{faulty['failed']} of {faulty['attempted']} runs failed")
    print(json.dumps({"selftest": "pass" if ok else "fail"}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
