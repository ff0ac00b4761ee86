"""Host-cost and simulated-latency benchmark: one command, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_stage --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: it builds and
runs the workload repeatedly for ``--seconds`` wall seconds, checks every
run, and reports estimates over all the runs (``bench.end_to_end``). ``--trace 1`` makes one untraced
run, one run with per-layer spans (``tracing.py``) and one under cProfile,
writes them to ``perfbench/out/<workload>-seed<seed>/`` and reports the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The benchmark reads ``src/`` of the checkout it sits in and changes
nothing there; it exits with code 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench import end_to_end, measure
    from workloads import WORKLOADS, CompletionLog

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r};"
              f" known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    log = CompletionLog()
    log.install()
    try:
        if args.trace:
            from layers import traced_metrics

            runs, failed, metrics = traced_metrics(
                workload, args.seed, log, HERE / "out")
        else:
            runs, failed = measure(workload, args.seed, args.seconds, log)
            metrics = end_to_end(runs, failed)
    finally:
        log.remove()

    for name, metric in metrics.items():
        print(f"{workload.name:16s} {name:28s} {metric['value']:14.6g}"
              f" {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
