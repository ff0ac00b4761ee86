#!/usr/bin/env python3
"""Benchmark regression gate: diff bench JSON artifacts against a baseline.

Usage (CI's bench-smoke job runs exactly this after the benchmarks)::

    python tools/bench_compare.py \
        bench-artifacts/fig6_highfps.json \
        bench-artifacts/BENCH_refpassing.json

The committed baseline lives in ``tools/bench_baseline.json``. It maps each
artifact's basename to the dotted metric paths worth guarding, with a
``direction`` per metric: ``lower`` metrics (latencies, bytes) fail when the
measured value rises more than ``tolerance_pct`` (default 10%) above the
baseline; ``higher`` metrics (improvement ratios) fail when it falls more
than the tolerance below. Improvements beyond the tolerance print a ratchet
hint; run with ``--update`` to rewrite the baseline (then commit the diff —
moving the bar is a reviewed change, like a golden).

Baseline numbers are recorded in ``REPRO_BENCH_FAST=1`` mode (the CI
operating point); an artifact whose ``fast_mode`` flag disagrees with the
baseline's is skipped with a warning, because full-window numbers are not
comparable to smoke-window ones.

CI's perf-smoke job runs the same gate on ``perfbench/run.py`` result
lines, one file per workload, against ``tools/event_ceilings.json``:
``kernel_events_per_frame`` is exact for a seed, so its tolerance is the
0.4% bound ``BENCHMARK.json`` gives the metric, and one extra kernel event
per completed frame fails it on every workload::

    python tools/bench_compare.py --baseline tools/event_ceilings.json \
        perf-artifacts/fleet_stage.json perf-artifacts/home_dataplane.json \
        perf-artifacts/fleet_managed.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

BASELINE_PATH = Path(__file__).parent / "bench_baseline.json"
DEFAULT_TOLERANCE_PCT = 10.0


def dig(doc: Any, path: str) -> Any:
    """Resolve a dotted path (``arms.on.stage_means_ms.total_duration``)."""
    node = doc
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        else:
            node = node[part]
    return node


def load_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        sys.exit(f"bench artifact {path} not found — run the benchmarks"
                 " first (REPRO_*_OUT env vars choose where they land)")
    except json.JSONDecodeError as exc:
        sys.exit(f"malformed bench artifact {path}: {exc}")


def compare_artifact(name: str, doc: Any, guards: dict[str, Any],
                     tolerance_pct: float) -> tuple[list[str], list[str],
                                                    dict[str, float]]:
    """Returns (failures, ratchet hints, measured values) for one artifact."""
    failures: list[str] = []
    hints: list[str] = []
    measured: dict[str, float] = {}
    for path, guard in guards.items():
        try:
            value = float(dig(doc, path))
        except (KeyError, IndexError, TypeError, ValueError):
            failures.append(f"{name}:{path}: metric missing from artifact")
            continue
        measured[path] = value
        base = float(guard["value"])
        direction = guard.get("direction", "lower")
        tol = base * tolerance_pct / 100.0
        if direction == "lower":
            regressed, improved = value > base + tol, value < base - tol
            verdict = f"rose {value - base:+.3f} over"
        else:
            regressed, improved = value < base - tol, value > base + tol
            verdict = f"fell {value - base:+.3f} under"
        status = "FAIL" if regressed else "ok"
        print(f"  [{status}] {path}: measured {value:.3f},"
              f" baseline {base:.3f} ({direction} is better)")
        if regressed:
            failures.append(
                f"{name}:{path}: {verdict} the baseline {base:.3f}"
                f" (tolerance {tolerance_pct:g}%)")
        elif improved:
            hints.append(f"{name}:{path}: {value:.3f} beats {base:.3f}")
    return failures, hints, measured


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", nargs="+", type=Path,
                        help="bench JSON artifacts (matched to the baseline"
                             " by basename)")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the baseline's tolerance_pct")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline's values to the measured"
                             " ones")
    args = parser.parse_args(argv)

    baseline = load_json(args.baseline)
    tolerance = (args.tolerance if args.tolerance is not None
                 else baseline.get("tolerance_pct", DEFAULT_TOLERANCE_PCT))

    failures: list[str] = []
    hints: list[str] = []
    for path in args.artifacts:
        name = path.name
        guards = baseline.get("artifacts", {}).get(name)
        if guards is None:
            print(f"{name}: no baseline entry — skipped")
            continue
        doc = load_json(path)
        doc_fast = doc.get("fast_mode")
        base_fast = baseline.get("fast_mode")
        if (doc_fast is not None and base_fast is not None
                and doc_fast != base_fast):
            print(f"{name}: fast_mode={doc_fast} but the baseline holds"
                  f" fast_mode={base_fast} numbers — skipped (windows are"
                  " not comparable)")
            continue
        print(f"{name} vs baseline (tolerance {tolerance:g}%):")
        fail, hint, measured = compare_artifact(name, doc, guards, tolerance)
        failures.extend(fail)
        hints.extend(hint)
        if args.update:
            for metric, value in measured.items():
                guards[metric]["value"] = round(value, 3)

    if args.update:
        args.baseline.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"baseline updated — commit {args.baseline}")
        return 0
    for hint in hints:
        print(f"improvement beyond tolerance — consider ratcheting: {hint}")
    if failures:
        print("FAIL: benchmark regression(s) vs the committed baseline:")
        for failure in failures:
            print(f"  - {failure}")
        print("Fix the regression, or — if the slowdown is a deliberate"
              " trade — update the baseline in the same PR with"
              " tools/bench_compare.py --update and justify it in review.")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
