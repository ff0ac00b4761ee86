"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/compare.py BASE.json CHANGE.json

Each file is a report written by ``collect.py --out``. For every workload
both reports ran and every end-to-end metric, the change's median is
compared with the base's median; a metric is flagged when it is worse by
more than its bound (a share of the base median). Exits with code 1 when
anything is flagged or a run failed its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worse_by(base: float, change: float, better: str) -> float:
    """How much worse *change* is than *base*, as a share of *base*
    (negative when it is better)."""
    delta = change - base if better == "lower" else base - change
    if base == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(base)


def compare(base: dict[str, list[dict]], change: dict[str, list[dict]],
            spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides.

    *base* and *change* map a workload name to its list of result objects
    (the JSON line ``run.py`` prints)."""
    rows = []
    for workload in base:
        if workload not in change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old = statistics.median(r["metrics"][name]["value"]
                                    for r in base[workload])
            new = statistics.median(r["metrics"][name]["value"]
                                    for r in change[workload])
            share = worse_by(old, new, metric["better"])
            rows.append({
                "workload": workload, "metric": name, "base": old,
                "change": new, "worse_by": share, "bound": metric["bound"],
                "flagged": share > metric["bound"],
            })
    return rows


def failed_runs(results: dict[str, list[dict]]) -> int:
    return sum(1 for runs in results.values() for r in runs
               if not r["correct"])


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'workload':16s} {'metric':26s} {'base':>12s} {'change':>12s}"
             f" {'worse by':>9s} {'bound':>6s}"]
    for row in rows:
        mark = "  FLAGGED" if row["flagged"] else ""
        lines.append(
            f"{row['workload']:16s} {row['metric']:26s} {row['base']:12.6g}"
            f" {row['change']:12.6g} {row['worse_by']:9.2%}"
            f" {row['bound']:6.3f}{mark}")
    return "\n".join(lines)


def _runs_of(report: dict) -> dict[str, list[dict]]:
    return {w: data["runs"] for w, data in report["workloads"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base = _runs_of(json.loads(args.base.read_text()))
    change = _runs_of(json.loads(args.change.read_text()))
    rows = compare(base, change, load_spec())
    print(format_rows(rows))
    failed = failed_runs(change)
    if failed:
        print(f"{failed} runs of the change failed their checks")
    return 1 if failed or any(r["flagged"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
