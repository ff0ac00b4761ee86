"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/collect.py --workloads fleet_stage home_dataplane \\
        --seeds 1-10 --seconds 40 --out perfbench/results/steadiness.json

Runs ``run.py`` once per (workload, seed), one after another, and records
every result line plus, per metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread: the distance between the
quartiles as a share of the median. The spread is shown beside a third
of the metric's bound from ``BENCHMARK.json``, the steadiness target.
With ``--out X.json`` the tables are also written to ``X.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report: dict = {"seconds": seconds, "workloads": {}}
    tables: list[str] = []
    for workload in args.workloads:
        results = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']}"
                  f" attempted={result['attempted']}", flush=True)
        names = list(results[0]["metrics"])
        summary = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in names
        }
        report["workloads"][workload] = {"runs": results, "summary": summary}
        units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
        table = [f"{workload}: {len(results)} runs, seeds {args.seeds},"
                 f" --seconds {seconds} --trace {args.trace}", ""]
        if len(results) == 1:
            table += ["| metric | value | unit |", "|---|---|---|"]
            table += [f"| {name} | {s['median']:.6g} | {units[name]} |"
                      for name, s in summary.items()]
        else:
            table += ["| metric | median | q1 | q3 | spread | bound / 3 |",
                      "|---|---|---|---|---|---|"]
            for name, s in summary.items():
                bound = bounds.get(name)
                target = f"{bound / 3:.3f}" if bound is not None else ""
                table.append(f"| {name} | {s['median']:.6g} | {s['q1']:.6g} |"
                             f" {s['q3']:.6g} | {s['spread']:.4f} | {target} |")
        tables.append("\n".join(table))
        print(tables[-1], flush=True)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        args.out.with_suffix(".md").write_text("\n\n".join(tables) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
