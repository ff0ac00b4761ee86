"""The traced run: per-layer metrics, the span dump and the cProfile table.

:func:`traced_metrics` makes four runs of one workload and seed: an untimed
warm-up, an untraced run, a run under :class:`tracing.LayerTracer` and a
run under cProfile. All four must pass the checks and produce the same
simulated-output digest. Per-layer metrics are read from the traced run's
run phase (set-up excluded, except ``pipeline.plan_s``); the files written
are ``spans.jsonl`` (raw spans, first ``SPAN_CAP``), ``layers.json`` (every
count and self time) and ``profile.txt`` (span self share beside cProfile
self share, per package).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bench import Run
from tracing import LAYERS, LayerTracer, count_calls
from workloads import arena_stats

#: Every per-layer metric: (name, unit, better), in the order reported.
METRICS = (
    ("sim.events_per_frame", "events/frame", "lower"),
    ("sim.timeouts_per_frame", "calls/frame", "lower"),
    ("sim.signals_per_frame", "calls/frame", "lower"),
    ("sim.processes_per_frame", "calls/frame", "lower"),
    ("sim.self_share", "ratio", "lower"),
    ("runtime.sends_per_frame", "calls/frame", "lower"),
    ("runtime.self_us_per_send", "us", "lower"),
    ("runtime.self_share", "ratio", "lower"),
    ("net.messages_per_frame", "calls/frame", "lower"),
    ("net.wire_bytes_per_frame", "B/frame", "lower"),
    ("net.codec_calls_per_frame", "calls/frame", "lower"),
    ("net.rpc_calls_per_frame", "calls/frame", "lower"),
    ("net.rpc_failures", "count", "lower"),
    ("net.self_share", "ratio", "lower"),
    ("services.calls_per_frame", "calls/frame", "lower"),
    ("services.cache_hit_ratio", "ratio", "higher"),
    ("services.pool_borrow_ratio", "ratio", "higher"),
    ("services.queue_wait_ms", "ms", "lower"),
    ("services.self_share", "ratio", "lower"),
    ("frames.store_ops_per_frame", "calls/frame", "lower"),
    ("frames.dedup_hit_ratio", "ratio", "higher"),
    ("frames.arena_allocs_per_frame", "count/frame", "lower"),
    ("frames.stale_accesses", "count", "lower"),
    ("frames.peak_arena_mb", "MB", "lower"),
    ("frames.self_share", "ratio", "lower"),
    ("vision.calls_per_frame", "calls/frame", "lower"),
    ("vision.self_ms_per_frame", "ms/frame", "lower"),
    ("motion.calls_per_frame", "calls/frame", "lower"),
    ("motion.self_ms_per_frame", "ms/frame", "lower"),
    ("pipeline.plan_s", "s", "lower"),
    ("pipeline.plan_useful_ratio", "ratio", "higher"),
    ("pipeline.online_self_share", "ratio", "lower"),
    ("pipeline.online_ticks", "count", "lower"),
    ("pipeline.migrations", "count", "lower"),
    ("audit.hook_calls_per_frame", "calls/frame", "lower"),
    ("audit.self_share", "ratio", "lower"),
    ("trace.spans_per_frame", "count/frame", "lower"),
    ("trace.self_share", "ratio", "lower"),
    ("liveops.self_share", "ratio", "lower"),
    ("slo.ticks", "count", "lower"),
    ("slo.actions", "count", "lower"),
    ("slo.self_share", "ratio", "lower"),
    ("metrics.self_share", "ratio", "lower"),
    ("traced.overhead_ratio", "ratio", "lower"),
    ("traced.attributed_share", "ratio", "higher"),
)
#: layers that report the share of the traced run phase they hold
SHARE_LAYERS = (
    "sim", "runtime", "net", "services", "frames", "audit", "trace",
    "liveops", "slo", "metrics",
)


def _hosts(homes):
    for home in homes:
        for name in home.registry.service_names():
            yield from home.registry.hosts_of(name)


def layer_metrics(traced: Run, plain: Run) -> dict:
    built = traced.built
    tracer = traced.tracer
    run = tracer.since(traced.setup_trace)
    setup_calls = traced.setup_trace["calls"]
    calls = run["calls"]
    frames = traced.outcome.completed
    run_ns = traced.run_ns
    layer_ns = tracer.layer_self_ns(run["self_ns"])
    sends = count_calls(calls, r"runtime\.moduleruntime:ModuleRuntime\.send_to_module$")
    clients = tracer.instances("repro.net.rpc:RpcClient.call")
    hosts = list(_hosts(built.homes))
    host_calls = sum(h.local_calls + h.remote_calls for h in hosts)
    cache_hits = sum(h.cache_hits for h in hosts)
    cache_lookups = cache_hits + sum(h.cache_misses for h in hosts)
    stores = [d.frame_store for home in built.homes for d in home.devices.values()]
    dedup_hits = sum(s.dedup_hits for s in stores)
    dedup_tries = dedup_hits + sum(s.dedup_misses for s in stores)
    pool_grants = pool_borrowed = 0
    for home in built.homes:
        pool = home.data_plane_stats()["pool"]
        pool_grants += pool["grants"]
        pool_borrowed += pool["borrowed"]
    arena = arena_stats(built.homes)
    plans = count_calls(setup_calls, r"pipeline\.optimizer:plan_optimized$")
    useful = sum(1 for p in built.pipelines
                 if p.placement.strategy != "colocated") if plans else 0
    online_ns = sum(ns for key, ns in run["self_ns"].items()
                    if ":OnlineOptimizer." in key)
    trace_spans = sum(h.tracer.span_count for h in built.homes
                      if h.tracer is not None)

    def per_frame(n):
        return n / frames

    metrics = {
        "sim.events_per_frame": per_frame(traced.events.executed),
        "sim.timeouts_per_frame": per_frame(
            count_calls(calls, r"sim\.kernel:Kernel\.timeout$")),
        "sim.signals_per_frame": per_frame(
            count_calls(calls, r"sim\.kernel:Kernel\.signal$")),
        "sim.processes_per_frame": per_frame(
            count_calls(calls, r"sim\.kernel:Kernel\.process$")),
        "runtime.sends_per_frame": per_frame(sends),
        "runtime.self_us_per_send": (
            layer_ns["runtime"] / 1e3 / sends if sends else 0.0),
        "net.messages_per_frame": per_frame(
            count_calls(calls, r"net\.transport:Transport\.send$")),
        "net.wire_bytes_per_frame": per_frame(run["wire_bytes"]),
        "net.codec_calls_per_frame": per_frame(
            count_calls(calls, r"net\.wire:(encode|decode|payload_size)$")),
        "net.rpc_calls_per_frame": per_frame(
            count_calls(calls, r"net\.rpc:RpcClient\.call$")),
        "net.rpc_failures": sum(c.retries + c.circuit_rejections
                                for c in clients),
        "services.calls_per_frame": per_frame(host_calls),
        "services.cache_hit_ratio": (
            cache_hits / cache_lookups if cache_lookups else 0.0),
        "services.pool_borrow_ratio": (
            pool_borrowed / pool_grants if pool_grants else 0.0),
        "services.queue_wait_ms": (
            sum(h.total_wait_s for h in hosts) * 1e3 / host_calls
            if host_calls else 0.0),
        "frames.store_ops_per_frame": per_frame(count_calls(
            calls, r"frames\.framestore:FrameStore\.(put|get|add_ref|release)$")),
        "frames.dedup_hit_ratio": dedup_hits / dedup_tries if dedup_tries else 0.0,
        "frames.arena_allocs_per_frame": per_frame(arena["allocs"]),
        "frames.stale_accesses": arena["stale_accesses"],
        "frames.peak_arena_mb": arena["peak_bytes"] / 2**20,
        "vision.calls_per_frame": per_frame(run["entries"]["vision"]),
        "vision.self_ms_per_frame": per_frame(layer_ns["vision"] / 1e6),
        "motion.calls_per_frame": per_frame(run["entries"]["motion"]),
        "motion.self_ms_per_frame": per_frame(layer_ns["motion"] / 1e6),
        "pipeline.plan_s": tracer.inclusive_ns[
            "repro.pipeline.optimizer:plan_optimized"] / 1e9,
        "pipeline.plan_useful_ratio": useful / plans if plans else 0.0,
        "pipeline.online_self_share": online_ns / run_ns,
        "pipeline.online_ticks": count_calls(
            calls, r"OnlineOptimizer\._consider$"),
        "pipeline.migrations": sum(p.metrics.counter("migrations")
                                   for p in built.pipelines),
        "audit.hook_calls_per_frame": per_frame(
            count_calls(calls, r"audit\.auditor:InvariantAuditor\.on_\w+$")),
        "trace.spans_per_frame": per_frame(trace_spans),
        "slo.ticks": count_calls(calls, r"SLOController\._tick$"),
        "slo.actions": sum(len(h.slo.actions) for h in built.homes
                           if h.slo is not None),
        "traced.overhead_ratio": traced.run_cpu_s / plain.run_cpu_s,
        "traced.attributed_share": sum(layer_ns.values()) / run_ns,
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = layer_ns[layer] / run_ns
    return metrics


def write_artifacts(out_dir: Path, traced: Run, profiled: Run,
                    metrics: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = traced.tracer
    run = tracer.since(traced.setup_trace)
    with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "fields": ["id", "parent", "function", "start_ns", "end_ns"],
            "clock": "perf_counter_ns", "kept": len(tracer.spans),
            "dropped": tracer.spans_dropped,
        }) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    layer_ns = tracer.layer_self_ns(run["self_ns"])
    profile_total = profiled.profile_total_s or 1.0
    with open(out_dir / "layers.json", "w", encoding="utf-8") as fh:
        json.dump({
            "metrics": metrics,
            "run_ns": traced.run_ns,
            "layer_self_ns": dict(layer_ns),
            "functions": {
                key: {"layer": tracer.layer_of[key], "calls": n,
                      "self_ns": run["self_ns"].get(key, 0)}
                for key, n in run["calls"].most_common()
            },
            "cprofile_self_s": profiled.profile,
        }, fh, indent=1, sort_keys=True)
    rows = sorted(
        set(f"repro.{layer}" for layer in LAYERS) | set(profiled.profile),
        key=lambda p: -profiled.profile.get(p, 0.0))
    with open(out_dir / "profile.txt", "w", encoding="utf-8") as fh:
        fh.write("self time by package: span share of the traced run phase"
                 " vs cProfile tottime share\n")
        fh.write(f"{'package':22s} {'spans':>8s} {'cProfile':>9s}\n")
        for package in rows:
            layer = package.removeprefix("repro.")
            span_share = (layer_ns[layer] / traced.run_ns
                          if layer in LAYERS else float("nan"))
            fh.write(f"{package:22s} {span_share:8.3f}"
                     f" {profiled.profile.get(package, 0.0) / profile_total:9.3f}\n")


def traced_metrics(workload, seed: int, log, out_root: Path):
    warm = Run(workload, seed, log)
    plain = Run(workload, seed, log)
    traced = Run(workload, seed, log, tracer=LayerTracer())
    profiled = Run(workload, seed, log, profile=True)
    runs = [warm, plain, traced, profiled]
    failed = 0
    for label, run in zip(("warm-up", "untraced", "traced", "profiled"), runs):
        problems = list(run.outcome.failures)
        if run.outcome.digest != warm.outcome.digest:
            problems.append("simulated outputs differ from the untraced run")
        if problems:
            failed += 1
            print(f"{label} run FAILED: " + "; ".join(problems), file=sys.stderr)
    values = layer_metrics(traced, plain)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in METRICS}
    write_artifacts(out_root / f"{workload.name}-seed{seed}", traced,
                    profiled, metrics)
    for run in runs:
        run.release()
    return runs, failed, metrics
