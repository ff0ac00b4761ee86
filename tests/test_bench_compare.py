"""The benchmark regression gate's logic (CI runs the real thing)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    Path(__file__).parent.parent / "tools" / "bench_compare.py",
)
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


def _files(tmp_path, latency_ms, ratio, base_latency=100.0, base_ratio=8.0,
           fast_mode=True, base_fast=True):
    artifact = tmp_path / "fig6_highfps.json"
    artifact.write_text(json.dumps({
        "fast_mode": fast_mode,
        "latency_improvement": ratio,
        "arms": {"on": {"stage_means_ms": {"total_duration": latency_ms}}},
    }))
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "tolerance_pct": 10.0,
        "fast_mode": base_fast,
        "artifacts": {"fig6_highfps.json": {
            "arms.on.stage_means_ms.total_duration":
                {"value": base_latency, "direction": "lower"},
            "latency_improvement":
                {"value": base_ratio, "direction": "higher"},
        }},
    }))
    return artifact, baseline


def test_pass_within_tolerance(tmp_path, capsys):
    artifact, baseline = _files(tmp_path, latency_ms=105.0, ratio=7.5)
    assert compare.main([str(artifact), "--baseline", str(baseline)]) == 0
    assert "OK" in capsys.readouterr().out


def test_fail_on_latency_regression(tmp_path, capsys):
    artifact, baseline = _files(tmp_path, latency_ms=115.0, ratio=8.0)
    assert compare.main([str(artifact), "--baseline", str(baseline)]) == 1
    assert "total_duration" in capsys.readouterr().out


def test_fail_when_improvement_ratio_collapses(tmp_path, capsys):
    artifact, baseline = _files(tmp_path, latency_ms=100.0, ratio=6.0)
    assert compare.main([str(artifact), "--baseline", str(baseline)]) == 1
    assert "latency_improvement" in capsys.readouterr().out


def test_fail_on_missing_metric(tmp_path):
    artifact = tmp_path / "fig6_highfps.json"
    artifact.write_text(json.dumps({"fast_mode": True}))
    _, baseline = _files(tmp_path, latency_ms=0, ratio=0)
    assert compare.main([str(artifact), "--baseline", str(baseline)]) == 1


def test_window_mismatch_skips_not_fails(tmp_path, capsys):
    artifact, baseline = _files(tmp_path, latency_ms=500.0, ratio=1.0,
                                fast_mode=False, base_fast=True)
    assert compare.main([str(artifact), "--baseline", str(baseline)]) == 0
    assert "not comparable" in capsys.readouterr().out


def test_unknown_artifact_skipped(tmp_path, capsys):
    artifact, baseline = _files(tmp_path, latency_ms=100.0, ratio=8.0)
    other = tmp_path / "unrelated.json"
    other.write_text("{}")
    assert compare.main([str(artifact), str(other),
                         "--baseline", str(baseline)]) == 0
    assert "no baseline entry" in capsys.readouterr().out


def test_update_rewrites_values(tmp_path):
    artifact, baseline = _files(tmp_path, latency_ms=90.0, ratio=9.0)
    assert compare.main([str(artifact), "--baseline", str(baseline),
                         "--update"]) == 0
    doc = json.loads(baseline.read_text())
    guards = doc["artifacts"]["fig6_highfps.json"]
    assert guards["arms.on.stage_means_ms.total_duration"]["value"] == 90.0
    assert guards["latency_improvement"]["value"] == 9.0


def test_improvement_prints_ratchet_hint(tmp_path, capsys):
    artifact, baseline = _files(tmp_path, latency_ms=80.0, ratio=10.0)
    assert compare.main([str(artifact), "--baseline", str(baseline)]) == 0
    assert "ratcheting" in capsys.readouterr().out


EVENT_CEILINGS = Path(__file__).parent.parent / "tools" / "event_ceilings.json"
#: kernel_events_per_frame of each perfbench workload at seed 1
EVENTS_PER_FRAME = {"fleet_stage": 59.55779569892473,
                    "home_dataplane": 80.95635305528613,
                    "fleet_managed": 37.97025495750708}


def _perfbench_results(tmp_path, extra_events=None):
    """One perfbench result line per workload, as CI's perf-smoke job
    saves them; *extra_events* adds events per frame to some workloads."""
    extra_events = extra_events or {}
    paths = []
    for workload, events in EVENTS_PER_FRAME.items():
        path = tmp_path / f"{workload}.json"
        value = events + extra_events.get(workload, 0)
        path.write_text(json.dumps({"correct": True, "metrics": {
            "kernel_events_per_frame": {"value": value, "unit": "events"}}}))
        paths.append(str(path))
    return paths + ["--baseline", str(EVENT_CEILINGS)]


def test_event_ceilings_pass_the_measured_counts(tmp_path, capsys):
    assert compare.main(_perfbench_results(tmp_path)) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("workload", sorted(EVENTS_PER_FRAME))
def test_one_extra_kernel_event_per_frame_trips_the_gate(tmp_path, capsys,
                                                         workload):
    argv = _perfbench_results(tmp_path, extra_events={workload: 1})
    assert compare.main(argv) == 1
    assert f"{workload}.json:metrics.kernel_events_per_frame.value" in (
        capsys.readouterr().out)
