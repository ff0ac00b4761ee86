"""Pinned outputs of a small data-plane fitness home.

The frame-plane accounting (``data_plane_stats()["arena"]``), the charged
size of an intra-device hop and the completed-frame latencies are pinned
to exact values, so a refactor of the frame plane has to reproduce them
bit for bit. Scenario: the paper testbed (seed 7) running the fitness
pipeline at 10 FPS for 4 s with ``enable_data_plane`` and
``enable_fast_path`` on; dedup retention keeps frames live at the end and
evicts some, so every counter is exercised with a non-trivial value.
"""

import hashlib

import pytest

from repro.audit.scenarios import DURATION_S, _activity_recognizer
from repro.core import VideoPipe
from repro.runtime.moduleruntime import ModuleRuntime

#: Per-device frame-plane counters: each device stores all 41 frames once.
DEVICE_STATS = {
    "allocs": 41,
    "frees": 9,
    "live": 32,
    "bytes_in_use": 29_491_200,
    "peak_bytes": 30_412_800,
    "stale_accesses": {},
}

ARENA_STATS = {
    "allocs": 123,
    "frees": 27,
    "live": 96,
    "bytes_in_use": 88_473_600,
    "peak_bytes": 91_238_400,
    "stale_accesses": 0,
    "by_device": {name: DEVICE_STATS for name in ("phone", "desktop", "tv")},
}

#: SHA-256 of ``repr(metrics.total_latencies)``.
LATENCY_DIGEST = (
    "f9b32ecb8c4bba6cb125ebecf17cd9b4822085d60b1e2d3efbe4c2f30c31a3ef"
)


@pytest.fixture(scope="module")
def home_run():
    from repro.apps import (
        FitnessApp,
        fitness_pipeline_config,
        install_fitness_services,
    )

    home = VideoPipe.paper_testbed(seed=7)
    home.enable_data_plane()
    home.enable_fast_path()
    services = install_fitness_services(
        home, recognizer=_activity_recognizer())
    pipeline = FitnessApp(home, services).deploy(
        fitness_pipeline_config(fps=10.0, duration_s=DURATION_S))
    home.run(until=DURATION_S + 1.0)
    return home, pipeline


def test_frame_plane_stats_are_pinned(home_run):
    home, _ = home_run
    assert home.data_plane_stats()["arena"] == ARENA_STATS


def test_local_hops_are_charged_a_flat_88_bytes(home_run):
    home, _ = home_run
    assert ModuleRuntime.ARENA_HOP_BYTES == 88
    # desktop (pose -> activity) and tv (rep counter -> display) each carry
    # one local hop per frame; the phone's source ships off-device
    for device, messages in (("phone", 0), ("desktop", 41), ("tv", 41)):
        loopback = home.topology.loopback(device)
        assert loopback.messages_sent == messages
        assert loopback.bytes_sent == 88 * messages


def test_completed_frame_latencies_are_pinned(home_run):
    home, pipeline = home_run
    latencies = pipeline.metrics.total_latencies
    assert pipeline.metrics.counter("frames_completed") == 41
    assert len(latencies) == 41
    assert repr(latencies[0]) == "0.08262292169239573"
    digest = hashlib.sha256(repr(latencies).encode()).hexdigest()
    assert digest == LATENCY_DIGEST
    assert home.kernel.pending_events == 0
