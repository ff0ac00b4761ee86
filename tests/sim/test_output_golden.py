"""Golden digests of simulated outputs.

These pin what a simulation *produces*, not how the kernel gets there:

* the fingerprint of every example scenario (exact frame counters and
  un-rounded latency streams of each pipeline, see
  :mod:`repro.audit.scenarios`) at a fixed seed;
* each pipeline's exact latencies and completed-frame count in the
  4-home audited stage fleet that ``test_event_stream_golden.py`` taps.

A change that only makes the simulator cheaper must leave every digest
here untouched, even when it schedules fewer kernel events. Regenerate a
digest only for a change that is *meant* to alter simulated results, and
say why in the change log::

    PYTHONPATH=src python tests/sim/test_output_golden.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.audit.determinism import record_scenario
from repro.audit.scenarios import EXAMPLE_SCENARIOS
from repro.fleet import Fleet, FleetConfig

SCENARIO_SEED = 7
SCENARIO_DIGESTS = {
    "canary_upgrade.py": (
        "b385316f5ac1ed00002ed3bed1284eb11a4a35c9fd2c1686afa22655636b41d0"
    ),
    "chaos_fitness.py": (
        "b73b1b9c2f7ef2effb551f3bb07eb6595c9d9de198132695e2152cd7dfd7a0bc"
    ),
    "custom_pipeline.py": (
        "0642c20a789864132c7f4173ca8025ae5c988f748556d63377f06ba4e5b64953"
    ),
    "fall_detection.py": (
        "bc4b5e4691e1a0586b276bd0c05a3fb7745d94bdbcc5d7f718cf945c53cfe868"
    ),
    "fitness_app.py": (
        "67da23e81411f0f14de9640097d931c0dd0592047a1fbedcaf6071cbe8be4eb0"
    ),
    "gesture_control.py": (
        "528dc7dcf706bd82d0b46635a24d48d6ba5b4549e1264144090ca8b2a265a505"
    ),
    "monitoring_autoscaling.py": (
        "903909b59dc78b6cb82ab20612eba524ba1f287e2fd7ee3d4ca693261b676756"
    ),
    "multi_camera_scene.py": (
        "f28fdfc9af66f0d8a0a5c97589f7b60798a130d325848039878314928685d526"
    ),
    "object_tracking.py": (
        "fa655cdd0c70d5e77aed314ce054bd8f335b008824f53315fab29db5b3b81ee8"
    ),
    "quickstart.py": (
        "91eec7d46d6d0ab98f3da8c0c1d6f73718788cdd5306c27669f378478cfa0c90"
    ),
}

FLEET_CONFIG = FleetConfig(homes=4, seed=1, duration_s=2.0, audit=True,
                           workload="stage")
#: pipeline name -> (frames completed, digest of its repr'd latencies)
FLEET_OUTPUTS = {
    "home0": (
        16, "c909ba5399c07445136c58fa45fca823d5f59d50057b691d65a0d24afd886cc5"
    ),
    "home1": (
        16, "7c00977de6179bcac5416859b640eed3c5b9d3587d0918e6946cf93a965e2fc5"
    ),
    "home2": (
        8, "986fa478661f4703d280e0289b7e73254a9521f2708ef65babda8f88ad4e3504"
    ),
    "home3": (
        16, "8aba61a9d8fbb71b19ac7d220517ba371f6f1f64eb5636fb4258ec8eb388c57d"
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_digest(name: str) -> str:
    record = record_scenario(EXAMPLE_SCENARIOS[name], SCENARIO_SEED)
    return sha256(repr(record.fingerprint))


def fleet_outputs() -> dict:
    fleet = Fleet(FLEET_CONFIG)
    fleet.run()
    return {
        pipeline.name: (
            pipeline.metrics.counter("frames_completed"),
            sha256(repr(list(pipeline.metrics.total_latencies))),
        )
        for pipeline in fleet.pipelines
    }


def test_every_example_scenario_is_pinned():
    assert sorted(SCENARIO_DIGESTS) == sorted(EXAMPLE_SCENARIOS)


@pytest.mark.parametrize("name", sorted(EXAMPLE_SCENARIOS))
def test_scenario_fingerprint_is_pinned(name):
    assert scenario_digest(name) == SCENARIO_DIGESTS[name]


def test_audited_stage_fleet_outputs_are_pinned():
    assert fleet_outputs() == FLEET_OUTPUTS


if __name__ == "__main__":
    print("SCENARIO_DIGESTS = {")
    for name in sorted(EXAMPLE_SCENARIOS):
        print(f'    "{name}": (\n        "{scenario_digest(name)}"\n    ),')
    print("}")
    print("FLEET_OUTPUTS = {")
    for name, (completed, digest) in fleet_outputs().items():
        print(f'    "{name}": (\n        {completed}, "{digest}"\n    ),')
    print("}")
