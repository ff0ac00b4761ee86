"""Golden digests of the full kernel event stream.

Every scheduled and executed event — ``(phase, time, priority, seq,
label)`` as :class:`~repro.audit.EventTap` records it — is hashed for two
fixed runs. A change to the kernel's hot path (heap layout, run loop,
wake-up plumbing) must leave these digests untouched: the simulated
results of every workload follow from this stream, so an identical stream
means identical Fig. 6 and Table 2 numbers.

Regenerate a digest only for a change that is *meant* to alter the event
stream, and say why in the change log::

    PYTHONPATH=src python tests/sim/test_event_stream_golden.py
"""

from __future__ import annotations

import hashlib

from repro.audit import EventTap
from repro.audit.scenarios import quickstart
from repro.fleet import Fleet, FleetConfig

QUICKSTART_SEED = 7
QUICKSTART_DIGEST = (
    "0dffb1a32068b40b2ce82211e334345926c7944d4c118c6f61176028f0f35fb1"
)
QUICKSTART_RECORDS = 16222

FLEET_CONFIG = FleetConfig(homes=4, seed=1, duration_s=2.0, audit=True,
                           workload="stage")
FLEET_DIGEST = (
    "53e21525a518a4a3bba7be3e6d09eb084e6373093dde3e499e6de0d16c6ae9b9"
)
FLEET_RECORDS = 17944


def stream_digest(records: list) -> str:
    """SHA-256 over the tap records, one ``|``-joined line per record.

    Times are written with ``repr`` so the digest pins every bit of them.
    """
    sha = hashlib.sha256()
    for phase, time, priority, seq, label in records:
        sha.update(f"{phase}|{time!r}|{priority}|{seq}|{label}\n".encode())
    return sha.hexdigest()


def quickstart_stream() -> list:
    home, run_fn = quickstart(QUICKSTART_SEED)
    tap = EventTap()
    home.kernel.add_observer(tap)
    run_fn()
    assert tap.overflow == 0
    return tap.records


def fleet_stream() -> list:
    fleet = Fleet(FLEET_CONFIG)
    tap = EventTap()
    fleet.kernel.add_observer(tap)
    fleet.run()
    assert tap.overflow == 0
    return tap.records


def test_quickstart_event_stream_is_pinned():
    records = quickstart_stream()
    assert len(records) == QUICKSTART_RECORDS
    assert stream_digest(records) == QUICKSTART_DIGEST


def test_audited_stage_fleet_event_stream_is_pinned():
    records = fleet_stream()
    assert len(records) == FLEET_RECORDS
    assert stream_digest(records) == FLEET_DIGEST


if __name__ == "__main__":
    for name, stream in (("quickstart", quickstart_stream),
                         ("fleet", fleet_stream)):
        records = stream()
        print(f"{name}: {len(records)} records {stream_digest(records)}")
