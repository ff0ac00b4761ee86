"""Golden digests of the full kernel event stream.

Every scheduled and executed event — ``(phase, time, priority, seq,
label)`` as :class:`~repro.audit.EventTap` records it — is hashed for two
fixed runs. A change to the kernel's hot path (heap layout, run loop,
wake-up plumbing) that is not meant to alter the stream must leave these
digests untouched.

The stream shrank on purpose when process wake-ups became hop-free: a
sleeping process is resumed straight from its own timer event, and a
process that yields an already-resolved signal continues through it with
no event at all (quickstart 16,222 -> 11,254 records, fleet 17,944 ->
12,456). Those changes only reorder a woken process within one instant,
so every simulated output stayed bit-identical; the referee for that is
``tests/sim/test_output_golden.py``, which pins the outputs themselves
(every example scenario's fingerprint and the fleet's latencies) rather
than the events that produce them.

It shrank on purpose again when the message path stopped spawning
sub-processes and paying bookkeeping hops: CPU jobs, link hops and route
relays became callback chains, module handlers run inside their worker,
local sends return the transport's own signal, and failure-only checks
(dead letters, breaker rejections, RPC send failures) schedule nothing
on success (quickstart 11,254 -> 6,056 records, fleet 12,456 -> 6,632).
The outputs pinned by ``tests/sim/test_output_golden.py`` did not move.

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
    "523d63547374bba596d7a5646e7fbac492dbee7bb3849ade365fc57d09971804"
)
QUICKSTART_RECORDS = 6056

FLEET_CONFIG = FleetConfig(homes=4, seed=1, duration_s=2.0, audit=True,
                           workload="stage")
FLEET_DIGEST = (
    "45580160484419cb6e714eedd47db0740c31fea737b55da57add8ffe55a9beb0"
)
FLEET_RECORDS = 6632


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
