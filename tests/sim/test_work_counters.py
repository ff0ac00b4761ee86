"""Work counters of the message path: objects created per completed frame.

The 4-home audited stage fleet that ``test_output_golden.py`` pins is run
with :class:`~repro.sim.process.Process` and
:class:`~repro.sim.signals.Signal` construction counted. CPU jobs, link
hops, route relays and module handlers are callback chains that create no
process, so the only processes the run phase starts are

* one ``ship:`` process per cross-device module send (two per frame), and
* one ``<service>.exec`` process per service call (three per frame),
  which stay processes because crash and close interrupt them.

Five processes and about 59 signals per frame. A layer that spawns a
process per message again moves these counts and fails here; update them
only for a change that is meant to alter the message path, and say why in
the change log.
"""

from __future__ import annotations

from repro.fleet import Fleet, FleetConfig
from repro.sim.process import Process
from repro.sim.signals import Signal

FLEET_CONFIG = FleetConfig(homes=4, seed=1, duration_s=2.0, audit=True,
                           workload="stage")
COMPLETED = 56
#: processes started during the run, by name up to the first ``:``
PROCESSES = {
    "ship": 112,
    "fleet_detector.exec": 56,
    "fleet_classifier.exec": 56,
    "fleet_alerter.exec": 56,
}
SIGNALS = 3324


def test_stage_fleet_creates_five_processes_per_frame(monkeypatch):
    fleet = Fleet(FLEET_CONFIG)
    processes: dict[str, int] = {}
    signals = 0
    process_init, signal_init = Process.__init__, Signal.__init__

    def counted_process(self, kernel, gen, name=None):
        process_init(self, kernel, gen, name)
        kind = self.name.split(":")[0]
        processes[kind] = processes.get(kind, 0) + 1

    def counted_signal(self, kernel, name=None):
        nonlocal signals
        signal_init(self, kernel, name)
        signals += 1

    monkeypatch.setattr(Process, "__init__", counted_process)
    monkeypatch.setattr(Signal, "__init__", counted_signal)
    fleet.run()
    completed = sum(p.metrics.counter("frames_completed")
                    for p in fleet.pipelines)
    assert completed == COMPLETED
    assert processes == PROCESSES, (
        f"{sum(processes.values()) / completed:.2f} processes per frame"
        f" (expected 5): {processes}")
    assert signals == SIGNALS, f"{signals / completed:.2f} signals per frame"
