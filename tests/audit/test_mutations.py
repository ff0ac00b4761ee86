"""Mutation tests: re-introduce each fixed bug and prove the auditor trips.

Every test seeds one of the failure classes this PR (or an earlier one)
fixed — a frame-ref leak, a silently lost message, the pre-fix
overlapping-window autoscaler, a collector that stops pruning its
in-flight table — and asserts the auditor reports it with an actionable
diagnostic. If a regression reopens one of these holes, the REPRO_AUDIT
sweep fails even where no functional assertion notices.
"""

import pytest

from repro.audit import InvariantAuditor
from repro.core import VideoPipe
from repro.devices import Device, desktop, flagship_phone_2018
from repro.errors import StaleHandleError
from repro.frames import FrameStore, SyntheticCamera
from repro.metrics.collector import MetricsCollector
from repro.motion import Squat
from repro.net import BrokerlessTransport, LinkSpec, Topology
from repro.net.address import Address
from repro.net.message import Message
from repro.runtime import FunctionModule, ModuleRuntime, PipelineWiring
from repro.services import FunctionService, ServiceHost
from repro.services.scaling import AutoScaler, ScalingPolicy
from repro.sim import Kernel, RngStreams, Signal


@pytest.fixture(autouse=True)
def _explicit_auditors_only(monkeypatch):
    """These tests *seed* violations; their auditors must be explicit so
    the REPRO_AUDIT sweep (which only asserts on env-enabled auditors)
    does not fail the test for finding exactly what it planted."""
    monkeypatch.delenv("REPRO_AUDIT", raising=False)


class MiniHome:
    """Two-device harness without the facade (mirrors tests/services)."""

    def __init__(self, seed=1):
        self.kernel = Kernel()
        self.rng = RngStreams(seed=seed)
        self.topology = Topology(self.kernel, self.rng)
        self.topology.add_wifi(
            "wifi",
            LinkSpec(latency_s=0.0012, jitter_cv=0.0, bandwidth_bps=120e6),
        )
        self.devices = {}
        for spec in (flagship_phone_2018(), desktop()):
            self.topology.attach(spec.name, "wifi")
            self.devices[spec.name] = Device(self.kernel, spec, self.rng)
        self.transport = BrokerlessTransport(self.kernel, self.topology)

    @property
    def desktop(self):
        return self.devices["desktop"]


class TestSeededRefcountLeak:
    def test_leak_is_caught_with_holder_attribution(self):
        home = VideoPipe(seed=3)
        home.enable_audit()
        home.add_device("phone")
        store = home.device("phone").frame_store
        store.put(b"the frame a buggy module never releases")
        home.run(until=1.0)
        violations = home.check_invariants()
        leaks = [v for v in violations
                 if v.invariant == "frame-ref-conservation"]
        assert len(leaks) == 1
        assert leaks[0].subject == "framestore/phone"
        # actionable: names the ref, its type, and how long it was held
        assert "#1 bytes x1" in leaks[0].detail
        assert "held since t=0.000s" in leaks[0].detail

    def test_clean_run_stays_clean(self):
        home = VideoPipe(seed=3)
        home.enable_audit()
        home.add_device("phone")
        store = home.device("phone").frame_store
        ref = store.put(b"balanced")
        store.release(ref)
        home.run(until=1.0)
        assert home.check_invariants() == []


class TestLostMessage:
    def _sender(self, home, count=5):
        received = []
        home.transport.bind(Address("desktop", 7000), received.append)

        def send_all():
            for n in range(count):
                home.transport.send(Message(
                    kind="data", dst=Address("desktop", 7000), payload=n,
                    src=Address("phone", 6000), size_bytes=1000,
                ))
                yield 0.05

        home.kernel.process(send_all())
        return received

    def test_silently_dropped_delivery_trips_conservation(self, monkeypatch):
        home = MiniHome()
        auditor = InvariantAuditor(home.kernel)
        auditor.watch_transport(home.transport)
        self._sender(home)

        original = BrokerlessTransport._deliver
        calls = {"n": 0}

        def lossy(self, message, done, exc):
            calls["n"] += 1
            if calls["n"] == 3:
                # the mutation: the arrival fires but delivery bookkeeping
                # vanishes — no handler call, no delivered/failed count
                self._pending_sends.pop(done, None)
                return
            original(self, message, done, exc)

        monkeypatch.setattr(BrokerlessTransport, "_deliver", lossy)
        home.kernel.run(until=2.0)

        violations = auditor.check_now()
        conservation = [v for v in violations
                        if v.invariant == "message-conservation"]
        assert conservation, auditor.report()
        # both sides of the cross-check fire: counters disagree, and the
        # auditor's mirror names the vanished message id
        details = " | ".join(v.detail for v in conservation)
        assert "vanished" in details
        assert "unsettled msg ids" in details

    def test_undropped_run_is_clean(self):
        home = MiniHome()
        auditor = InvariantAuditor(home.kernel)
        auditor.watch_transport(home.transport)
        received = self._sender(home)
        home.kernel.run(until=2.0)
        assert len(received) == 5
        assert auditor.check_quiesce() == []


class BuggyAutoScaler(AutoScaler):
    """The pre-fix sampler: a sliding window re-evaluated on every tick and
    no cooldown, so one sustained episode bursts replicas tick after tick."""

    def _sample(self, host):
        samples = self._samples[host]
        samples.append(host.queue_length)
        if len(samples) < self.policy.window:
            return
        del samples[:-self.policy.window]
        avg_queue = sum(samples) / len(samples)
        if (avg_queue >= self.policy.queue_threshold
                and host.replicas < self.policy.max_replicas):
            before = host.replicas
            host.add_replica(1)
            self._record(host, before, avg_queue, "scale_up")


class TestAutoscalerBurst:
    def _overload(self, home, host):
        def load():
            while home.kernel.now < 3.0:
                host.call_local({})
                yield 0.02

        home.kernel.process(load())

    def test_prefix_burst_trips_pacing(self):
        home = MiniHome()
        auditor = InvariantAuditor(home.kernel)
        service = FunctionService("busy", lambda p, c: p,
                                  reference_cost_s=0.100)
        host = ServiceHost(home.kernel, home.desktop, service, home.transport)
        policy = ScalingPolicy(check_interval_s=0.1, queue_threshold=1.0,
                               window=3, max_replicas=6, cooldown_s=1.0)
        scaler = BuggyAutoScaler(home.kernel, policy)
        auditor.watch_autoscaler(scaler)
        scaler.watch(host)
        scaler.start()
        self._overload(home, host)
        home.kernel.run(until=2.0)
        scaler.stop()

        pacing = [v for v in auditor.violations
                  if v.invariant == "autoscaler-pacing"]
        assert pacing, "the replica burst went unnoticed"
        assert "inside the 1.000s cooldown" in pacing[0].detail
        assert pacing[0].subject == "autoscaler/busy@desktop"

    def test_fixed_autoscaler_is_clean(self):
        home = MiniHome()
        auditor = InvariantAuditor(home.kernel)
        service = FunctionService("busy", lambda p, c: p,
                                  reference_cost_s=0.100)
        host = ServiceHost(home.kernel, home.desktop, service, home.transport)
        policy = ScalingPolicy(check_interval_s=0.1, queue_threshold=1.0,
                               window=3, max_replicas=6, cooldown_s=1.0)
        scaler = AutoScaler(home.kernel, policy)
        auditor.watch_autoscaler(scaler)
        scaler.watch(host)
        scaler.start()
        self._overload(home, host)
        home.kernel.run(until=4.0)
        scaler.stop()
        assert scaler.events  # it did scale...
        assert auditor.violations == []  # ...at the documented pace


class LeakyCollector(MetricsCollector):
    """The PR-3 bug class: completion stops pruning ``_frame_started``."""

    def frame_completed(self, frame_id, now):
        self.completions.tick(now)
        self._counters["frames_completed"] += 1
        if self.auditor is not None:
            self.auditor.on_frame_completed(self, frame_id)


class TestCollectorLeak:
    def test_unpruned_in_flight_table_is_flagged(self):
        kernel = Kernel()
        auditor = InvariantAuditor(kernel)
        collector = LeakyCollector("leaky")
        auditor.watch_metrics(collector)
        collector.frame_entered(1, 0.0)
        collector.frame_completed(1, 0.5)
        violations = auditor.check_now()
        assert violations, "the in-flight leak went unnoticed"
        assert "not pruning" in violations[0].detail


class HooklessStore(FrameStore):
    """The stale-access hook removed: ``_check`` still raises a typed
    StaleHandleError but never tells the auditor."""

    def _check(self, ref):
        auditor, self.auditor = self.auditor, None
        try:
            super()._check(ref)
        finally:
            self.auditor = auditor


def _stale_access_violations(store_cls):
    auditor = InvariantAuditor(Kernel())
    store = store_cls("phone")
    auditor.watch_store(store)
    ref = store.put(b"pixels")
    store.release(ref)
    with pytest.raises(StaleHandleError):
        store.get(ref)
    return [v.invariant for v in auditor.violations]


class TestStaleAccessHook:
    def test_removing_the_hook_hides_the_use_after_free(self):
        """The same use-after-free is a ``stale-access`` violation on the
        real store and goes unrecorded once the hook is removed."""
        assert _stale_access_violations(FrameStore) == ["stale-access"]
        assert _stale_access_violations(HooklessStore) == []


def _dead_letter_violations(dst_device):
    """Send one admitted frame from ``a`` (phone) to ``b`` on *dst_device*
    and undeploy ``b`` before the message lands, so the send fails and
    must be dead-lettered; return the auditor's invariants at quiesce."""
    home = MiniHome()
    runtimes = {name: ModuleRuntime(home.kernel, device, home.transport)
                for name, device in home.devices.items()}
    wiring = PipelineWiring("p", metrics=MetricsCollector("p"))
    wiring.addresses = {"a": Address("phone", 5000),
                        "b": Address(dst_device, 5001)}
    wiring.next_modules = {"a": ["b"], "b": []}
    auditor = InvariantAuditor(home.kernel)
    for device in home.devices.values():
        auditor.watch_store(device.frame_store)
    auditor.watch_metrics(wiring.metrics)
    sender = runtimes["phone"].deploy(
        "a", FunctionModule(lambda ctx, event: None),
        wiring.address_of("a"), wiring)
    runtimes[dst_device].deploy(
        "b", FunctionModule(lambda ctx, event: None),
        wiring.address_of("b"), wiring)
    ctx = sender.ctx
    ref = ctx.store_frame(SyntheticCamera("phone", Squat()).capture(1, 0.0))
    ctx.frame_entered(1)
    ctx.call_module("b", {"frame_id": 1, "frame": ref})
    runtimes[dst_device].undeploy("b")  # the listener is gone on arrival
    home.kernel.run()
    violations = sorted({v.invariant for v in auditor.check_quiesce()})
    return violations, wiring.metrics.counter("dead_letters")


def _on_fail_skipping_failures(self, callback):
    """The mutation: a failure-only waiter is dropped, as on success."""


class TestDeadLetterOnFail:
    """Dead letters are settled by a failure-only waiter
    (:meth:`Signal.on_fail`). If it skipped failures, a frame lost in
    flight would stay admitted forever and, on the local path, keep its
    refs."""

    @pytest.mark.parametrize("dst_device", ["phone", "desktop"])
    def test_dead_letter_is_settled(self, dst_device):
        assert _dead_letter_violations(dst_device) == ([], 1)

    @pytest.mark.parametrize("dst_device, tripped", [
        ("phone", ["frame-ref-conservation", "metrics-conservation"]),
        ("desktop", ["metrics-conservation"]),
    ])
    def test_skipping_failures_trips_conservation(self, monkeypatch,
                                                  dst_device, tripped):
        monkeypatch.setattr(Signal, "on_fail", _on_fail_skipping_failures)
        assert _dead_letter_violations(dst_device) == (tripped, 0)
