"""Property-based tests for kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Kernel, RealtimeKernel, Resource
from repro.sim.events import LOW, NORMAL, URGENT


@given(
    delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50)
)
def test_execution_times_are_monotone(delays):
    """Events always execute in non-decreasing time order."""
    kernel = Kernel()
    times = []
    for d in delays:
        kernel.schedule(d, lambda: times.append(kernel.now))
    kernel.run()
    assert times == sorted(times)
    assert kernel.now == max(delays)


@given(
    entries=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.sampled_from([URGENT, NORMAL, LOW]),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_priority_then_fifo_within_same_time(entries):
    """At equal times, events run by priority then insertion order."""
    kernel = Kernel()
    order = []
    for i, (delay, priority) in enumerate(entries):
        kernel.schedule(
            delay, lambda i=i: order.append(i), priority=priority
        )
    kernel.run()
    keys = [(entries[i][0], entries[i][1], i) for i in order]
    assert keys == sorted(keys)


@given(
    holds=st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=1, max_size=20),
    capacity=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50)
def test_resource_never_exceeds_capacity(holds, capacity):
    """Concurrent holders never exceed capacity; all work completes."""
    kernel = Kernel()
    resource = Resource(kernel, capacity=capacity)
    active = {"count": 0, "max": 0}
    completed = []

    def worker(duration, tag):
        grant = yield resource.request()
        active["count"] += 1
        active["max"] = max(active["max"], active["count"])
        assert active["count"] <= capacity
        yield duration
        active["count"] -= 1
        resource.release(grant)
        completed.append(tag)

    for i, duration in enumerate(holds):
        kernel.process(worker(duration, i))
    kernel.run()
    assert sorted(completed) == list(range(len(holds)))
    assert active["max"] <= capacity
    assert resource.in_use == 0


@given(
    durations=st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=15
    )
)
@settings(max_examples=50)
def test_single_slot_resource_serializes_total_time(durations):
    """With capacity 1, total elapsed time is the sum of hold times."""
    kernel = Kernel()
    resource = Resource(kernel, capacity=1)

    def worker(duration):
        grant = yield resource.request()
        yield duration
        resource.release(grant)

    for d in durations:
        kernel.process(worker(d))
    kernel.run()
    assert abs(kernel.now - sum(durations)) < 1e-9 * max(1.0, sum(durations))


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20)
def test_simulation_is_reproducible(seed):
    """The same seeded workload produces identical event traces."""
    from repro.sim import RngStreams

    def run_once():
        kernel = Kernel()
        rng = RngStreams(seed=seed).stream("workload")
        trace = []

        def proc():
            for _ in range(10):
                yield float(rng.exponential(0.1))
                trace.append(kernel.now)

        kernel.process(proc())
        kernel.run()
        return trace

    assert run_once() == run_once()


# -- the kernel against a reference model ---------------------------------------

PRIORITIES = st.sampled_from([URGENT, NORMAL, LOW])
# a few fixed delays so equal times are common, plus arbitrary ones
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 2.0)
#: what an event does when it runs: nothing, stop the kernel, or schedule a
#: child event with its own delay and priority
ACTIONS = st.none() | st.just("stop") | st.tuples(st.just("child"), DELAYS,
                                                  PRIORITIES)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS, PRIORITIES, ACTIONS),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.just("stop")),
        st.tuples(st.just("run"), st.none() | st.floats(0.0, 3.0)),
    ),
    max_size=40,
)


class ReferenceKernel:
    """The kernel's contract, written plainly: pending events sorted by
    ``(time, priority, seq)``, a stop honoured after the current event,
    and the clock moved to ``until`` unless a stop ended the run."""

    def __init__(self) -> None:
        self.now = 0.0
        self.seq = 0
        self.pending: dict[int, tuple] = {}
        self.executed: list[int] = []

    def schedule(self, delay, priority, action) -> None:
        self.seq += 1
        self.pending[self.seq] = (self.now + delay, priority, self.seq, action)

    def cancel(self, seq: int) -> None:
        self.pending.pop(seq, None)

    def run(self, until):
        while self.pending:
            time, priority, seq, action = min(self.pending.values())
            if until is not None and time > until:
                self.now = until
                return self.now
            del self.pending[seq]
            self.now = time
            self.executed.append(seq)
            if action == "stop":
                return self.now
            if action is not None:
                self.schedule(action[1], action[2], None)
        if until is not None and self.now < until:
            self.now = until
        return self.now


def drive(kernel, ops):
    """Apply *ops* to *kernel* and to the reference; compare after each run."""
    model = ReferenceKernel()
    events = []
    executed = []

    def fire(seq, action):
        executed.append(seq)
        if action == "stop":
            kernel.stop()
        elif action is not None:
            schedule(action[1], action[2], None)

    def schedule(delay, priority, action):
        seq = len(events) + 1
        events.append(kernel.schedule(delay, fire, seq, action,
                                      priority=priority))

    for op in ops:
        if op[0] == "schedule":
            schedule(*op[1:])
            model.schedule(*op[1:])
        elif op[0] == "cancel":
            if events:
                index = op[1] % len(events)
                kernel.cancel(events[index])
                model.cancel(index + 1)
        elif op[0] == "stop":
            kernel.stop()  # outside a run: the next run() clears it
        else:
            until = None if op[1] is None else kernel.now + op[1]
            assert kernel.run(until) == model.run(until)
            assert kernel.now == model.now
            assert executed == model.executed
            assert kernel.pending_events == len(model.pending)
    assert kernel.run() == model.run(None)
    assert executed == model.executed
    assert [e.seq for e in events] == list(range(1, len(events) + 1))


@given(ops=OPS)
@settings(max_examples=200)
def test_kernel_matches_reference_model(ops):
    """Any interleaving of schedule, cancel, stop and run(until=) runs
    events exactly as a plain sort by (time, priority, seq) would."""
    drive(Kernel(), ops)


@given(ops=OPS)
@settings(max_examples=40, deadline=None)
def test_realtime_kernel_matches_reference_model(ops):
    """The realtime kernel shares the run loop: at high speed it orders
    events exactly like the pure simulator."""
    drive(RealtimeKernel(speed=1e5), ops)
