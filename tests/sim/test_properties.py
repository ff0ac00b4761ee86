"""Property-based tests for kernel invariants."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import Interrupt
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


# -- process wake-ups against a reference model -----------------------------------

#: a signal resolves before the run ("pre"), at a time, or never (None)
RESOLVE_AT = (st.just("pre") | st.none() | st.sampled_from([0.5, 1.0])
              | st.floats(0.0, 3.0))
SIGNALS = st.lists(st.tuples(RESOLVE_AT, st.booleans()), min_size=1,
                   max_size=4)
#: a process step: sleep, wait on signal k, or join or interrupt another
#: process (picked by :func:`other`). An interrupt comes
#: after a sleep of an arbitrary length, so it seldom lands on an instant
#: at which its target also wakes (see :class:`Ambiguous`).
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("sleep"), DELAYS).map(lambda step: [step]),
        st.tuples(st.just("wait"), st.integers(0, 3)).map(lambda step: [step]),
        st.tuples(st.just("join"), st.integers(0, 2)).map(lambda step: [step]),
        st.tuples(st.floats(0.01, 2.0), st.integers(0, 2)).map(
            lambda pair: [("sleep", pair[0]), ("interrupt", pair[1])]),
    ),
    max_size=6,
).map(lambda groups: [step for group in groups for step in group])
PROGRAMS = st.lists(STEPS, min_size=2, max_size=4)


def other(i: int, pick: int, n: int) -> int:
    """The process a step of process *i* joins or interrupts: never *i*."""
    return (i + 1 + pick % (n - 1)) % n


class Boom(Exception):
    """How a failed signal fails."""


class Ambiguous(Exception):
    """The program interrupts a process at an instant at which that
    process also wakes or ends, so the outcome depends on same-instant
    order, which the kernel leaves unspecified."""


def run_programs(kernel, programs, signals):
    """Run *programs* as processes; return each one's list of
    ``(resume time, value received)``, and the time the run ended."""
    n = len(programs)
    sigs = []
    for k, (resolve_at, ok) in enumerate(signals):
        sig = kernel.signal(name=f"s{k}")
        resolve = sig.succeed if ok else sig.fail
        arg = ("value", k) if ok else Boom(k)
        if resolve_at == "pre":
            resolve(arg)
        elif resolve_at is not None:
            kernel.schedule(resolve_at, resolve, arg)
        sigs.append(sig)
    procs = []
    logs = [[] for _ in programs]

    def program(i, steps):
        for step, arg in steps:
            if step == "interrupt":
                procs[other(i, arg, n)].interrupt(i)
                continue
            if step == "sleep":
                target = arg
            elif step == "wait":
                target = sigs[arg % len(sigs)]
            else:
                target = procs[other(i, arg, n)]
            try:
                value = yield target
            except Interrupt as intr:
                value = ("interrupt", intr.cause)
            except Boom as boom:
                value = ("failed", boom.args[0])
            logs[i].append((kernel.now, value))
        return ("ret", i)

    for i, steps in enumerate(programs):
        procs.append(kernel.process(program(i, steps)))
    kernel.run()
    assert kernel.pending_events == 0
    return logs, kernel.now


def model_programs(programs, signals):
    """The wake-up contract, written plainly: a sleep resumes at
    ``now + delay``; a wait or join resumes when its signal resolves or its
    process ends, or at once if that already happened; an interrupt
    resumes its target at once and abandons the target's wait.

    The run ends at the last resume, end or signal resolution: an
    abandoned sleep must not hold the clock. Raises :class:`Ambiguous` for
    a program whose outcome depends on same-instant order."""
    n = len(programs)
    inf = float("inf")
    resolve = [(-inf if at == "pre" else inf if at is None else at)
               for at, _ in signals]
    received = [(("value", k) if ok else ("failed", k))
                for k, (_, ok) in enumerate(signals)]
    pc = [0] * n
    wake = [0.0] * n  # when each process next runs (inf: not known yet)
    value = [None] * n
    waiting = [None] * n  # the join each blocked process waits on
    finished = [None] * n
    last_run = [None] * n
    logs = [[] for _ in programs]
    abandoned_joins = []  # (time, joined process) of interrupted joins

    while True:
        live = [i for i in range(n) if finished[i] is None and wake[i] < inf]
        if not live:
            break
        i = min(live, key=lambda p: (wake[p], p))
        now = wake[i]
        if last_run[i] is not None:
            logs[i].append((now, value[i]))
        last_run[i] = now
        waiting[i] = None
        while True:
            if pc[i] == len(programs[i]):
                finished[i] = now
                for p in range(n):
                    if waiting[p] == i:
                        wake[p], value[p] = now, ("ret", i)
                        waiting[p] = None
                break
            step, arg = programs[i][pc[i]]
            pc[i] += 1
            if step == "interrupt":
                j = other(i, arg, n)
                if finished[j] is not None:
                    if finished[j] == now:
                        raise Ambiguous
                    continue
                if last_run[j] == now or wake[j] == now or now == 0.0:
                    raise Ambiguous
                if waiting[j] is not None:
                    abandoned_joins.append((now, waiting[j]))
                waiting[j] = None
                wake[j], value[j] = now, ("interrupt", i)
                continue
            if step == "sleep":
                wake[i], value[i] = now + arg, None
            elif step == "wait":
                k = arg % len(signals)
                wake[i], value[i] = max(now, resolve[k]), received[k]
            else:
                j = other(i, arg, n)
                if finished[j] is not None:
                    wake[i], value[i] = now, ("ret", j)
                else:
                    wake[i], waiting[i] = inf, j
            break
    for now, j in abandoned_joins:
        if finished[j] == now:
            raise Ambiguous
    end = max([0.0] + [t for t in resolve if -inf < t < inf]
              + [t for t in finished if t is not None]
              + [t for log in logs for t, _ in log])
    return logs, end


def check_programs(kernel, programs, signals):
    try:
        expected = model_programs(programs, signals)
    except Ambiguous:
        assume(False)
    assert run_programs(kernel, programs, signals) == expected


@given(programs=PROGRAMS, signals=SIGNALS)
@settings(max_examples=300)
def test_process_wake_ups_match_reference_model(programs, signals):
    """Processes that sleep, wait on pending and resolved signals, join and
    interrupt one another resume at the times, and with the values, that
    the wake-up contract gives."""
    check_programs(Kernel(), programs, signals)


@given(programs=PROGRAMS, signals=SIGNALS)
@settings(max_examples=60, deadline=None)
def test_realtime_process_wake_ups_match_reference_model(programs, signals):
    """The realtime kernel wakes processes exactly like the pure one."""
    check_programs(RealtimeKernel(speed=1e5), programs, signals)
