"""Unit tests for generator-based processes."""

import pytest

from repro.audit import EventTap
from repro.errors import Interrupt, SimulationError
from repro.sim import Kernel


@pytest.fixture
def kernel():
    return Kernel()


class TestBasicExecution:
    def test_return_value_resolves_done(self, kernel):
        def proc():
            yield 1.0
            return "result"

        p = kernel.process(proc())
        kernel.run()
        assert p.done.value == "result"
        assert kernel.now == 1.0

    def test_yield_number_is_timeout(self, kernel):
        def proc():
            yield 0.25
            yield 0.75

        kernel.process(proc())
        kernel.run()
        assert kernel.now == 1.0

    def test_yield_signal_receives_value(self, kernel):
        sig = kernel.signal()
        results = []

        def proc():
            value = yield sig
            results.append(value)

        kernel.process(proc())
        kernel.schedule(1.0, sig.succeed, "payload")
        kernel.run()
        assert results == ["payload"]

    def test_failed_signal_raises_inside_process(self, kernel):
        sig = kernel.signal()

        def proc():
            try:
                yield sig
            except RuntimeError as e:
                return f"caught {e}"

        p = kernel.process(proc())
        kernel.schedule(1.0, sig.fail, RuntimeError("boom"))
        kernel.run()
        assert p.done.value == "caught boom"

    def test_escaping_exception_fails_done(self, kernel):
        def proc():
            yield 1.0
            raise ValueError("oops")

        p = kernel.process(proc())
        kernel.run()
        assert p.done.failed
        assert isinstance(p.done.exception, ValueError)

    def test_yield_process_joins_it(self, kernel):
        def child():
            yield 2.0
            return "child-result"

        def parent():
            result = yield kernel.process(child())
            return result

        p = kernel.process(parent())
        kernel.run()
        assert p.done.value == "child-result"
        assert kernel.now == 2.0

    def test_yield_invalid_object_fails_process(self, kernel):
        def proc():
            yield "not awaitable"

        p = kernel.process(proc())
        kernel.run()
        assert p.done.failed
        assert isinstance(p.done.exception, SimulationError)

    def test_requires_generator(self, kernel):
        with pytest.raises(SimulationError):
            kernel.process(lambda: None)

    def test_alive_reflects_lifecycle(self, kernel):
        def proc():
            yield 1.0

        p = kernel.process(proc())
        assert p.alive
        kernel.run()
        assert not p.alive

    def test_starts_at_current_time_not_immediately(self, kernel):
        order = []

        def proc():
            order.append(("start", kernel.now))
            yield 0.0

        kernel.schedule(5.0, lambda: kernel.process(proc()))
        kernel.run()
        assert order == [("start", 5.0)]


class TestInterrupt:
    def test_interrupt_raises_in_process(self, kernel):
        causes = []

        def proc():
            try:
                yield 100.0
            except Interrupt as intr:
                causes.append(intr.cause)
            return "survived"

        p = kernel.process(proc())
        kernel.schedule(1.0, p.interrupt, "reason")
        kernel.run()
        assert causes == ["reason"]
        assert p.done.value == "survived"
        assert kernel.now == 1.0  # long timeout abandoned

    def test_unhandled_interrupt_fails_process(self, kernel):
        def proc():
            yield 100.0

        p = kernel.process(proc())
        kernel.schedule(1.0, p.interrupt)
        kernel.run()
        assert p.done.failed
        assert isinstance(p.done.exception, Interrupt)

    def test_interrupt_after_completion_is_noop(self, kernel):
        def proc():
            yield 1.0

        p = kernel.process(proc())
        kernel.run()
        p.interrupt()  # must not raise
        kernel.run()
        assert p.done.succeeded

    def test_stale_wakeup_after_interrupt_is_dropped(self, kernel):
        sig = kernel.signal()
        resumed = []

        def proc():
            try:
                value = yield sig
                resumed.append(value)
            except Interrupt:
                yield 10.0  # keep living after the interrupt
            return "ok"

        p = kernel.process(proc())
        kernel.schedule(1.0, p.interrupt)
        kernel.schedule(2.0, sig.succeed, "late")  # resolves the abandoned wait
        kernel.run()
        assert resumed == []  # the abandoned wait never delivered
        assert p.done.value == "ok"


def scheduled(tap):
    """``(time, label)`` of every event *tap* saw scheduled."""
    return [(time, label) for phase, time, _, _, label in tap.records
            if phase == "S"]


class TestWakeUps:
    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_invalid_delay_raises_at_the_yield(self, kernel, delay):
        caught = []

        def proc():
            try:
                yield delay
            except SimulationError as error:
                caught.append(error)
            yield 1.0
            return "continued"

        p = kernel.process(proc())
        kernel.run()
        assert len(caught) == 1
        assert p.done.value == "continued"
        assert kernel.now == 1.0

    def test_invalid_delay_left_unhandled_fails_the_process(self, kernel):
        def proc():
            yield -1.0

        p = kernel.process(proc())
        kernel.run()  # the error stays inside the process
        assert isinstance(p.done.exception, SimulationError)

    def test_interrupted_sleep_leaves_no_pending_event(self, kernel):
        def proc():
            try:
                yield 100.0
            except Interrupt:
                return "woken"

        p = kernel.process(proc())
        kernel.schedule(1.0, p.interrupt)
        kernel.run(until=1.0)
        assert kernel.pending_events == 0
        assert p.done.value == "woken"

    def test_stale_timer_does_not_wake_a_new_sleep(self, kernel):
        resumed = []

        def proc():
            try:
                yield 2.0
            except Interrupt:
                resumed.append(("interrupt", kernel.now))
            yield 5.0
            resumed.append(("slept", kernel.now))

        p = kernel.process(proc())
        kernel.schedule(1.0, p.interrupt)
        kernel.run()
        assert resumed == [("interrupt", 1.0), ("slept", 6.0)]

    def test_already_failed_signal_raises_at_the_yield(self, kernel):
        sig = kernel.signal()
        sig.fail(RuntimeError("early"))

        def proc():
            try:
                yield sig
            except RuntimeError as error:
                return f"caught {error} at {kernel.now}"

        p = kernel.process(proc())
        kernel.run()
        assert p.done.value == "caught early at 0.0"

    def test_resolved_signal_continues_without_an_event(self, kernel):
        sig = kernel.signal()
        sig.succeed("ready")
        values = []

        def proc():
            values.append((yield sig))
            values.append((yield sig))

        tap = EventTap()
        kernel.add_observer(tap)
        kernel.process(proc())
        kernel.run()
        assert values == ["ready", "ready"]
        assert scheduled(tap) == [(0.0, "Process._resume[proc]")]  # the start

    def test_sleep_is_one_event(self, kernel):
        def proc():
            yield 1.0
            yield 2

        tap = EventTap()
        kernel.add_observer(tap)
        kernel.process(proc())
        kernel.run()
        assert kernel.now == 3.0
        # the start, then one event per sleep
        assert scheduled(tap) == [(0.0, "Process._resume[proc]"),
                                  (1.0, "Process._resume[proc]"),
                                  (3.0, "Process._resume[proc]")]

    def test_yield_bool_names_the_bool(self, kernel):
        def proc():
            yield True

        p = kernel.process(proc())
        kernel.run()
        assert isinstance(p.done.exception, SimulationError)
        assert "bool" in str(p.done.exception)
        assert kernel.now == 0.0  # not a silent 1 s sleep

    def test_numpy_delay_sleeps_as_a_float(self, kernel):
        import numpy as np

        def proc():
            yield np.float64(0.5)

        kernel.process(proc())
        kernel.run()
        assert kernel.now == 0.5
        assert type(kernel.now) is float
