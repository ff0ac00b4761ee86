"""The discrete-event kernel and its wall-clock variant.

:class:`Kernel` executes scheduled events in deterministic time order.
:class:`RealtimeKernel` runs the same event queue but paces execution against
the wall clock, which lets the exact same pipeline code drive either fast
deterministic benchmarks or live demonstrations.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable

from ..errors import SimulationError
from .events import NORMAL, Event, EventQueue
from .process import Process, ProcessGenerator
from .signals import Signal


class Kernel:
    """A deterministic discrete-event executor.

    Time is a float in **seconds** starting at 0.0. All library components
    (links, CPUs, services, module runtimes) schedule their work through a
    shared kernel, which is what makes whole-system simulations reproducible.
    """

    #: Set to True by the realtime subclass; components may consult this to
    #: decide whether to do real work (e.g. rendering) inline.
    realtime = False

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._seq = 0
        self._running = False
        self._stopped = False
        # passive observers notified on schedule/execute; a tuple so the hot
        # path pays one truthiness check when nobody is watching
        self._observers: tuple = ()

    # -- time -----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Live events still queued; cancelled ones are not counted."""
        return len(self._queue)

    # -- observation ------------------------------------------------------------
    def add_observer(self, observer: Any) -> None:
        """Register a passive observer: ``on_schedule(now, event)`` is called
        after every :meth:`schedule`, ``on_execute(now, event)`` before every
        event's callback runs. Observers must never mutate kernel state —
        they exist for auditing and determinism checking, and an observed
        run is bit-for-bit identical to an unobserved one."""
        if observer not in self._observers:
            self._observers = self._observers + (observer,)

    @property
    def observers(self) -> tuple:
        """The registered observers, in registration order."""
        return self._observers

    def remove_observer(self, observer: Any) -> None:
        """Unregister an observer (no-op when not registered)."""
        self._observers = tuple(o for o in self._observers if o is not observer)

    # -- scheduling -------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Every kernel event is created here, and observers hear of each one
        here, so a tap on the kernel sees the complete event stream.
        """
        # ``not >=`` so NaN fails too: a NaN key would corrupt heap order
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule an event with delay {delay!r}:"
                " delays are non-negative seconds")
        self._seq = seq = self._seq + 1
        event = Event(self._now + delay, priority, seq, callback, args)
        self._queue.push(event)
        if self._observers:
            for observer in self._observers:
                observer.on_schedule(self._now, event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (no-op if it already ran)."""
        self._queue.cancel(event)

    # -- factories ---------------------------------------------------------------
    def signal(self, name: str | None = None) -> Signal:
        """Create a pending one-shot :class:`Signal` bound to this kernel."""
        return Signal(self, name)

    def timeout(self, delay: float, value: Any = None) -> Signal:
        """Return a signal that succeeds with *value* after *delay* seconds."""
        sig = self.signal(name=f"timeout({delay:.6f})")
        sig._timer_event = self.schedule(delay, self._fire_timeout, sig, value)
        return sig

    @staticmethod
    def _fire_timeout(sig: Signal, value: Any) -> None:
        if sig.pending:
            sig.succeed(value)

    def process(self, gen: ProcessGenerator, name: str | None = None) -> Process:
        """Start a generator as a simulated :class:`Process`."""
        return Process(self, gen, name)

    # -- execution -----------------------------------------------------------------
    def _execute(self, event: Event) -> None:
        """Advance the clock to *event* and run its callback."""
        if self._observers:
            # notified before the monotonicity check so an auditor records
            # the violation even when the kernel aborts the run
            for observer in self._observers:
                observer.on_execute(self._now, event)
        if event.time < self._now:
            raise SimulationError("event queue corrupted: time went backwards")
        self._now = event.time
        event.callback(*event.args)

    def step(self) -> bool:
        """Execute the single earliest event. Returns False if none remain."""
        event = self._queue.pop_due()
        if event is None:
            return False
        self._execute(event)
        return True

    def run(self, until: float | None = None) -> float:
        """Run events until the queue drains or simulated time reaches *until*.

        Returns the simulated time at which execution stopped. When *until*
        is given and events remain beyond it, the clock is advanced exactly
        to *until*.
        """
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        pop_due = self._queue.pop_due
        # the pure simulator advances instantly: skip the pacing hook
        wait_until = self._wait_until if self.realtime else None
        execute = self._execute
        try:
            while not self._stopped:
                event = pop_due(until)
                if event is None:
                    break
                if wait_until is not None:
                    wait_until(event.time)
                execute(event)
            else:
                return self._now
            # events remain beyond *until*, or the queue drained early
            if until is not None and (
                self._queue.peek_time() is not None or self._now < until
            ):
                self._now = until
            return self._now
        finally:
            self._running = False

    def run_until_resolved(self, signal: Signal, limit: float | None = None) -> Any:
        """Run until *signal* resolves; return its value (or raise its error).

        ``limit`` bounds simulated time; exceeding it raises
        :class:`SimulationError`.
        """
        while signal.pending:
            event = self._queue.pop_due(limit)
            if event is None:
                if self._queue.peek_time() is None:
                    raise SimulationError("event queue drained before signal resolved")
                raise SimulationError(f"signal unresolved at time limit {limit}")
            self._wait_until(event.time)
            self._execute(event)
        return signal.value

    def stop(self) -> None:
        """Request that a running :meth:`run` loop return after the current
        event."""
        self._stopped = True

    def _wait_until(self, sim_time: float) -> None:
        """Hook for realtime pacing; the pure simulator advances instantly."""


class RealtimeKernel(Kernel):
    """A kernel that paces event execution against the wall clock.

    ``speed`` scales simulated seconds to wall seconds (2.0 = twice as fast
    as real time). Execution overruns — events that take longer to process
    than the available wall time — are tolerated: the kernel simply stops
    sleeping and runs as fast as it can, like SimPy's strict=False mode.
    """

    realtime = True

    def __init__(self, speed: float = 1.0) -> None:
        super().__init__()
        if speed <= 0:
            raise SimulationError("realtime speed must be positive")
        self.speed = speed
        self._wall_start: float | None = None
        self._sim_start = 0.0

    def _wait_until(self, sim_time: float) -> None:
        if self._wall_start is None:
            self._wall_start = _time.monotonic()
            self._sim_start = self._now
        deadline = self._wall_start + (sim_time - self._sim_start) / self.speed
        remaining = deadline - _time.monotonic()
        if remaining > 0:
            _time.sleep(remaining)
