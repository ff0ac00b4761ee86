"""Generator-based simulated processes.

A process is an ordinary Python generator that ``yield``s awaitables to
suspend itself:

* a :class:`~repro.sim.signals.Signal` — resume when it resolves (the yield
  expression evaluates to the signal's value; a failed signal raises inside
  the generator);
* another :class:`Process` — resume when that process terminates (join);
* a number (``int`` or ``float``, not ``bool``) — sleep that many seconds.

A wake-up costs at most one kernel event:

* a sleep schedules the process's own resume at ``now + delay`` through
  :meth:`Kernel.schedule <repro.sim.kernel.Kernel.schedule>`, with no
  timeout signal in between; :meth:`Process.interrupt` cancels that event,
  so an abandoned sleep does not hold the clock;
* a signal that is already resolved when yielded (including the ``done``
  of a finished process) is passed straight back into the generator,
  with no event at all;
* a pending signal resumes the process through one waiter event when it
  resolves, as :meth:`Signal.wait <repro.sim.signals.Signal.wait>` does
  for any callback.

A process resumes at the same simulated time as it would through a
timeout signal and a waiter event; only its place among the events of
that instant moves earlier. An invalid yield (a bool, a negative or NaN
delay, any other object) raises :class:`~repro.errors.SimulationError` at
the yield, where the process may catch it.

Example::

    def worker(kernel, cpu):
        grant = yield cpu.request()
        yield 0.050                      # hold the CPU for 50 ms
        cpu.release(grant)
        return "done"

    proc = kernel.process(worker(kernel, cpu))
    kernel.run()
    assert proc.done.value == "done"
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..errors import Interrupt, SimulationError
from .events import URGENT, Event
from .signals import PENDING, Signal

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

ProcessGenerator = Generator[Any, Any, Any]


class Process:
    """A running simulated process wrapping a generator.

    Attributes:
        done: a :class:`Signal` that resolves with the generator's return
            value, or fails with the exception that escaped it.
    """

    __slots__ = ("kernel", "name", "_gen", "done", "_epoch", "_waiting_on",
                 "_timer")

    def __init__(self, kernel: "Kernel", gen: ProcessGenerator, name: str | None = None) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        self.kernel = kernel
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self.done: Signal = kernel.signal(name=f"{self.name}.done")
        #: Incremented on every resume; stale wakeups from abandoned waits
        #: (e.g. after an interrupt) carry an older epoch and are dropped.
        self._epoch = 0
        #: The pending signal the process waits on, if any.
        self._waiting_on: Signal | None = None
        #: The event that ends the current sleep, if the process sleeps.
        self._timer: Event | None = None
        kernel.schedule(0.0, self._resume, self._epoch, None, None)

    # -- state ---------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.done.pending

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"

    # -- control -------------------------------------------------------------
    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        The process resumes (urgently, at the current simulated time) with the
        interrupt raised at its current ``yield``. Interrupting a terminated
        process is a no-op.
        """
        if not self.alive:
            return
        # abandoned sleeps and timeouts must not hold the clock
        if self._timer is not None:
            self.kernel.cancel(self._timer)
            self._timer = None
        waiting = self._waiting_on
        if waiting is not None and waiting.pending:
            waiting.cancel_timer()
        self._epoch += 1
        self._waiting_on = None
        self.kernel.schedule(
            0.0, self._resume, self._epoch, None, Interrupt(cause), priority=URGENT
        )

    # -- engine --------------------------------------------------------------
    def _resume(self, epoch: int, value: Any, exc: BaseException | None) -> None:
        if epoch != self._epoch or self.done._state != PENDING:
            return  # stale wakeup (process was interrupted or already ended)
        self._waiting_on = None
        self._timer = None
        gen = self._gen
        while True:
            try:
                if exc is not None:
                    target = gen.throw(exc)
                else:
                    target = gen.send(value)
            except StopIteration as stop:
                self.done.succeed(stop.value)
                return
            except Exception as error:
                self.done.fail(error)
                return
            self._epoch = epoch = self._epoch + 1
            kind = type(target)
            try:
                if kind is not float and kind is not Signal:
                    target = self._as_target(target)
                if type(target) is float:
                    self._timer = self.kernel.schedule(
                        target, self._resume, epoch, None, None)
                    return
            except SimulationError as error:
                # an invalid yield: raise it at the offending yield so the
                # process can handle (or die from) it
                value, exc = None, error
                continue
            if target._state == PENDING:
                self._waiting_on = target

                def waiter(value: Any, exc: BaseException | None) -> None:
                    self._resume(epoch, value, exc)

                target.wait(waiter)
                return
            # already resolved: continue through it without a kernel event
            value, exc = target._value, target._exc

    def _as_target(self, target: Any) -> "Signal | float":
        """Map a yielded object to the signal to wait on or the seconds to
        sleep; raise :class:`SimulationError` for anything else."""
        if isinstance(target, Signal):
            return target
        if isinstance(target, Process):
            return target.done
        if isinstance(target, bool):
            raise SimulationError(
                f"process {self.name!r} yielded the bool {target!r}; a bool "
                "is not a number of seconds (expected a Signal, a Process, "
                "or a number of seconds)"
            )
        if isinstance(target, (int, float)):
            return float(target)
        raise SimulationError(
            f"process {self.name!r} yielded {target!r}; expected a Signal, "
            "a Process, or a number of seconds"
        )
