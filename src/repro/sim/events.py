"""Event queue primitives for the discrete-event kernel.

An :class:`Event` is a callback scheduled at an absolute simulated time.
Events at the same time are ordered by ``priority`` (lower runs first) and
then by insertion sequence, which makes execution fully deterministic.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

#: Priority for urgent events (e.g. interrupts) that must run before normal
#: events scheduled at the same instant.
URGENT = 0
#: Default priority for ordinary events.
NORMAL = 1
#: Priority for housekeeping events that should run after everything else
#: at the same instant (e.g. metric flushes).
LOW = 2


class Event:
    """A single scheduled callback.

    Instances are created by :meth:`repro.sim.kernel.Kernel.schedule`; user
    code only ever holds them to :meth:`cancel <repro.sim.kernel.Kernel.cancel>`
    them.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def _key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self._key() < other._key()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Event t={self.time:.6f} p={self.priority} {name}{state}>"


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    Heap entries are ``(time, priority, seq, event)`` tuples. ``seq`` is
    unique per kernel, so :mod:`heapq` orders entries by C tuple comparison
    and never falls through to :meth:`Event.__lt__`. The key is captured at
    :meth:`push`; the kernel compares the popped event's own ``time``
    against its clock, so an event mutated behind the queue's back is
    still caught.

    Cancellation is lazy: cancelled events stay in the heap and are skipped
    when popped, which keeps :meth:`cancel` O(1). The live count is taken
    by a scan, so the hot path keeps no counter that a late cancel could
    skew.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __bool__(self) -> bool:
        return any(not entry[3].cancelled for entry in self._heap)

    def push(self, event: Event) -> None:
        heappush(self._heap, (event.time, event.priority, event.seq, event))

    def cancel(self, event: Event) -> None:
        """Mark *event* so it will be skipped when it reaches the front.

        Cancelling an event that already ran, or was already cancelled,
        changes nothing.
        """
        event.cancelled = True

    def pop_due(self, until: float | None = None) -> Event | None:
        """Remove and return the earliest live event due at or before
        *until* (any time when ``None``).

        Returns ``None`` when no live event remains, or when the earliest
        one lies beyond *until*; that event then stays queued.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heappop(heap)
            elif until is not None and entry[0] > until:
                return None
            else:
                return heappop(heap)[3]
        return None

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises :class:`IndexError` when the queue holds no live events.
        """
        event = self.pop_due()
        if event is None:
            raise IndexError("pop from empty event queue")
        return event

    def peek_time(self) -> float | None:
        """Return the time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        if not heap:
            return None
        return heap[0][0]
