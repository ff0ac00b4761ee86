"""Unit tests for the event queue primitives."""

import pytest

from repro.sim.events import LOW, NORMAL, URGENT, Event, EventQueue


def make_event(time, priority=NORMAL, seq=0):
    return Event(time, priority, seq, lambda: None, ())


class TestEventOrdering:
    def test_earlier_time_first(self):
        assert make_event(1.0) < make_event(2.0)

    def test_priority_breaks_time_ties(self):
        assert make_event(1.0, URGENT, 5) < make_event(1.0, NORMAL, 1)
        assert make_event(1.0, NORMAL, 5) < make_event(1.0, LOW, 1)

    def test_sequence_breaks_full_ties(self):
        assert make_event(1.0, NORMAL, 1) < make_event(1.0, NORMAL, 2)


class TestEventQueue:
    def test_starts_empty(self):
        q = EventQueue()
        assert len(q) == 0
        assert not q
        assert q.peek_time() is None

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_pop_returns_in_order(self):
        q = EventQueue()
        events = [make_event(t, seq=i) for i, t in enumerate([3.0, 1.0, 2.0])]
        for e in events:
            q.push(e)
        assert [q.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        first = make_event(1.0, seq=1)
        second = make_event(2.0, seq=2)
        q.push(first)
        q.push(second)
        q.cancel(first)
        assert len(q) == 1
        assert q.pop() is second

    def test_cancel_twice_counts_once(self):
        q = EventQueue()
        e = make_event(1.0)
        q.push(e)
        q.cancel(e)
        q.cancel(e)
        assert len(q) == 0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        first = make_event(1.0, seq=1)
        q.push(first)
        q.push(make_event(5.0, seq=2))
        q.cancel(first)
        assert q.peek_time() == 5.0

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(make_event(1.0))
        assert q.peek_time() == 1.0
        assert len(q) == 1

    def test_pop_due_leaves_later_events_queued(self):
        q = EventQueue()
        q.push(make_event(1.0, seq=1))
        q.push(make_event(2.0, seq=2))
        assert q.pop_due(1.5).time == 1.0
        assert q.pop_due(1.5) is None
        assert len(q) == 1
        assert q.peek_time() == 2.0

    def test_heap_orders_without_event_comparison(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("heap compared two Event objects")

        monkeypatch.setattr(Event, "__lt__", refuse)
        q = EventQueue()
        keys = [(t, p, s) for s, (t, p) in enumerate(
            [(1.0, NORMAL), (1.0, URGENT), (0.5, LOW), (1.0, NORMAL),
             (0.5, LOW), (2.0, URGENT)], start=1)]
        for key in reversed(keys):
            q.push(make_event(*key))
        popped = [(e.time, e.priority, e.seq) for e in
                  iter(q.pop_due, None)]
        assert popped == sorted(keys)
