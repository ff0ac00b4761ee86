"""Unit and property tests for the frame store."""

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameStoreError, StaleHandleError
from repro.frames import (
    EVICTED,
    MIGRATED,
    RELEASED,
    FrameRef,
    FrameStore,
    VideoFrame,
)


def make_frame(fill=7):
    pixels = np.full((24, 32, 3), fill, dtype=np.uint8)
    return VideoFrame(frame_id=1, source="cam", capture_time=0.0,
                      width=32, height=24, pixels=pixels)


def retire_released():
    store = FrameStore("phone")
    ref = store.put(make_frame())
    store.release(ref)
    return store, ref, store.get


def retire_migrated():
    store = FrameStore("phone")
    ref = store.put(make_frame())
    store.release(ref, reason=MIGRATED)
    return store, ref, store.get


def retire_evicted():
    store = FrameStore("phone", dedup=True, retain_limit=1)
    ref = store.put(make_frame(fill=1))
    store.release(ref)  # retained as a dedup target
    store.release(store.put(make_frame(fill=2)))  # overflow evicts the first
    return store, ref, store.get


def retire_then_release_again():
    store = FrameStore("phone")
    ref = store.put(make_frame())
    store.release(ref)
    return store, ref, store.release


class TestStaleRefs:
    @pytest.mark.parametrize("retire, reason", [
        pytest.param(retire_released, RELEASED, id="use-after-release"),
        pytest.param(retire_migrated, MIGRATED, id="use-after-migrate"),
        pytest.param(retire_evicted, EVICTED, id="use-after-evict"),
        pytest.param(retire_then_release_again, RELEASED,
                     id="double-release"),
    ])
    def test_stale_ref_names_retire_reason(self, retire, reason):
        """A retired ref raises a typed StaleHandleError naming why it
        died, and the store counts the stale access under that reason."""
        store, ref, access = retire()
        with pytest.raises(StaleHandleError) as exc:
            access(ref)
        assert exc.value.reason == reason
        assert store.stale_accesses == {reason: 1}


class TestFrameStore:
    def test_put_get_roundtrip_no_copy(self):
        store = FrameStore("phone")
        obj = {"frame": 1}
        ref = store.put(obj)
        assert store.get(ref) is obj  # identity: zero-copy
        assert ref.device == "phone"

    def test_refs_are_small_on_the_wire(self):
        ref = FrameStore("phone").put(object())
        assert ref.wire_size < 100

    def test_release_reclaims_slot(self):
        store = FrameStore("phone")
        ref = store.put("x")
        assert len(store) == 1
        store.release(ref)
        assert len(store) == 0
        with pytest.raises(FrameStoreError):
            store.get(ref)

    def test_add_ref_delays_reclaim(self):
        store = FrameStore("phone")
        ref = store.put("x")
        store.add_ref(ref)
        assert store.refcount(ref) == 2
        store.release(ref)
        assert store.get(ref) == "x"  # still alive
        store.release(ref)
        assert not store.contains(ref)

    def test_double_release_rejected(self):
        store = FrameStore("phone")
        ref = store.put("x")
        store.release(ref)
        with pytest.raises(FrameStoreError):
            store.release(ref)

    def test_cross_device_refs_rejected(self):
        phone = FrameStore("phone")
        desktop = FrameStore("desktop")
        ref = phone.put("x")
        with pytest.raises(FrameStoreError, match="never cross devices"):
            desktop.get(ref)

    def test_capacity_enforced(self):
        store = FrameStore("phone", capacity=2)
        store.put("a")
        store.put("b")
        with pytest.raises(FrameStoreError, match="leaking"):
            store.put("c")

    def test_invalid_capacity_rejected(self):
        with pytest.raises(FrameStoreError):
            FrameStore("phone", capacity=0)

    def test_ids_never_reused(self):
        store = FrameStore("phone")
        first = store.put("a")
        store.release(first)
        second = store.put("b")
        assert second.ref_id != first.ref_id

    def test_statistics(self):
        store = FrameStore("phone")
        refs = [store.put(i) for i in range(3)]
        store.get(refs[0])
        store.get(refs[0])
        assert store.stored_count == 3
        assert store.resolved_count == 2
        assert store.peak_occupancy == 3


@given(
    ops=st.lists(
        st.sampled_from(["put", "addref", "release", "get"]), min_size=1, max_size=200
    )
)
@settings(max_examples=60)
def test_property_refcounts_never_corrupt(ops):
    """Random op sequences: live objects always resolvable, dead never."""
    store = FrameStore("dev", capacity=1000)
    live = {}  # ref -> expected refcount
    counter = 0
    for op in ops:
        if op == "put":
            counter += 1
            ref = store.put(counter)
            live[ref] = 1
        elif live:
            ref = next(iter(live))
            if op == "addref":
                store.add_ref(ref)
                live[ref] += 1
            elif op == "release":
                store.release(ref)
                live[ref] -= 1
                if live[ref] == 0:
                    del live[ref]
            else:  # get
                assert store.get(ref) is not None
    assert len(store) == len(live)
    for ref, count in live.items():
        assert store.refcount(ref) == count
