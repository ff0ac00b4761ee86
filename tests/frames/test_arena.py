"""The frame plane's accounting on the store: VideoFrame slots, pixel
bytes and stale accesses (what ``data_plane_stats()["arena"]`` reports).

The stale-reference laws themselves (use-after-release, -migrate, -evict,
double release) live in ``tests/frames/test_framestore.py``.
"""

import numpy as np
import pytest

from repro.errors import FrameStoreError, StaleHandleError
from repro.frames import (
    EVICTED,
    MIGRATED,
    RELEASED,
    FrameStore,
    VideoFrame,
)


def make_frame(frame_id=1, t=0.0, fill=7):
    pixels = np.full((24, 32, 3), fill, dtype=np.uint8)
    return VideoFrame(frame_id=frame_id, source="cam", capture_time=t,
                      width=32, height=24, pixels=pixels)


class TestArenaCore:
    def test_alloc_free_roundtrip(self):
        store = FrameStore("phone")
        nbytes = make_frame().raw_size
        ref = store.put(make_frame())
        assert store.frame_stats() == {
            "allocs": 1, "frees": 0, "live": 1, "bytes_in_use": nbytes,
            "peak_bytes": nbytes, "stale_accesses": {},
        }
        store.release(ref)
        assert store.frame_stats() == {
            "allocs": 1, "frees": 1, "live": 0, "bytes_in_use": 0,
            "peak_bytes": nbytes, "stale_accesses": {},
        }

    def test_stale_handle_names_retire_reason(self):
        store = FrameStore("phone")
        for reason in (EVICTED, MIGRATED, RELEASED):
            ref = store.put(make_frame())
            store.release(ref, reason=reason)
            with pytest.raises(StaleHandleError) as exc:
                store.get(ref)
            assert exc.value.reason == reason
        assert store.frame_stats()["stale_accesses"] == {
            EVICTED: 1, MIGRATED: 1, RELEASED: 1,
        }

    def test_double_free_raises_stale(self):
        store = FrameStore("phone")
        ref = store.put(make_frame())
        store.release(ref)
        with pytest.raises(StaleHandleError) as exc:
            store.release(ref)
        assert exc.value.reason == RELEASED
        assert store.frame_frees == 1  # the second release never counted

    def test_stale_handle_error_is_a_frame_store_error(self):
        # callers catching the store's generic error keep working
        assert issubclass(StaleHandleError, FrameStoreError)

    def test_unknown_retire_reason_rejected(self):
        store = FrameStore("phone")
        ref = store.put(make_frame())
        with pytest.raises(FrameStoreError, match="retire reason"):
            store.release(ref, reason="misplaced")
        assert store.refcount(ref) == 1  # the bad release changed nothing


class TestStoreArenaIntegration:
    def test_stored_frames_are_counted(self):
        store = FrameStore("phone")
        store.put(make_frame(frame_id=1))
        store.put(make_frame(frame_id=2, fill=9))
        assert store.frame_allocs == 2
        assert store.frame_bytes_in_use == 2 * make_frame().raw_size

    def test_non_frames_are_not_counted(self):
        store = FrameStore("phone")
        ref = store.put({"not": "a frame"})
        store.release(ref)
        assert store.frame_stats()["allocs"] == 0
        assert store.frame_stats()["frees"] == 0

    def test_dedup_hit_allocates_no_new_slot(self):
        store = FrameStore("phone", dedup=True)
        store.put(make_frame(frame_id=1))
        store.put(make_frame(frame_id=2))  # byte-identical -> same slot
        assert store.frame_allocs == 1
