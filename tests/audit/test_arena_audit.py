"""Frame-plane laws under the auditor: stale accesses and retained frames.

Every auditor here is explicitly constructed, so the ``REPRO_AUDIT``
pytest gate ignores the intentional violations these tests provoke.
"""

import numpy as np
import pytest

from repro.audit import InvariantAuditor
from repro.errors import AuditError, StaleHandleError
from repro.frames import EVICTED, FrameStore, VideoFrame
from repro.pipeline import AuditConfig
from repro.sim.kernel import Kernel


def make_frame(frame_id=1, fill=7):
    pixels = np.full((24, 32, 3), fill, dtype=np.uint8)
    return VideoFrame(frame_id=frame_id, source="cam", capture_time=0.0,
                      width=32, height=24, pixels=pixels)


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def auditor(kernel):
    return InvariantAuditor(kernel)


def evicted_ref(store):
    """Store a frame, retain it as a dedup target, then evict it."""
    first = store.put(make_frame(fill=1))
    store.release(first)
    second = store.put(make_frame(fill=2))
    store.release(second)  # retention overflow evicts the first frame
    return first


class TestArenaConservation:
    def test_clean_lifecycle_stays_clean(self, auditor):
        store = FrameStore("phone")
        auditor.watch_store(store)
        ref = store.put(make_frame())
        store.release(ref)
        assert auditor.check_now() == []
        assert auditor.check_quiesce() == []

    def test_stale_access_trips_the_auditor(self, auditor):
        store = FrameStore("phone")
        auditor.watch_store(store)
        ref = store.put(make_frame())
        store.release(ref, reason=EVICTED)
        with pytest.raises(StaleHandleError):
            store.get(ref)
        assert auditor.violation_count == 1
        violation = auditor.violations[0]
        assert violation.invariant == "stale-access"
        assert violation.subject == "framestore/phone"
        assert "evicted" in violation.detail

    def test_use_after_evict_through_the_store_is_attributed(self, auditor):
        store = FrameStore("phone", dedup=True, retain_limit=1)
        auditor.watch_store(store)
        first = evicted_ref(store)
        with pytest.raises(StaleHandleError) as exc:
            store.refcount(first)
        assert exc.value.reason == EVICTED
        assert any(
            v.invariant == "stale-access" for v in auditor.violations
        )

    def test_quiesce_allows_retained_dedup_targets(self, auditor):
        store = FrameStore("phone", dedup=True, retain_limit=4)
        auditor.watch_store(store)
        ref = store.put(make_frame())
        store.release(ref)  # zero refcount, retained as a dedup target
        assert store.frame_stats()["live"] == 1  # the slot legitimately stays
        assert auditor.check_quiesce() == []


class TestStrictStaleAccess:
    def test_strict_auditor_raises_on_stale_dereference(self, kernel):
        """Every stale dereference of a watched store is a violation: a
        strict auditor turns it into an AuditError at the access itself."""
        auditor = InvariantAuditor(kernel, AuditConfig(strict=True))
        store = FrameStore("phone", dedup=True, retain_limit=1)
        auditor.watch_store(store)
        first = evicted_ref(store)
        with pytest.raises(AuditError, match="stale-access on framestore/phone"):
            store.get(first)
        assert store.stale_accesses == {EVICTED: 1}
