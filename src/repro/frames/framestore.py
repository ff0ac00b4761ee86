"""Device-local frame stores with reference counting and content dedup.

The paper minimizes data copying by handing modules a *reference id* instead
of the frame: "The module code can use that id to do the modifications on
the image using the services and forward the frames to other modules" (§3).
:class:`FrameStore` implements that contract: frames (or any payload) are
parked once per device, co-located modules and services share them by
:class:`~repro.frames.frame.FrameRef`, and refcounts reclaim slots when the
last holder releases.

With ``dedup`` enabled the store is additionally *content-addressed* for
frames: a byte-identical :class:`~repro.frames.frame.VideoFrame` resolves
to the already-stored object (one slot, one refcount pool), which is what
makes static scenes nearly free downstream. Deduped objects whose refcount
hits zero are *retained* for a while (up to ``retain_limit`` entries) so the
next identical capture still hits; retained entries are the first thing
evicted under capacity pressure.

Every retired ref id leaves a tombstone naming why it died (released,
evicted, migrated), and ids come from a counter that never repeats, so a
stale dereference raises a typed :class:`~repro.errors.StaleHandleError`
instead of reading a recycled slot. The store also keeps the frame plane's
own accounting: how many :class:`VideoFrame` slots were allocated and
freed, the pixel bytes they hold, and stale accesses by retire reason.
"""

from __future__ import annotations

import itertools
from collections import Counter, OrderedDict
from typing import Any, Callable

from ..errors import FrameStoreError, StaleHandleError
from .digest import content_digest
from .frame import FrameRef, VideoFrame

#: Retire reasons recorded per ref; a stale access reports the one that
#: retired the ref it names.
EVICTED = "evicted"
MIGRATED = "migrated"
RELEASED = "released"

RETIRE_REASONS = (EVICTED, MIGRATED, RELEASED)

#: How many retired refs keep a tombstone recording *why* they died, so a
#: stale dereference reports use-after-evict vs use-after-migrate vs
#: double-release instead of a generic "unknown reference".
TOMBSTONE_LIMIT = 1024

#: An eviction hook: called as ``hook(store, needed_slots)`` when the store
#: is full; it frees slots by releasing its own holds. The hook's return
#: value is ignored — the store measures the actual occupancy delta rather
#: than trusting a self-reported count.
EvictionHook = Callable[["FrameStore", int], int]


class FrameStore:
    """A per-device object store keyed by reference id.

    Args:
        device: owning device name (refs never cross devices).
        capacity: maximum simultaneously stored objects (live + retained).
        dedup: content-address byte-identical :class:`VideoFrame` objects.
        retain_limit: with dedup on, how many zero-refcount frames to keep
            around as dedup targets before reclaiming the oldest.
    """

    def __init__(
        self,
        device: str,
        capacity: int = 256,
        dedup: bool = False,
        retain_limit: int = 32,
    ) -> None:
        if capacity < 1:
            raise FrameStoreError("capacity must be >= 1")
        if retain_limit < 0:
            raise FrameStoreError("retain_limit must be >= 0")
        self.device = device
        self.capacity = capacity
        self.dedup = dedup
        self.retain_limit = retain_limit
        self._ids = itertools.count(1)
        self._objects: dict[int, Any] = {}
        self._refcounts: dict[int, int] = {}
        #: ref_id -> content digest (memoized; None = undigestable).
        self._digests: dict[int, str | None] = {}
        #: digest -> ref_id for dedup lookups (frames only).
        self._by_digest: dict[str, int] = {}
        #: zero-refcount entries kept alive as dedup targets (LRU by
        #: release order; value unused).
        self._retained: OrderedDict[int, None] = OrderedDict()
        self._eviction_hooks: list[EvictionHook] = []
        #: True while eviction hooks run; guards against hooks re-entering
        #: :meth:`put` mid-eviction (which would recurse into `_make_room`).
        self._evicting = False
        #: True when the device's frame plane is shared memory (set by
        #: ``VideoPipe.enable_data_plane``): an intra-device hop then ships
        #: a fixed-size handle instead of pricing the payload.
        self.shared_memory = False
        #: ref_id -> pixel bytes of each stored :class:`VideoFrame`.
        self._frame_bytes: dict[int, int] = {}
        #: ref_id -> retire reason for recently deleted refs (bounded LRU);
        #: lets ``_check`` raise a typed StaleHandleError naming the cause.
        self._tombstones: OrderedDict[int, str] = OrderedDict()
        #: The home's :class:`~repro.audit.auditor.InvariantAuditor`, or
        #: ``None`` while auditing is off (set by ``watch_store``).
        self.auditor: Any = None
        # statistics for the ref-passing and dedup ablations
        self.stored_count = 0
        self.resolved_count = 0
        self.peak_occupancy = 0
        self.dedup_hits = 0
        self.dedup_misses = 0
        self.dedup_bytes_saved = 0
        self.retained_evictions = 0
        self.hook_evictions = 0
        # frame-plane accounting: VideoFrame slots and stale accesses
        self.frame_allocs = 0
        self.frame_frees = 0
        self.frame_bytes_in_use = 0
        self.peak_frame_bytes = 0
        self.stale_accesses: Counter[str] = Counter()

    def __len__(self) -> int:
        return len(self._objects)

    @property
    def live_count(self) -> int:
        """Objects with at least one holder."""
        return len(self._objects) - len(self._retained)

    @property
    def retained_count(self) -> int:
        """Zero-refcount objects kept as dedup targets."""
        return len(self._retained)

    # -- core protocol -------------------------------------------------------
    def put(self, obj: Any) -> FrameRef:
        """Park *obj* and return a reference with refcount 1.

        With dedup enabled, a byte-identical frame resolves to the existing
        stored object instead of taking a new slot.
        """
        if self._evicting:
            raise FrameStoreError(
                f"eviction hook re-entered put() on {self.device!r} while the"
                " store was making room — hooks may only release their own"
                " holds, never store new objects"
            )
        digest: str | None = None
        if self.dedup and isinstance(obj, VideoFrame):
            digest = content_digest(obj)
            if digest is not None:
                existing = self._by_digest.get(digest)
                if existing is not None:
                    self.dedup_hits += 1
                    self.dedup_bytes_saved += obj.raw_size
                    if existing in self._retained:
                        del self._retained[existing]
                        self._refcounts[existing] = 1
                    else:
                        self._refcounts[existing] += 1
                    if self.auditor is not None:
                        self.auditor.on_ref_hold(
                            self, existing, self._refcounts[existing]
                        )
                    return FrameRef(self.device, existing)
            self.dedup_misses += 1
        if len(self._objects) >= self.capacity:
            self._make_room()
        ref_id = next(self._ids)
        self._objects[ref_id] = obj
        self._refcounts[ref_id] = 1
        if isinstance(obj, VideoFrame):
            nbytes = obj.raw_size
            self._frame_bytes[ref_id] = nbytes
            self.frame_allocs += 1
            self.frame_bytes_in_use += nbytes
            if self.frame_bytes_in_use > self.peak_frame_bytes:
                self.peak_frame_bytes = self.frame_bytes_in_use
        if digest is not None:
            self._digests[ref_id] = digest
            self._by_digest[digest] = ref_id
        self.stored_count += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._objects))
        if self.auditor is not None:
            self.auditor.on_ref_hold(self, ref_id, 1)
        return FrameRef(self.device, ref_id)

    def get(self, ref: FrameRef) -> Any:
        """Resolve a reference to its object (no copy)."""
        self._check(ref)
        self.resolved_count += 1
        return self._objects[ref.ref_id]

    def add_ref(self, ref: FrameRef) -> FrameRef:
        """Take an additional hold on the object (fan-out to two modules)."""
        self._check(ref)
        self._refcounts[ref.ref_id] += 1
        if self.auditor is not None:
            self.auditor.on_ref_hold(self, ref.ref_id, self._refcounts[ref.ref_id])
        return ref

    def release(self, ref: FrameRef, reason: str = RELEASED) -> None:
        """Drop one hold; the object is reclaimed when the count hits zero
        (or retained as a dedup target when dedup is on).

        *reason* is the retire reason recorded if this release frees the
        slot: :data:`RELEASED` for ordinary drops, :data:`MIGRATED` when
        the frame leaves the device with a migrating module."""
        if reason not in RETIRE_REASONS:
            raise FrameStoreError(f"unknown retire reason {reason!r}")
        self._check(ref)
        ref_id = ref.ref_id
        self._refcounts[ref_id] -= 1
        if self.auditor is not None:
            self.auditor.on_ref_release(self, ref_id, self._refcounts[ref_id])
        if self._refcounts[ref_id] == 0:
            if (
                self.dedup
                and self.retain_limit > 0
                and self._digests.get(ref_id) is not None
            ):
                self._retained[ref_id] = None
                while len(self._retained) > self.retain_limit:
                    oldest, _ = self._retained.popitem(last=False)
                    self.retained_evictions += 1
                    self._delete(oldest, EVICTED)
            else:
                self._delete(ref_id, reason)

    def refcount(self, ref: FrameRef) -> int:
        self._check(ref)
        return self._refcounts[ref.ref_id]

    def contains(self, ref: FrameRef) -> bool:
        return (
            ref.device == self.device
            and ref.ref_id in self._objects
            and ref.ref_id not in self._retained
        )

    # -- content addressing ----------------------------------------------------
    def digest_of(self, ref: FrameRef) -> str | None:
        """Content digest of the referenced object (memoized; ``None`` when
        the object has no stable byte representation)."""
        self._check(ref)
        ref_id = ref.ref_id
        if ref_id not in self._digests:
            self._digests[ref_id] = content_digest(self._objects[ref_id])
        return self._digests[ref_id]

    def dedup_ratio(self) -> float:
        """Fraction of dedup-eligible puts that hit an existing object."""
        attempts = self.dedup_hits + self.dedup_misses
        if attempts == 0:
            return 0.0
        return self.dedup_hits / attempts

    # -- capacity pressure ----------------------------------------------------
    def add_eviction_hook(self, hook: EvictionHook) -> None:
        """Register a hook consulted when the store is full. Hooks free
        slots by releasing holds they own (e.g. a cache dropping pinned
        entries); the store measures how many slots each hook actually
        freed rather than trusting a returned count. Hooks must not call
        :meth:`put` — eviction is in progress and re-entering would
        recurse."""
        self._eviction_hooks.append(hook)

    def _make_room(self) -> None:
        """Free at least one slot or raise the leak diagnostic."""
        # retained dedup targets are pure cache: reclaim oldest first
        self._reclaim_retained()
        needed = len(self._objects) - self.capacity + 1
        if needed > 0 and self._eviction_hooks:
            self._evicting = True
            try:
                for hook in self._eviction_hooks:
                    before = len(self._objects)
                    hook(self, needed)
                    # a hook's releases may land in the retained cache (dedup
                    # stores) instead of freeing slots outright; sweep it so
                    # the measured delta reflects reclaimable room
                    self._reclaim_retained()
                    freed = before - len(self._objects)
                    if freed > 0:
                        self.hook_evictions += freed
                    needed = len(self._objects) - self.capacity + 1
                    if needed <= 0:
                        break
            finally:
                self._evicting = False
        if len(self._objects) >= self.capacity:
            raise FrameStoreError(
                f"frame store on {self.device!r} full ({self.capacity} slots,"
                f" {self.retained_count} retained); a module is leaking"
                f" references — top holders: {self._top_holders()}"
            )

    def _reclaim_retained(self) -> None:
        """Delete retained (zero-refcount) entries oldest-first while the
        store is at or over capacity."""
        while self._retained and len(self._objects) >= self.capacity:
            oldest, _ = self._retained.popitem(last=False)
            self.retained_evictions += 1
            self._delete(oldest, EVICTED)

    def _top_holders(self, limit: int = 5) -> str:
        """The highest-refcount entries, for the leak diagnostic."""
        live = sorted(
            ((count, ref_id) for ref_id, count in self._refcounts.items()
             if count > 0),
            reverse=True,
        )[:limit]
        if not live:
            return "none (all retained)"
        return ", ".join(
            f"#{ref_id} {type(self._objects[ref_id]).__name__} x{count}"
            for count, ref_id in live
        )

    # -- helpers ---------------------------------------------------------------
    def _delete(self, ref_id: int, reason: str = RELEASED) -> None:
        del self._objects[ref_id]
        del self._refcounts[ref_id]
        digest = self._digests.pop(ref_id, None)
        if digest is not None and self._by_digest.get(digest) == ref_id:
            del self._by_digest[digest]
        nbytes = self._frame_bytes.pop(ref_id, None)
        if nbytes is not None:
            self.frame_frees += 1
            self.frame_bytes_in_use -= nbytes
        self._tombstones[ref_id] = reason
        while len(self._tombstones) > TOMBSTONE_LIMIT:
            self._tombstones.popitem(last=False)

    def _check(self, ref: FrameRef) -> None:
        if ref.device != self.device:
            raise FrameStoreError(
                f"reference {ref} belongs to device {ref.device!r}; this store"
                f" is on {self.device!r} — frame refs never cross devices"
            )
        if ref.ref_id not in self._objects or ref.ref_id in self._retained:
            reason = self._tombstones.get(ref.ref_id)
            if reason is not None:
                self.stale_accesses[reason] += 1
                if self.auditor is not None:
                    self.auditor.on_stale_access(self, ref, reason)
                raise StaleHandleError(
                    f"stale reference {ref}: the frame was {reason} after"
                    " the last live handle was minted — use-after-"
                    f"{'free' if reason == 'released' else reason}",
                    reason=reason,
                )
            raise FrameStoreError(f"unknown or already-released reference {ref}")

    def frame_stats(self) -> dict[str, Any]:
        """Frame-plane counters: :class:`VideoFrame` slots allocated and
        freed, pixel bytes in use and at peak, stale accesses by reason."""
        return {
            "allocs": self.frame_allocs,
            "frees": self.frame_frees,
            "live": len(self._frame_bytes),
            "bytes_in_use": self.frame_bytes_in_use,
            "peak_bytes": self.peak_frame_bytes,
            "stale_accesses": dict(self.stale_accesses),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<FrameStore {self.device} {self.live_count}"
            f"+{self.retained_count}r/{self.capacity}>"
        )
