"""Migrate × frame plane: draining a module whose queued frames sit in a
shared-memory store must retire their refs as MIGRATED, and any
post-migrate access through a kept ref is a typed StaleHandleError."""

import numpy as np
import pytest

from repro.audit import InvariantAuditor
from repro.core import VideoPipe
from repro.errors import StaleHandleError
from repro.frames import MIGRATED, RELEASED, VideoFrame
from repro.pipeline import ModuleConfig, PipelineConfig
from repro.runtime import Module, register_module
from repro.runtime.events import DATA, ModuleEvent


@register_module("./ArenaProducer.js")
class Producer(Module):
    def event_received(self, ctx, event):
        pass


@register_module("./ArenaConsumer.js")
class Consumer(Module):
    def event_received(self, ctx, event):
        pass


def two_stage_config():
    return PipelineConfig(
        name="arenatest",
        modules=[
            ModuleConfig(name="producer", include="./ArenaProducer.js",
                         next_modules=["consumer"], device="phone",
                         endpoint="bind#tcp://*:6600"),
            ModuleConfig(name="consumer", include="./ArenaConsumer.js",
                         device="phone", endpoint="bind#tcp://*:6601"),
        ],
    )


def make_frame(frame_id):
    pixels = np.full((24, 32, 3), frame_id % 251, dtype=np.uint8)
    return VideoFrame(frame_id=frame_id, source="cam", capture_time=0.0,
                      width=32, height=24, pixels=pixels)


def queue_arena_frame(pipeline, module_name, frame_id):
    """Park a frame in the module's mailbox and return the ref the
    migration drain must retire."""
    ctx = pipeline.module(module_name).ctx
    ref = ctx.store_frame(make_frame(frame_id))
    ctx.frame_entered(frame_id)
    pipeline.module(module_name).mailbox.put(ModuleEvent(
        kind=DATA, payload={"frame_id": frame_id, "ref": ref},
    ))
    return ref


class TestMigrateRetiresArenaSlots:
    def test_drained_planes_retire_as_migrated_not_released(self, monkeypatch):
        # REPRO_AUDIT=1 coverage: let the env gate audit this home too
        monkeypatch.setenv("REPRO_AUDIT", "1")
        home = VideoPipe.paper_testbed(seed=0)
        home.enable_data_plane()
        pipeline = home.deploy_pipeline(two_stage_config(),
                                        default_device="phone")
        ref = queue_arena_frame(pipeline, "consumer", 801)
        store = home.device("phone").frame_store
        assert store.frame_stats()["live"] == 1

        home.migrate_module(pipeline, "consumer", "desktop")

        assert store._tombstones[ref.ref_id] == MIGRATED
        assert store._tombstones[ref.ref_id] != RELEASED
        assert store.frame_stats()["live"] == 0
        assert pipeline.metrics.frames_in_flight == 0
        assert pipeline.metrics.counter("frames_dropped") == 1
        assert home.check_invariants() == []

    def test_post_migrate_access_raises_typed_stale(self, monkeypatch):
        """The kept ref is poison after the move — and the explicit
        auditor attributes the access. (This test *provokes* a stale
        access, so it opts out of the env auditor sweep.)"""
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        home = VideoPipe.paper_testbed(seed=0)
        home.enable_data_plane()
        auditor = InvariantAuditor(home.kernel)
        pipeline = home.deploy_pipeline(two_stage_config(),
                                        default_device="phone")
        store = home.device("phone").frame_store
        auditor.watch_store(store)
        ref = queue_arena_frame(pipeline, "consumer", 802)

        home.migrate_module(pipeline, "consumer", "desktop")

        with pytest.raises(StaleHandleError) as exc:
            store.get(ref)
        assert exc.value.reason == MIGRATED
        with pytest.raises(StaleHandleError) as exc:
            store.refcount(ref)
        assert exc.value.reason == MIGRATED
        assert store.stale_accesses == {MIGRATED: 2}
        assert any(v.invariant == "stale-access"
                   and "migrated" in v.detail
                   for v in auditor.violations), auditor.report()
