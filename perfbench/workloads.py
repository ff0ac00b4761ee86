"""The benchmark's three workloads and the correctness checks run on each.

Every workload is a single process, a single kernel, no threads and no
shards. Each takes only a seed; the program receives the inputs derived
from it. Sources capture on a fixed simulated schedule (an open loop) and
the section 2.3 credit protocol drops frames at the source instead of
queueing them, so every workload runs above its sustainable rate and the
drop share is a measured, structural quantity rather than an accident of
one device mix.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.apps import (
    fitness_pipeline_config,
    install_fitness_services,
    train_activity_recognizer,
)
from repro.core import VideoPipe
from repro.fleet.harness import Fleet, FleetConfig
from repro.fleet.workload import HUB_KINDS, home_device_kinds
from repro.metrics.collector import MetricsCollector
from repro.pipeline import COLOCATED
from repro.pipeline.optimizer import OPTIMIZED
from repro.slo.spec import SLO


@dataclass
class Built:
    """One workload instance, set up and ready to run."""

    kernel: object
    homes: list
    pipelines: list
    #: simulated capture window, the denominator of ``delivered_fps``.
    duration_s: float
    #: simulated time by which capture is over and frames have drained,
    #: bar the final settle that :attr:`run` performs.
    horizon_s: float
    #: runs the workload to completion from wherever the kernel stands.
    run: Callable[[], object]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: the open-loop arrival shape.
    shape: str
    build: Callable[[int], Built]

    @property
    def description(self) -> str:
        """The one line ``BENCHMARK.json`` records for the workload."""
        return f"{self.why} {self.shape}."


# -- fleet homes ----------------------------------------------------------------

def stratified_homes(seed: int, homes: int) -> tuple[list[int], int]:
    """Global home indices giving an equal count of each hub kind.

    A fleet's capacity is set mostly by how many homes drew the slow hub;
    with a plain ``range(homes)`` that count is binomial in the seed and
    every simulated metric swings with it. Stratifying on the hub keeps the
    seed in charge of everything else (extra devices, frame jitter, noise)
    while the fleet's make-up stays fixed. Returns the indices and the
    global fleet size they were drawn from."""
    per_kind = homes // len(HUB_KINDS)
    picked: dict[str, list[int]] = {kind: [] for kind in HUB_KINDS}
    index = 0
    while any(len(v) < per_kind for v in picked.values()):
        hub = home_device_kinds(random.Random(f"fleet/{seed}/{index}"))[1]
        if len(picked[hub]) < per_kind:
            picked[hub].append(index)
        index += 1
    return sorted(i for v in picked.values() for i in v), index


def _fleet(seed: int, homes: int, **config) -> Built:
    indices, span = stratified_homes(seed, homes)
    fleet = Fleet(
        FleetConfig(homes=span, seed=seed, strategy=OPTIMIZED, **config),
        home_indices=indices,
    )
    return Built(fleet.kernel, fleet.homes, fleet.pipelines,
                 config["duration_s"],
                 config["duration_s"] + fleet.config.tail_s, fleet.run)


FLEET_STAGE_HOMES = 24
FLEET_STAGE_FPS = 24.0
FLEET_STAGE_SECONDS = 4.0


def build_fleet_stage(seed: int) -> Built:
    return _fleet(
        seed, FLEET_STAGE_HOMES, workload="stage",
        fps_choices=(FLEET_STAGE_FPS,), duration_s=FLEET_STAGE_SECONDS,
    )


FLEET_MANAGED_HOMES = 12
FLEET_MANAGED_FPS = 15.0
FLEET_MANAGED_SECONDS = 6.0


def build_fleet_managed(seed: int) -> Built:
    built = _fleet(
        seed, FLEET_MANAGED_HOMES, workload="scene",
        fps_choices=(FLEET_MANAGED_FPS,), duration_s=FLEET_MANAGED_SECONDS,
        audit=True, tracing=True, online=True, slo=SLO(),
    )
    for home in built.homes:
        home.enable_liveops()
    return built


# -- the paper testbed ----------------------------------------------------------

DATAPLANE_PIPELINES = 3
DATAPLANE_FPS = 12.0
DATAPLANE_SECONDS = 32.0
DATAPLANE_TAIL_S = 2.0
#: the pipeline whose camera sees a frozen scene, so dedup and the result
#: cache hit on a measured share of frames instead of never or always.
DATAPLANE_STATIC = 2


def _fitness_clone(index: int):
    """A fitness DAG with every module name prefixed, so several run in one
    home on distinct ports."""
    prefix = f"p{index}"
    config = fitness_pipeline_config(
        name=f"fitness-{prefix}", fps=DATAPLANE_FPS,
        duration_s=DATAPLANE_SECONDS, mode="signal",
        base_port=5860 + 40 * index,
        static_scene=index == DATAPLANE_STATIC,
    )
    rename = {m.name: f"{prefix}_{m.name}" for m in config.modules}
    for module in config.modules:
        module.name = rename[module.name]
        module.next_modules = [rename[n] for n in module.next_modules]
    config.source = rename[config.source]
    return config


def build_home_dataplane(seed: int) -> Built:
    recognizer = train_activity_recognizer(seed=seed)
    home = VideoPipe.paper_testbed(seed=seed)
    home.enable_data_plane()
    home.enable_fast_path()
    install_fitness_services(home, recognizer=recognizer)
    pipelines = [
        home.deploy_pipeline(_fitness_clone(i), strategy=COLOCATED,
                             default_device="phone")
        for i in range(DATAPLANE_PIPELINES)
    ]
    horizon = DATAPLANE_SECONDS + DATAPLANE_TAIL_S
    return Built(home.kernel, [home], pipelines, DATAPLANE_SECONDS, horizon,
                 lambda: home.run(until=horizon))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "fleet_stage",
            "Message path with no real compute; kernel, runtime and net "
            "dominate; idle cost of observers that are off.",
            f"Open loop: {FLEET_STAGE_HOMES} homes x {FLEET_STAGE_FPS:g} FPS"
            f" x {FLEET_STAGE_SECONDS:g} s, stage DAG, optimized placement,"
            " no observers",
            build_fleet_stage,
        ),
        Workload(
            "home_dataplane",
            "Paper app with real vision and motion compute over arena, "
            "replica pool, dedup and result cache.",
            f"Open loop: {DATAPLANE_PIPELINES} fitness pipelines x"
            f" {DATAPLANE_FPS:g} FPS x {DATAPLANE_SECONDS:g} s on one pose"
            " service, one static scene",
            build_home_dataplane,
        ),
        Workload(
            "fleet_managed",
            "Observers and controllers at work: audit, tracing, lineage, "
            "online optimizer, SLO; fan-in and re-ID.",
            f"Open loop: {FLEET_MANAGED_HOMES} homes x {FLEET_MANAGED_FPS:g}"
            f" FPS x {FLEET_MANAGED_SECONDS:g} s, two-camera scene fan-in",
            build_fleet_managed,
        ),
    )
}


# -- completion order -----------------------------------------------------------

class CompletionLog:
    """Records each pipeline's completed frame ids in completion order.

    The fitness sink keeps no id list, so the log wraps
    ``MetricsCollector.frame_completed`` for the life of the benchmark
    process: one extra Python call per completed frame, paid equally by
    traced and untraced runs."""

    def __init__(self) -> None:
        self.ids: dict[int, list[int]] = {}
        self._original = None

    def install(self) -> None:
        original = self._original = MetricsCollector.frame_completed
        ids = self.ids

        def frame_completed(collector, frame_id, now):
            ids.setdefault(id(collector), []).append(frame_id)
            return original(collector, frame_id, now)

        MetricsCollector.frame_completed = frame_completed

    def remove(self) -> None:
        if self._original is not None:
            MetricsCollector.frame_completed = self._original
            self._original = None

    def reset(self) -> None:
        self.ids.clear()

    def of(self, pipeline) -> list[int]:
        return self.ids.get(id(pipeline.metrics), [])


# -- outcome and checks -----------------------------------------------------------

def _source(pipeline):
    return pipeline.module_instance(pipeline.config.source_module)


def captured_frames(pipeline) -> int:
    """Frames the pipeline's source captured, whatever the source type."""
    source = _source(pipeline)
    camera = getattr(source, "source", None)
    if camera is not None:  # VideoStreamingModule
        return camera.captured_count
    # SceneRigModule: one frame per camera per tick, emitted or dropped
    return (source.emitted_ticks + source.dropped_ticks) * source.cameras


def in_capture_order(pipeline, ids: list[int]) -> bool:
    """Whether completions follow capture order under the credit protocol.

    A linear pipeline has one frame in flight, so its ids strictly
    increase. A fan-in rig emits one frame per camera per tick, numbered
    ``tick * cameras + 1 ...``, and the branches may finish a tick in any
    order; ticks must still complete in order, each frame once."""
    per_tick = getattr(_source(pipeline), "cameras", 1)
    ticks = [(frame_id - 1) // per_tick for frame_id in ids]
    return (len(set(ids)) == len(ids)
            and all(a <= b for a, b in zip(ticks, ticks[1:])))


def arena_stats(homes) -> dict:
    stale = allocs = peak = 0
    for home in homes:
        arena = home.data_plane_stats()["arena"]
        stale += arena["stale_accesses"]
        allocs += arena["allocs"]
        peak += arena["peak_bytes"]
    return {"stale_accesses": stale, "allocs": allocs, "peak_bytes": peak}


@dataclass
class Outcome:
    """The simulated result of one run, and the checks it failed."""

    captured: int
    completed: int
    dropped: int
    latencies: list[float]
    digest: str
    failures: list[str] = field(default_factory=list)


def outcome(built: Built, log: CompletionLog) -> Outcome:
    """Read the run's simulated outputs and check them.

    Checks: frame conservation (captured = completed + dropped, nothing in
    flight, no live frame reference after the drain), no stale arena
    access, and completions in capture order (:func:`in_capture_order`)."""
    failures: list[str] = []
    captured = completed = dropped = 0
    latencies: list[float] = []
    digest_rows = []
    for pipeline in built.pipelines:
        metrics = pipeline.metrics
        got = captured_frames(pipeline)
        done = metrics.counter("frames_completed")
        lost = metrics.counter("frames_dropped")
        if got != done + lost:
            failures.append(
                f"{pipeline.name}: captured {got} != completed {done}"
                f" + dropped {lost}")
        if metrics.frames_in_flight:
            failures.append(
                f"{pipeline.name}: {metrics.frames_in_flight} frames in flight")
        ids = log.of(pipeline)
        if len(ids) != done:
            failures.append(
                f"{pipeline.name}: {len(ids)} completions logged, {done} counted")
        if not in_capture_order(pipeline, ids):
            failures.append(f"{pipeline.name}: frames completed out of order")
        captured += got
        completed += done
        dropped += lost
        lat = metrics.total_latencies
        latencies.extend(lat)
        digest_rows.append([pipeline.name, [repr(x) for x in lat], ids])
    live = sum(
        device.frame_store.live_count
        for home in built.homes for device in home.devices.values()
    )
    if live:
        failures.append(f"{live} live frame references after the drain")
    stale = arena_stats(built.homes)["stale_accesses"]
    if stale:
        failures.append(f"{stale} stale arena accesses")
    digest = hashlib.sha256(
        json.dumps(digest_rows, separators=(",", ":")).encode()
    ).hexdigest()
    return Outcome(captured, completed, dropped, latencies, digest, failures)
