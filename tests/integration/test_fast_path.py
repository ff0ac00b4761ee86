"""Integration: the service-layer fast path (dedup + cache + batching).

Two end-to-end properties matter: a static scene gets dramatically cheaper
with the fast path on, and a home with every feature off is bit-for-bit the
home that never heard of the fast path.
"""

import pytest

from repro.apps import fitness_pipeline_config, install_fitness_services
from repro.core import VideoPipe
from repro.pipeline import PerfConfig


def run_fitness(recognizer, perf, static_scene, fps=30.0, duration=6.0,
                seed=11):
    home = VideoPipe.paper_testbed(seed=seed)
    if perf is not None:
        home.enable_fast_path(perf)
    install_fitness_services(home, recognizer=recognizer)
    pipeline = home.deploy_pipeline(fitness_pipeline_config(
        fps=fps, duration_s=duration, static_scene=static_scene
    ))
    home.run(until=duration + 1.0)
    return home, pipeline


def fingerprint(pipeline):
    return (
        pipeline.metrics.counter("frames_completed"),
        tuple(round(v, 12) for v in pipeline.metrics.total_latencies),
    )


class TestFastPath:
    def test_static_scene_speedup(self, fitness_recognizer):
        _, off = run_fitness(fitness_recognizer, None, static_scene=True)
        home, on = run_fitness(fitness_recognizer, PerfConfig(),
                               static_scene=True)
        f_off = off.metrics.throughput_fps(7.0, warmup_s=2.0)
        f_on = on.metrics.throughput_fps(7.0, warmup_s=2.0)
        assert f_on >= 1.5 * f_off
        stats = home.perf_stats()
        assert stats["dedup"]["ratio"] > 0.9  # frozen feed collapses
        assert stats["cache"]["hit_rate"] > 0.5
        assert stats["cache"]["by_service"]["pose_detector"]["hits"] > 0

    def test_cache_hits_surface_in_pipeline_metrics(self, fitness_recognizer):
        _, on = run_fitness(fitness_recognizer, PerfConfig(),
                            static_scene=True)
        assert on.metrics.counter("service_cache_hits.pose_detector") > 0

    def test_dynamic_scene_still_correct(self, fitness_recognizer):
        """Moving content: nothing to dedup, but results stay right."""
        home, on = run_fitness(fitness_recognizer, PerfConfig(),
                               static_scene=False)
        assert on.metrics.counter("frames_completed") > 0
        assert home.perf_stats()["dedup"]["ratio"] < 0.5

    def test_all_features_off_reproduces_seed_exactly(self, fitness_recognizer):
        """PerfConfig with everything disabled is indistinguishable from
        never enabling the fast path: same floats, same frame count."""
        disabled = PerfConfig(frame_dedup=False, result_cache=False,
                              batching=False)
        assert not disabled.any_enabled
        _, baseline = run_fitness(fitness_recognizer, None, static_scene=False)
        _, gated = run_fitness(fitness_recognizer, disabled, static_scene=False)
        assert fingerprint(baseline) == fingerprint(gated)

    def test_fast_path_on_is_deterministic(self, fitness_recognizer):
        first = fingerprint(run_fitness(fitness_recognizer, PerfConfig(),
                                        static_scene=True)[1])
        second = fingerprint(run_fitness(fitness_recognizer, PerfConfig(),
                                         static_scene=True)[1])
        assert first == second

    def test_static_scene_total_duration_times_each_frame(
            self, fitness_recognizer):
        """With dedup on, a static scene's frames all resolve to the first
        stored copy; the display must still time each frame from its own
        capture. A frame waits at most one interval in the source buffer
        before admission, so its capture-to-display time is bounded by the
        admission-to-completion latency plus one frame interval."""
        fps = 30.0
        home, on = run_fitness(fitness_recognizer, PerfConfig(),
                               static_scene=True, fps=fps)
        assert home.perf_stats()["dedup"]["ratio"] > 0.9
        totals = on.metrics.stage_samples("total_duration")
        latencies = on.metrics.total_latencies
        assert totals and latencies
        assert max(totals) <= max(latencies) + 1.0 / fps + 1e-9

    def test_perf_config_validation(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            PerfConfig(max_batch=0)
        with pytest.raises(ConfigError):
            PerfConfig(cache_max_entries=0)
        with pytest.raises(ConfigError):
            PerfConfig(max_wait_s=-0.001)
        with pytest.raises(ConfigError):
            PerfConfig(dedup_retain_limit=-1)
