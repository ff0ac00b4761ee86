"""Unit tests for the CPU model and Device."""

import random

import pytest

from repro.devices import Cpu, Device, DeviceSpec, desktop, smart_tv_4k
from repro.errors import DeviceError
from repro.sim import Kernel, RngStreams
from repro.sim.rng import lognormal_around


@pytest.fixture
def kernel():
    return Kernel()


def make_cpu(kernel, factor=1.0, cores=2, jitter=0.0):
    spec = DeviceSpec(name="dev", cpu_factor=factor, cores=cores,
                      compute_jitter_cv=jitter)
    return Cpu(kernel, spec, RngStreams(seed=1).stream("cpu"))


class TestCpu:
    def test_job_takes_scaled_time(self, kernel):
        cpu = make_cpu(kernel, factor=2.5)
        done = cpu.execute(0.040)
        kernel.run()
        assert done.value == pytest.approx(0.100)
        assert kernel.now == pytest.approx(0.100)

    def test_fixed_jobs_ignore_cpu_factor(self, kernel):
        cpu = make_cpu(kernel, factor=2.5)
        done = cpu.execute_fixed(0.040)
        kernel.run()
        assert done.value == pytest.approx(0.040)

    def test_zero_cost_jobs_complete_instantly(self, kernel):
        cpu = make_cpu(kernel)
        done = cpu.execute(0.0)
        kernel.run()
        assert done.value == 0.0

    def test_contention_queues_beyond_cores(self, kernel):
        cpu = make_cpu(kernel, cores=2)
        jobs = [cpu.execute(1.0) for _ in range(4)]
        kernel.run()
        assert all(j.succeeded for j in jobs)
        # 4 one-second jobs on 2 cores = 2 seconds
        assert kernel.now == pytest.approx(2.0)

    def test_jitter_varies_durations(self, kernel):
        cpu = make_cpu(kernel, cores=100, jitter=0.2)
        jobs = [cpu.execute(0.05) for _ in range(50)]
        kernel.run()
        durations = {j.value for j in jobs}
        assert len(durations) > 40

    def test_stats(self, kernel):
        cpu = make_cpu(kernel)
        cpu.execute(0.5)
        cpu.execute(0.25)
        kernel.run()
        assert cpu.jobs_completed == 2
        assert cpu.busy_seconds == pytest.approx(0.75)


def completions(kernel, jobs):
    """Record ``(label, finish time)`` as each job's signal resolves."""
    order = []
    for label, job in jobs:
        job.wait(lambda _v, _e, label=label: order.append((label, kernel.now)))
    return order


class TestContendedCpu:
    def test_queued_jobs_take_cores_by_priority_then_fifo(self, kernel):
        cpu = make_cpu(kernel, cores=1)
        jobs = [("running", cpu.execute(1.0))]
        jobs += [(label, cpu.execute(1.0, priority=priority))
                 for label, priority in (("low", 2), ("first0", 0),
                                         ("mid", 1), ("second0", 0))]
        order = completions(kernel, jobs)
        kernel.run()
        assert order == [("running", 1.0), ("first0", 2.0), ("second0", 3.0),
                         ("mid", 4.0), ("low", 5.0)]

    def test_zero_duration_jobs(self, kernel):
        cpu = make_cpu(kernel, cores=1)
        free = cpu.execute(0.0)
        assert free.pending  # resolved by an event, never synchronously
        jobs = [("free", free), ("busy", cpu.execute(1.0)),
                ("queued", cpu.execute_fixed(0.0))]
        order = completions(kernel, jobs)
        kernel.run()
        # a zero-cost job still waits for its core
        assert order == [("free", 0.0), ("busy", 1.0), ("queued", 1.0)]
        assert cpu.jobs_completed == 3
        assert cpu.busy_seconds == 1.0
        assert cpu.cores.in_use == 0

    def test_counters_under_contention(self, kernel):
        cpu = make_cpu(kernel, cores=2)
        for seconds in (0.5, 0.25, 1.0, 0.75, 0.5):
            cpu.execute(seconds)
        kernel.run()
        assert cpu.jobs_completed == 5
        assert cpu.busy_seconds == pytest.approx(3.0)
        # the first core to free up takes the next job: 0.5 | 0.25 -> 1.0
        # at 0.25 | 0.75 at 0.5 -> the last 0.5 at 1.25
        assert kernel.now == pytest.approx(1.75)
        assert cpu.cores.in_use == 0

    def test_a_job_costs_one_event_and_spawns_no_process(self, kernel,
                                                         monkeypatch):
        cpu = make_cpu(kernel, cores=1)
        monkeypatch.setattr(kernel, "process", None)  # any spawn would fail
        cpu.execute(1.0)
        assert kernel.pending_events == 1
        cpu.execute(1.0)  # queued: waits for a grant, schedules nothing
        assert kernel.pending_events == 1
        kernel.run()
        assert cpu.jobs_completed == 2


def reference_job(cpu, duration, priority):
    """The process-based job model the callback chain must match: request
    a core, hold it for *duration*, release it, count the job."""
    grant = yield cpu.cores.request(priority=priority)
    yield duration
    cpu.cores.release(grant)
    cpu.jobs_completed += 1
    cpu.busy_seconds += duration
    return duration


@pytest.mark.parametrize("seed", range(8))
def test_jobs_match_process_reference_model(seed):
    """Random jobs (some zero-cost, mixed priorities, fixed and scaled)
    submitted at distinct random times finish at the same instants with
    the same durations as under one process per job, at the same seed."""
    plan_rng = random.Random(seed)
    plan = sorted(
        (plan_rng.uniform(0.0, 2.0), plan_rng.choice((0.0, 0.01, 0.05, 0.2)),
         plan_rng.randrange(3), plan_rng.random() < 0.3)
        for _ in range(60)
    )

    def run(reference):
        kernel = Kernel()
        cpu = make_cpu(kernel, factor=1.7, cores=2, jitter=0.3)
        outcomes = []

        def submit(index, seconds, priority, fixed):
            if not reference:
                job = (cpu.execute_fixed if fixed else cpu.execute)(
                    seconds, priority)
            else:
                # the draw the real call makes, then one process per job
                if not fixed:
                    duration = cpu.sample_duration(seconds)
                elif seconds == 0.0:
                    duration = 0.0
                else:
                    duration = lognormal_around(
                        cpu.rng, seconds, cpu.spec.compute_jitter_cv)
                job = kernel.process(reference_job(cpu, duration, priority)).done
            job.wait(lambda value, _e: outcomes.append(
                (index, kernel.now, value)))

        for index, (at, seconds, priority, fixed) in enumerate(plan):
            kernel.schedule(at, submit, index, seconds, priority, fixed)
        kernel.run()
        return sorted(outcomes), cpu.jobs_completed, cpu.busy_seconds

    assert run(reference=False) == run(reference=True)


class TestDevice:
    def test_device_wiring(self, kernel):
        device = Device(kernel, desktop(), RngStreams(seed=0))
        assert device.name == "desktop"
        assert device.supports_containers
        assert device.frame_store.device == "desktop"

    def test_local_rng_is_deterministic_per_purpose(self, kernel):
        a = Device(kernel, desktop(), RngStreams(seed=0)).local_rng("x").random(3)
        b = Device(Kernel(), desktop(), RngStreams(seed=0)).local_rng("x").random(3)
        assert list(a) == list(b)

    def test_container_service_rejected_on_tv(self, kernel):
        device = Device(kernel, smart_tv_4k(), RngStreams(seed=0))

        class FakeHost:
            service_name = "pose"

        with pytest.raises(DeviceError, match="cannot run containers"):
            device.register_service_host(FakeHost())

    def test_native_service_allowed_anywhere(self, kernel):
        device = Device(kernel, smart_tv_4k(), RngStreams(seed=0))

        class FakeHost:
            service_name = "display"

        device.register_native_service_host(FakeHost())
        assert device.has_service("display")

    def test_duplicate_service_rejected(self, kernel):
        device = Device(kernel, desktop(), RngStreams(seed=0))

        class FakeHost:
            service_name = "pose"

        device.register_service_host(FakeHost())
        with pytest.raises(DeviceError, match="already hosted"):
            device.register_service_host(FakeHost())
