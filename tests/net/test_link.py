"""Unit tests for the link model."""

import random

import pytest

from repro.net import Link, LinkSpec, Topology
from repro.sim import Kernel, Resource, RngStreams
from repro.sim.rng import lognormal_around


@pytest.fixture
def kernel():
    return Kernel()


def rng():
    return RngStreams(seed=1).stream("test-link")


class TestLinkSpec:
    def test_transmission_time(self):
        spec = LinkSpec(bandwidth_bps=100e6)
        # 45 KB at 100 Mbit/s = 3.6 ms
        assert spec.transmission_time(45000) == pytest.approx(0.0036)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(latency_s=-1)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth_bps=0)
        with pytest.raises(ValueError):
            LinkSpec(loss_prob=1.5)


class TestLinkTransfer:
    def test_deterministic_delay_without_jitter(self, kernel):
        spec = LinkSpec(latency_s=0.002, jitter_cv=0.0, bandwidth_bps=100e6)
        link = Link(kernel, spec, rng())
        done = link.transfer(45000)
        kernel.run()
        assert done.value == pytest.approx(0.002 + 0.0036)

    def test_transfers_serialize_on_medium(self, kernel):
        spec = LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e6)
        link = Link(kernel, spec, rng())
        first = link.transfer(125000)  # 1 second of airtime
        second = link.transfer(125000)
        kernel.run()
        assert first.value == pytest.approx(1.0)
        assert second.value == pytest.approx(2.0)

    def test_shared_medium_couples_two_links(self, kernel):
        spec = LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e6)
        medium = Resource(kernel, 1, "shared")
        link_a = Link(kernel, spec, rng(), medium=medium)
        link_b = Link(kernel, spec, rng(), medium=medium)
        first = link_a.transfer(125000)
        second = link_b.transfer(125000)  # must wait for link_a's airtime
        kernel.run()
        assert first.value == pytest.approx(1.0)
        assert second.value == pytest.approx(2.0)

    def test_private_media_do_not_couple(self, kernel):
        spec = LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e6)
        link_a = Link(kernel, spec, rng())
        link_b = Link(kernel, spec, rng())
        first = link_a.transfer(125000)
        second = link_b.transfer(125000)
        kernel.run()
        assert first.value == pytest.approx(1.0)
        assert second.value == pytest.approx(1.0)

    def test_loss_adds_retransmit_penalty(self, kernel):
        spec = LinkSpec(
            latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e9,
            loss_prob=0.999999, retransmit_penalty_s=0.5,
        )
        link = Link(kernel, spec, rng())
        done = link.transfer(1000)
        kernel.run()
        assert done.value >= 0.5
        assert link.retransmits == 1

    def test_counters(self, kernel):
        link = Link(kernel, LinkSpec(jitter_cv=0.0), rng())
        link.transfer(100)
        link.transfer(200)
        kernel.run()
        assert link.messages_sent == 2
        assert link.bytes_sent == 300

    def test_expected_delay(self):
        spec = LinkSpec(latency_s=0.002, jitter_cv=0.3, bandwidth_bps=100e6)
        link = Link(Kernel(), spec, rng())
        assert link.expected_delay(45000) == pytest.approx(0.0056)

    def test_jitter_produces_variation_with_correct_mean(self, kernel):
        spec = LinkSpec(latency_s=0.010, jitter_cv=0.3, bandwidth_bps=1e12)
        link = Link(kernel, spec, rng())
        signals = [link.transfer(1) for _ in range(400)]
        kernel.run()
        # arrival deltas ~ latency draws; mean should be near 10 ms
        arrivals = sorted(sig.value for sig in signals)
        assert min(arrivals) != max(arrivals)
        mean = sum(arrivals) / len(arrivals)
        assert mean == pytest.approx(0.010, rel=0.15)


class TestContendedLink:
    def test_retransmits_are_counted_and_delay_the_queue(self, kernel):
        spec = LinkSpec(latency_s=0.25, jitter_cv=0.0, bandwidth_bps=1e6,
                        loss_prob=0.999999, retransmit_penalty_s=0.5)
        link = Link(kernel, spec, rng())
        arrivals = [link.transfer(125000) for _ in range(3)]  # 1 s airtime
        kernel.run()
        # each transmission holds the medium for airtime + penalty; the
        # latency overlaps the next transmission
        assert [a.value for a in arrivals] == pytest.approx([1.75, 3.25, 4.75])
        assert link.retransmits == 3
        assert link.messages_sent == 3
        assert link.bytes_sent == 375000
        assert link.medium.in_use == 0

    def test_extra_latency_is_added_after_the_medium_is_freed(self, kernel):
        spec = LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e6)
        link = Link(kernel, spec, rng())
        link.extra_latency_s = 2.0
        first = link.transfer(125000)
        second = link.transfer(125000)
        kernel.run()
        assert first.value == pytest.approx(3.0)
        assert second.value == pytest.approx(4.0)

    def test_a_transfer_costs_two_events_and_spawns_no_process(
            self, kernel, monkeypatch):
        link = Link(kernel, LinkSpec(jitter_cv=0.0), rng())
        monkeypatch.setattr(kernel, "process", None)  # any spawn would fail
        first = link.transfer(1000)
        assert kernel.pending_events == 1  # end of airtime
        link.transfer(1000)  # queued behind the first: schedules nothing
        assert kernel.pending_events == 1
        kernel.run()
        assert first.succeeded and link.messages_sent == 2


def chain_topology(kernel, seed):
    """phone and tv share one Wi-Fi medium; tv -- x -- y are wired, so
    phone -> y crosses four links and tv -> y three."""
    topology = Topology(kernel, RngStreams(seed=seed))
    wifi = LinkSpec(latency_s=0.0012, jitter_cv=0.3, bandwidth_bps=120e6,
                    loss_prob=0.2, retransmit_penalty_s=0.01)
    topology.add_wifi("ap", wifi)
    topology.attach("phone", "ap")
    topology.attach("tv", "ap")
    wired = LinkSpec(latency_s=0.0004, jitter_cv=0.2, bandwidth_bps=50e6,
                     loss_prob=0.1, retransmit_penalty_s=0.005)
    topology.add_wired("tv", "x", wired)
    topology.add_wired("x", "y", wired)
    return topology


class TestRoutes:
    def test_three_hop_route_arrival_sums_its_hops(self, kernel):
        spec = LinkSpec(latency_s=0.002, jitter_cv=0.0, bandwidth_bps=8e6)
        topology = Topology(kernel, RngStreams(seed=1))
        topology.add_wired("a", "b", spec)
        topology.add_wired("b", "c", spec)
        topology.add_wired("c", "d", spec)
        assert len(topology.path_links("a", "d")) == 3
        done = topology.transfer("a", "d", 10000)  # 10 ms airtime per hop
        kernel.run()
        assert done.value == pytest.approx(3 * (0.010 + 0.002))
        assert done.value == pytest.approx(topology.expected_delay("a", "d", 10000))

    def test_hops_chain_without_events_in_between(self, kernel, monkeypatch):
        spec = LinkSpec(latency_s=0.002, jitter_cv=0.0)
        topology = Topology(kernel, RngStreams(seed=1))
        topology.add_wired("a", "b", spec)
        topology.add_wired("b", "c", spec)
        topology.add_wired("c", "d", spec)
        monkeypatch.setattr(kernel, "process", None)  # any spawn would fail
        done = topology.transfer("a", "d", 1000)
        steps = 0
        while kernel.step():
            steps += 1
        assert done.succeeded
        assert steps == 6  # airtime end + arrival, per hop


def reference_hop(link, nbytes):
    """The process-based hop model the callback chain must match."""
    grant = yield link.medium.request()
    tx_time = link.spec.transmission_time(nbytes)
    if link.spec.loss_prob > 0 and link.rng.random() < link.spec.loss_prob:
        tx_time += link.spec.retransmit_penalty_s
        link.retransmits += 1
    yield tx_time
    link.medium.release(grant)
    link.messages_sent += 1
    link.bytes_sent += nbytes
    latency = lognormal_around(link.rng, link.spec.latency_s,
                               link.spec.jitter_cv)
    yield latency + link.extra_latency_s
    return link.kernel.now


def reference_route(kernel, links, nbytes):
    """The process-based relay: one hop process after another."""
    for link in links:
        yield kernel.process(reference_hop(link, nbytes))
    return kernel.now


@pytest.mark.parametrize("seed", range(8))
def test_routes_match_process_reference_model(seed):
    """Random transfers between random devices, started at distinct random
    times over a shared lossy Wi-Fi medium and a wired chain, arrive at
    the same instants (and count the same retransmits) as under the
    process-per-hop model, at the same seed."""
    plan_rng = random.Random(seed)
    devices = ["phone", "tv", "x", "y"]
    plan = sorted(
        (plan_rng.uniform(0.0, 0.5), *plan_rng.sample(devices, 2),
         plan_rng.choice((200, 20_000, 90_000)))
        for _ in range(80)
    )

    def run(reference):
        kernel = Kernel()
        topology = chain_topology(kernel, seed=seed)
        arrivals = []

        def start(index, src, dst, nbytes):
            if reference:
                links = topology.path_links(src, dst)
                done = kernel.process(reference_route(kernel, links, nbytes)).done
            else:
                done = topology.transfer(src, dst, nbytes)
            done.wait(lambda value, _e: arrivals.append((index, value)))

        for index, (at, src, dst, nbytes) in enumerate(plan):
            kernel.schedule(at, start, index, src, dst, nbytes)
        kernel.run()
        links = sorted({link for a in devices for b in devices if a != b
                        for link in topology.path_links(a, b)},
                       key=lambda link: link.name)
        counters = [(link.name, link.retransmits, link.messages_sent,
                     link.bytes_sent) for link in links]
        return sorted(arrivals), counters

    changed, reference = run(reference=False), run(reference=True)
    assert changed == reference
    assert sum(c[1] for c in changed[1]) > 0  # the plan did retransmit
