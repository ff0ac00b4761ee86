"""Unit tests for the topology and routing."""

import pytest

from repro.errors import LinkDown, NetworkError
from repro.net import LinkSpec, Topology
from repro.net import topology as topology_module
from repro.sim import Kernel, RngStreams


@pytest.fixture
def kernel():
    return Kernel()


def star(kernel):
    """The paper's testbed: phone, desktop and TV on one Wi-Fi network."""
    topo = Topology(kernel, RngStreams(seed=1))
    topo.add_wifi("wifi", LinkSpec(latency_s=0.002, jitter_cv=0.0, bandwidth_bps=100e6))
    for device in ["phone", "desktop", "tv"]:
        topo.attach(device, "wifi")
    return topo


class TestConstruction:
    def test_devices_listed(self, kernel):
        topo = star(kernel)
        assert sorted(topo.devices()) == ["desktop", "phone", "tv"]
        assert topo.has_device("phone")
        assert not topo.has_device("wifi")  # the AP is not a device

    def test_duplicate_wifi_rejected(self, kernel):
        topo = star(kernel)
        with pytest.raises(NetworkError):
            topo.add_wifi("wifi")

    def test_attach_to_unknown_ap_rejected(self, kernel):
        topo = Topology(kernel)
        with pytest.raises(NetworkError):
            topo.attach("phone", "nowhere")

    def test_wired_link(self, kernel):
        topo = Topology(kernel, RngStreams(seed=1))
        topo.add_wired("a", "b", LinkSpec(jitter_cv=0.0))
        assert len(topo.path_links("a", "b")) == 1


class TestRouting:
    def test_same_device_uses_loopback(self, kernel):
        topo = star(kernel)
        links = topo.path_links("phone", "phone")
        assert len(links) == 1
        assert "loopback" in links[0].name

    def test_loopback_is_cached(self, kernel):
        topo = star(kernel)
        assert topo.path_links("tv", "tv")[0] is topo.path_links("tv", "tv")[0]

    def test_cross_device_is_two_hops_via_ap(self, kernel):
        topo = star(kernel)
        links = topo.path_links("phone", "desktop")
        assert len(links) == 2

    def test_unknown_device_raises(self, kernel):
        topo = star(kernel)
        with pytest.raises(LinkDown):
            topo.path_links("phone", "fridge")

    def test_partitioned_devices_raise(self, kernel):
        topo = Topology(kernel, RngStreams(seed=1))
        topo.add_device("a")
        topo.add_device("b")
        with pytest.raises(LinkDown):
            topo.path_links("a", "b")


class TestTransfer:
    def test_two_hop_delay_sums_hops(self, kernel):
        topo = star(kernel)
        done = topo.transfer("phone", "desktop", 45000)
        kernel.run()
        # each hop: 2 ms latency + 3.6 ms airtime
        assert done.value == pytest.approx(2 * (0.002 + 0.0036))

    def test_loopback_is_fast(self, kernel):
        topo = star(kernel)
        done = topo.transfer("phone", "phone", 45000)
        kernel.run()
        assert done.value < 0.001

    def test_shared_wifi_medium_contends_across_devices(self, kernel):
        topo = Topology(kernel, RngStreams(seed=1))
        topo.add_wifi("wifi", LinkSpec(latency_s=0.0, jitter_cv=0.0, bandwidth_bps=1e6))
        for device in ["a", "b", "c", "d"]:
            topo.attach(device, "wifi")
        # two concurrent transfers, each needs 2 hops of 1 s airtime
        first = topo.transfer("a", "b", 125000)
        second = topo.transfer("c", "d", 125000)
        kernel.run()
        # 4 one-second airtime slots on one shared medium = 4 s total
        assert max(first.value, second.value) == pytest.approx(4.0)

    def test_expected_delay_matches_deterministic_transfer(self, kernel):
        topo = star(kernel)
        expected = topo.expected_delay("phone", "tv", 45000)
        done = topo.transfer("phone", "tv", 45000)
        kernel.run()
        assert done.value == pytest.approx(expected)


class TestRouteCache:
    @pytest.fixture
    def searches(self, monkeypatch):
        """Count the shortest-path searches the topology runs."""
        calls = []
        search = topology_module.nx.shortest_path

        def counting(graph, src, dst):
            calls.append((src, dst))
            return search(graph, src, dst)

        monkeypatch.setattr(topology_module.nx, "shortest_path", counting)
        return calls

    def test_route_is_searched_once(self, kernel, searches):
        topo = star(kernel)
        first = topo.path_links("phone", "desktop")
        assert topo.path_links("phone", "desktop") is first
        assert searches == [("phone", "desktop")]

    @pytest.mark.parametrize("change", [
        lambda topo: topo.add_device("fridge"),
        lambda topo: topo.add_wifi("wifi2"),
        lambda topo: topo.attach("fridge", "wifi"),
        lambda topo: topo.add_cloud("cloud"),
        lambda topo: topo.add_wired("tv", "desktop"),
        lambda topo: topo.partition("tv"),
        lambda topo: topo.heal("tv"),
    ], ids=["add_device", "add_wifi", "attach", "add_cloud", "add_wired",
            "partition", "heal"])
    def test_every_change_forces_a_fresh_route(self, kernel, searches, change):
        topo = star(kernel)
        topo.path_links("phone", "desktop")
        change(topo)
        topo.path_links("phone", "desktop")
        assert searches == [("phone", "desktop")] * 2

    def test_new_link_replaces_cached_route(self, kernel):
        topo = star(kernel)
        assert len(topo.path_links("phone", "desktop")) == 2
        topo.add_wired("phone", "desktop", LinkSpec(jitter_cv=0.0))
        assert len(topo.path_links("phone", "desktop")) == 1

    def test_partition_and_heal_reroute(self, kernel):
        topo = star(kernel)
        route = topo.path_links("phone", "desktop")
        topo.partition("desktop")
        with pytest.raises(LinkDown):
            topo.path_links("phone", "desktop")
        topo.heal("desktop")
        assert topo.path_links("phone", "desktop") == route

    def test_missing_route_is_not_cached(self, kernel, searches):
        topo = Topology(kernel, RngStreams(seed=1))
        topo.add_device("a")
        topo.add_device("b")
        for _ in range(2):
            with pytest.raises(LinkDown):
                topo.path_links("a", "b")
        assert searches == [("a", "b")] * 2
