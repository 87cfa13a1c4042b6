"""Route cache: ``Network.route`` answers from a cache that every
routing-visible topology change empties.

The differential test drives random topologies through every way there is
to change them and checks each answer against an uncached Dijkstra
written here, so a cache that misses any one invalidation fails.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LinkDownError, NetworkError, NodeDownError
from repro.net import EventScheduler, Network, Transport
from repro.psf.monitor import EnvironmentMonitor
from repro.switchboard.rpc import PlainRpcEndpoint

PROBE = 1024
LEAVES = 23


class Echo:
    def ping(self, value):
        return value


def reference_cost(net: Network, src: str, dst: str) -> float:
    """Cost of the cheapest live route, computed from the public topology;
    raises the error ``shortest_path`` must raise when there is none."""
    nodes = {node.name: node for node in net.nodes()}
    if src not in nodes or dst not in nodes:
        raise NetworkError("unknown endpoint")
    if not nodes[src].up or not nodes[dst].up:
        raise NodeDownError("endpoint down")
    edges: dict[str, list[tuple[str, float]]] = {name: [] for name in nodes}
    for link in net.links():
        if link.up and nodes[link.a].up and nodes[link.b].up:
            weight = link.transfer_delay(PROBE)
            edges[link.a].append((link.b, weight))
            edges[link.b].append((link.a, weight))
    best = {src: 0.0}
    heap = [(0.0, src)]
    while heap:
        cost, here = heapq.heappop(heap)
        if here == dst:
            return cost
        if cost > best[here]:
            continue
        for there, weight in edges[here]:
            if cost + weight < best.get(there, float("inf")):
                best[there] = cost + weight
                heapq.heappush(heap, (cost + weight, there))
    raise LinkDownError("no route")


def assert_matches_reference(net: Network, src: str, dst: str) -> None:
    try:
        expected = reference_cost(net, src, dst)
    except NetworkError as exc:
        with pytest.raises(type(exc)) as raised:
            net.shortest_path(src, dst)
        assert type(raised.value) is type(exc)
        return
    path = net.shortest_path(src, dst)
    assert path[0] == src and path[-1] == dst
    assert all(net.node(name).up for name in path)
    cost = 0.0
    for a, b in zip(path, path[1:]):
        link = net.link(a, b)
        assert link.up
        cost += link.transfer_delay(PROBE)
    # Ties may pick either route; the cost is the same float either way.
    assert cost == expected


latencies = st.sampled_from([0.001, 0.002, 0.005, 0.02, 0.08])
bandwidths = st.sampled_from([1e5, 1e6, 1e9])


@st.composite
def connected_topology(draw):
    n = draw(st.integers(2, 10))
    nodes = [f"n{i}" for i in range(n)]
    # A random spanning tree keeps it connected; extra edges add choices.
    edges = {(nodes[draw(st.integers(0, i - 1))], nodes[i]) for i in range(1, n)}
    possible = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    edges |= set(draw(st.lists(st.sampled_from(possible), max_size=n)))
    edges = {tuple(sorted(edge)) for edge in edges}
    return nodes, [
        (a, b, draw(latencies), draw(bandwidths)) for a, b in sorted(edges)
    ]


def build(nodes, edges) -> Network:
    net = Network()
    for name in nodes:
        net.add_node(name)
    for a, b, latency, bandwidth in edges:
        net.add_link(a, b, latency_s=latency, bandwidth_bps=bandwidth)
    return net


OPS = (
    "query", "send", "link_up", "link_latency", "link_bandwidth", "node_up",
    "monitor_bandwidth", "monitor_latency", "monitor_security", "monitor_link_up",
    "monitor_loss", "monitor_node_up", "add_node", "add_link",
)
INVALIDATING = {
    "link_up", "link_latency", "link_bandwidth", "node_up", "monitor_bandwidth",
    "monitor_latency", "monitor_link_up", "monitor_node_up", "add_node", "add_link",
}


class TestInvalidationDifferential:
    @settings(max_examples=120, deadline=None)
    @given(topology=connected_topology(), data=st.data())
    def test_every_answer_matches_uncached_dijkstra(self, topology, data):
        nodes, edges = topology
        net = build(nodes, edges)
        monitor = EnvironmentMonitor(net)
        scheduler = EventScheduler()
        transport = Transport(net, scheduler)
        names = list(nodes)
        for name in names:
            net.node(name).bind("svc", lambda payload, sender: None)
        for _ in range(data.draw(st.integers(1, 25))):
            op = data.draw(st.sampled_from(OPS))
            link = data.draw(st.sampled_from(net.links()))
            node = data.draw(st.sampled_from(names))
            epoch = net.epoch
            if op == "query":
                a, b = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names))
                assert_matches_reference(net, a, b)
            elif op == "send":
                a, b = data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names))
                try:
                    transport.send(a, b, "svc", b"x")
                except NetworkError:
                    pass
                scheduler.run()
            elif op == "link_up":
                link.up = data.draw(st.booleans())
            elif op == "link_latency":
                link.latency_s = data.draw(latencies)
            elif op == "link_bandwidth":
                link.bandwidth_bps = data.draw(bandwidths)
            elif op == "node_up":
                net.node(node).up = data.draw(st.booleans())
            elif op == "monitor_bandwidth":
                monitor.set_link_bandwidth(link.a, link.b, data.draw(bandwidths))
            elif op == "monitor_latency":
                monitor.set_link_latency(link.a, link.b, data.draw(latencies))
            elif op == "monitor_security":
                monitor.set_link_security(link.a, link.b, data.draw(st.booleans()))
            elif op == "monitor_link_up":
                monitor.set_link_up(link.a, link.b, data.draw(st.booleans()))
            elif op == "monitor_loss":
                monitor.set_link_loss(link.a, link.b, 0.0)
            elif op == "monitor_node_up":
                # The setter skips a no-op, so force a real flip.
                monitor.set_node_up(node, not net.node(node).up)
            elif op == "add_node":
                names.append(f"x{len(names)}")
                net.add_node(names[-1]).bind("svc", lambda payload, sender: None)
            elif op == "add_link":
                pairs = [
                    (a, b) for i, a in enumerate(names) for b in names[i + 1:]
                    if not any(l.endpoints() == {a, b} for l in net.links())
                ]
                if not pairs:
                    continue
                a, b = data.draw(st.sampled_from(pairs))
                net.add_link(a, b, latency_s=data.draw(latencies),
                             bandwidth_bps=data.draw(bandwidths))
            if op in INVALIDATING:
                assert net.epoch > epoch, op
            else:
                assert net.epoch == epoch, op
            for a in names:
                for b in names:
                    assert_matches_reference(net, a, b)


class TestCacheContract:
    def line(self) -> Network:
        return build(["a", "b", "c"], [("a", "b", 0.001, 1e9), ("b", "c", 0.001, 1e9)])

    def test_mutating_a_returned_path_does_not_change_the_next_answer(self):
        net = self.line()
        path = net.shortest_path("a", "c")
        path.reverse()
        path.append("z")
        assert net.shortest_path("a", "c") == ["a", "b", "c"]

    def test_routes_are_immutable_tuples(self):
        path, links = self.line().route("a", "c")
        assert path == ("a", "b", "c")
        assert isinstance(links, tuple) and len(links) == 2

    def test_repeat_lookups_compute_once(self):
        net = self.line()
        for _ in range(5):
            net.route("a", "c")
        assert net.stats.routes_computed == 1

    def test_failures_are_not_cached(self):
        net = self.line()
        net.link("b", "c").up = False
        for _ in range(3):
            with pytest.raises(LinkDownError):
                net.route("a", "c")
        assert net.stats.routes_computed == 3
        net.link("b", "c").up = True
        assert net.shortest_path("a", "c") == ["a", "b", "c"]

    def test_security_and_loss_keep_the_cache(self):
        net = self.line()
        net.route("a", "c")
        link = net.link("a", "b")
        link.secure = False
        link.loss_rate = 0.5
        link.properties["tier"] = "wan"
        net.route("a", "c")
        assert net.stats.routes_computed == 1

    def test_in_flight_frame_reroutes_after_a_change(self):
        net = build(
            ["a", "b", "c"],
            [("a", "b", 0.001, 1e9), ("b", "c", 0.001, 1e9), ("a", "c", 0.1, 1e9)],
        )
        scheduler = EventScheduler()
        transport = Transport(net, scheduler)
        got = []
        net.node("c").bind("svc", lambda payload, sender: got.append(payload))
        transport.send("a", "c", "svc", b"x")
        net.link("a", "b").up = False
        scheduler.run()
        assert got == [b"x"]
        assert transport.stats.messages_rerouted == 1


class TestRoutesPerCall:
    def test_a_thousand_calls_route_twice(self):
        net = Network()
        net.add_node("server")
        for i in range(LEAVES):
            net.add_node(f"leaf-{i}")
            net.add_link(f"leaf-{i}", "server", latency_s=0.001)
        scheduler = EventScheduler()
        transport = Transport(net, scheduler)
        server = PlainRpcEndpoint(transport, "server")
        server.exporter.export("echo", Echo())
        client = PlainRpcEndpoint(transport, "leaf-0")
        for i in range(1000):
            assert client.call_sync("server", "echo", "ping", [i]) == i
        # One route for the requests, one for the replies.
        assert net.stats.routes_computed == 2
        link = net.link("leaf-0", "server")
        link.up = False
        link.up = True
        assert client.call_sync("server", "echo", "ping", [0]) == 0
        assert net.stats.routes_computed == 4
