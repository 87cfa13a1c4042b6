"""Simulated multi-domain network: nodes, links, and topology.

Models the paper's evaluation environment (§2.2): three LAN sites with
"fast and reliable links, connected to each other by high latency and
insecure WAN links".  Nodes and links carry property maps — the raw
material that dRBAC credentials translate into application-level
properties (§3.3, node authorization).

The topology changes rarely and frames cross it constantly, so routes are
cached per ``(src, dst)`` until the next change routing can see (see
:class:`Network`); an assignment hook on the node and link classes catches
every such change, whoever makes it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..errors import LinkDownError, NetworkError, NodeDownError

Handler = Callable[[bytes, str], None]
"""Service handler: (payload, sender node name) -> None."""

Route = tuple[tuple[str, ...], tuple["SimLink", ...]]
"""A cached route: the node path and the links between consecutive hops."""


class _RoutedState:
    """Assigning a ``_ROUTED`` field tells the owning ``_network`` (set by
    :class:`Network` once it constructs the object) that its topology
    changed."""

    _ROUTED: frozenset[str] = frozenset()
    _network: Network | None = None

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name in self._ROUTED and self._network is not None:
            self._network._topology_changed()


@dataclass
class SimNode(_RoutedState):
    """A host in the simulated network.

    ``properties`` holds domain-local facts ("vendor": "Dell", "os":
    "Linux", "cpu": 100) that Guards encode as dRBAC credentials; the
    framework never reads them directly for authorization decisions.
    """

    name: str
    domain: str = ""
    properties: dict = field(default_factory=dict)
    up: bool = True
    """Crash-stop flag: a down node neither routes nor delivers; the fault
    injector flips it (via the environment monitor, so planners re-plan)."""
    _services: dict[str, Handler] = field(default_factory=dict, repr=False)
    _ROUTED = frozenset({"up"})

    def bind(self, service: str, handler: Handler) -> None:
        """Register (or replace) the handler for a named service port."""
        self._services[service] = handler

    def unbind(self, service: str) -> None:
        self._services.pop(service, None)

    def deliver(self, service: str, payload: bytes, sender: str) -> None:
        if not self.up:
            raise NodeDownError(f"node {self.name} is down")
        handler = self._services.get(service)
        if handler is None:
            raise NetworkError(
                f"node {self.name} has no service {service!r}"
            )
        handler(payload, sender)

    def has_service(self, service: str) -> bool:
        return service in self._services


@dataclass
class SimLink(_RoutedState):
    """A bidirectional link with latency, bandwidth, and a security flag.

    ``secure=False`` marks the paper's "insecure WAN links": registered
    eavesdroppers observe every frame crossing such a link, which is how
    tests demonstrate that Switchboard (or an encryptor/decryptor pair)
    is required for privacy.
    """

    a: str
    b: str
    latency_s: float = 0.001
    bandwidth_bps: float = 1e9
    secure: bool = True
    up: bool = True
    loss_rate: float = 0.0
    """Probability each frame crossing this link is dropped (failure
    injection; the transport draws from its seeded RNG)."""
    properties: dict = field(default_factory=dict)
    bytes_carried: int = field(default=0, repr=False)
    frames_dropped: int = field(default=0, repr=False)
    batches_carried: int = field(default=0, repr=False)
    """Multi-frame batches that crossed this link (frame batching)."""
    _ROUTED = frozenset({"up", "latency_s", "bandwidth_bps"})

    def endpoints(self) -> frozenset[str]:
        return frozenset((self.a, self.b))

    def transfer_delay(self, nbytes: int) -> float:
        """Propagation latency plus serialization time for ``nbytes``."""
        if self.bandwidth_bps <= 0:
            raise NetworkError(f"link {self.a}<->{self.b} has no bandwidth")
        return self.latency_s + (nbytes * 8) / self.bandwidth_bps


@dataclass(slots=True)
class RouteStats:
    routes_computed: int = 0
    """Dijkstra runs: route-cache misses that had a route to search for."""


class Network:
    """Topology container with cached shortest-path routing.

    Routing minimizes per-byte delay for a nominal 1 KiB frame, which makes
    low-latency high-bandwidth paths preferred — the same bias the paper's
    planner exploits when deciding where to place caches.

    :meth:`route` answers ``(src, dst)`` from a cache of immutable
    ``(path, links)`` tuples.  An entry lives until the next topology
    change — ``add_node``, ``add_link``, or an assignment to a node's
    ``up`` or a link's ``up``/``latency_s``/``bandwidth_bps`` — which bumps
    :attr:`epoch` and empties the cache.  ``secure``, ``loss_rate`` and
    properties do not affect routing and keep the cache.  Failed lookups
    are not cached: they search again and raise again.
    """

    _ROUTE_PROBE_BYTES = 1024

    def __init__(self) -> None:
        self._nodes: dict[str, SimNode] = {}
        self._links: dict[frozenset[str], SimLink] = {}
        self._adjacency: dict[str, dict[str, SimLink]] = {}
        """node -> {neighbour: the link between them}"""
        self._routes: dict[tuple[str, str], Route] = {}
        self.epoch = 0
        """Bumped on every topology change that routing can see."""
        self.stats = RouteStats()

    def _topology_changed(self) -> None:
        self.epoch += 1
        self._routes.clear()

    # -- construction --------------------------------------------------------

    def add_node(
        self, name: str, *, domain: str = "", properties: dict | None = None
    ) -> SimNode:
        if name in self._nodes:
            raise NetworkError(f"duplicate node {name!r}")
        node = SimNode(name=name, domain=domain, properties=dict(properties or {}))
        node._network = self
        self._nodes[name] = node
        self._adjacency[name] = {}
        self._topology_changed()
        return node

    def add_link(
        self,
        a: str,
        b: str,
        *,
        latency_s: float = 0.001,
        bandwidth_bps: float = 1e9,
        secure: bool = True,
        loss_rate: float = 0.0,
        properties: dict | None = None,
    ) -> SimLink:
        if a not in self._nodes or b not in self._nodes:
            raise NetworkError(f"link endpoints must exist: {a!r}, {b!r}")
        if a == b:
            raise NetworkError("self-links are not allowed")
        if not 0.0 <= loss_rate <= 1.0:
            raise NetworkError(f"loss_rate must be within [0, 1], got {loss_rate}")
        key = frozenset((a, b))
        if key in self._links:
            raise NetworkError(f"duplicate link {a!r}<->{b!r}")
        link = SimLink(
            a=a,
            b=b,
            latency_s=latency_s,
            bandwidth_bps=bandwidth_bps,
            secure=secure,
            loss_rate=loss_rate,
            properties=dict(properties or {}),
        )
        link._network = self
        self._links[key] = link
        self._adjacency[a][b] = link
        self._adjacency[b][a] = link
        self._topology_changed()
        return link

    # -- lookup ----------------------------------------------------------------

    def node(self, name: str) -> SimNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def link(self, a: str, b: str) -> SimLink:
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise NetworkError(f"no link {a!r}<->{b!r}") from None

    def nodes(self) -> list[SimNode]:
        return list(self._nodes.values())

    def links(self) -> list[SimLink]:
        return list(self._links.values())

    def nodes_in_domain(self, domain: str) -> list[SimNode]:
        return [n for n in self._nodes.values() if n.domain == domain]

    # -- routing -----------------------------------------------------------------

    def shortest_path(self, src: str, dst: str) -> list[str]:
        """The cached route's node path, as a fresh list."""
        return list(self.route(src, dst)[0])

    def route(self, src: str, dst: str) -> Route:
        """``(path, links)`` from ``src`` to ``dst``; every hop is live.

        Raises when no route exists (a crash-stopped node cannot
        originate, relay, or sink).
        """
        cached = self._routes.get((src, dst))
        if cached is None:
            path = tuple(self._dijkstra(src, dst))
            links = tuple(self.link(a, b) for a, b in zip(path, path[1:]))
            cached = self._routes[(src, dst)] = (path, links)
        return cached

    def _dijkstra(self, src: str, dst: str) -> list[str]:
        """Dijkstra over live links and live nodes, uncached."""
        if src not in self._nodes or dst not in self._nodes:
            raise NetworkError(f"unknown endpoint: {src!r} or {dst!r}")
        if not self._nodes[src].up or not self._nodes[dst].up:
            raise NodeDownError(f"no route from {src!r} to {dst!r}: endpoint down")
        if src == dst:
            return [src]
        self.stats.routes_computed += 1
        dist: dict[str, float] = {src: 0.0}
        prev: dict[str, str] = {}
        heap: list[tuple[float, str]] = [(0.0, src)]
        visited: set[str] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            if u == dst:
                break
            for v, link in self._adjacency[u].items():
                if not link.up or not self._nodes[v].up:
                    continue
                nd = d + link.transfer_delay(self._ROUTE_PROBE_BYTES)
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        if dst not in dist:
            raise LinkDownError(f"no route from {src!r} to {dst!r}")
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def path_links(self, path: list[str]) -> list[SimLink]:
        return [self.link(a, b) for a, b in zip(path, path[1:])]

    def path_delay(self, path: list[str], nbytes: int) -> float:
        return sum(link.transfer_delay(nbytes) for link in self.path_links(path))

    def path_is_secure(self, path: Iterable[str] | list[str]) -> bool:
        path = list(path)
        return all(link.secure for link in self.path_links(path))

    def min_bandwidth(self, path: list[str]) -> float:
        links = self.path_links(path)
        return min((l.bandwidth_bps for l in links), default=float("inf"))
