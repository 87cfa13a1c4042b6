"""Deployment planning (§2.1).

"The *planning* module is responsible for selecting amongst valid
application configurations the [one that satisfies] the level of service
requested for the deployment while factoring in application and
network-level constraints. ... Our current planner, Sekitei, combines
regression and progression techniques from classical AI planning."

This planner performs regression search from the client's goal interface.
The search is one lazy enumeration of the option space
(:meth:`Planner._completions`): the first feasible plan is its first
element and the cost-optimal plan is the cheapest of its first ``limit``
elements, so the two are prefixes of the same walk.

* **Type compatibility** drives linkage — a provider is any existing
  instance or deployable component whose implemented port satisfies the
  required interface properties (§2.1).
* **Edge admissibility** enforces network QoS per channel: bandwidth,
  latency, and privacy.  A channel carrying unencrypted payload across an
  insecure link is only admissible over Switchboard; bulk (``rmi``)
  channels across insecure links need an encrypted payload — which is what
  forces the planner to synthesize encryptor/decryptor chains (§2.2).
* **Authorization** is delegated to dRBAC (§3.3): hosting nodes must
  satisfy the component's node constraints ("is node a Mail.Node with
  Secure={true}?"), and the node's domain Guard must grant the component's
  role a CPU budget at least the component's demand.
* **Views** enrich the searchable component set; ``use_views=False``
  ablates them for the E-PLAN experiment.

Candidate providers are ordered progression-style (existing instances
first, then components by require-count, then nodes by proximity to the
consumer), so the first feasible plan found is also a cheap one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from .. import obs
from ..errors import NetworkError, PlanningError
from ..net.simnet import Network
from ..obs import names as metric_names
from .component import ComponentType, Port
from .guard import Guard
from .registrar import Registrar

_instance_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class EdgeRequirement:
    """QoS demanded of one consumer→provider channel."""

    privacy: bool = False
    min_bandwidth_bps: float = 0.0
    max_latency_s: float = math.inf
    channel: str = "any"
    """"any" lets the planner pick Switchboard when privacy demands it;
    "rmi" pins a bulk/plaintext channel; "switchboard" pins a secure one."""
    view_origin: str = ""
    """When set, only instances of that component type may provide this
    edge — a view must be linked to its original object."""

    @staticmethod
    def from_port(port: Port) -> "EdgeRequirement":
        props = port.properties
        return EdgeRequirement(
            privacy=bool(props.get("privacy", False)),
            min_bandwidth_bps=float(props.get("min_bandwidth", 0.0)),
            max_latency_s=float(props.get("max_latency", math.inf)),
            channel=str(props.get("channel", "any")),
            view_origin=str(props.get("view_origin", "")),
        )

    def key(self) -> tuple:
        return (
            self.privacy,
            self.min_bandwidth_bps,
            self.max_latency_s,
            self.channel,
            self.view_origin,
        )


@dataclass(frozen=True, slots=True)
class ServiceRequest:
    """A client's demand: an interface, delivered at a node, with QoS."""

    client: str
    client_node: str
    interface: str
    required_props: tuple[tuple[str, object], ...] = ()
    qos: EdgeRequirement = field(default_factory=EdgeRequirement)

    def props_dict(self) -> dict:
        return dict(self.required_props)


@dataclass(frozen=True, slots=True)
class ExistingInstance:
    """An already-running component the planner may link against."""

    name: str
    node: str
    component: ComponentType


@dataclass(slots=True)
class PlannedComponent:
    instance_id: str
    component: ComponentType
    node: str


@dataclass(slots=True)
class PlannedLink:
    consumer: str
    provider: str
    interface: str
    path: tuple[str, ...]
    mode: str
    """"local" | "rmi" | "switchboard"."""


@dataclass(slots=True)
class DeploymentPlan:
    request: ServiceRequest
    components: list[PlannedComponent]
    links: list[PlannedLink]
    entry_instance: str
    """Instance id / existing-instance name the client binds to."""
    goals_expanded: int = 0
    candidates_examined: int = 0

    def deployed_names(self) -> list[str]:
        return [p.component.name for p in self.components]

    def __str__(self) -> str:
        rows = [
            f"  {p.instance_id}: {p.component.name} @ {p.node}" for p in self.components
        ]
        rows += [
            f"  {l.consumer} --{l.interface}/{l.mode}--> {l.provider}"
            for l in self.links
        ]
        return "plan:\n" + "\n".join(rows)


@dataclass(slots=True)
class _Work:
    """Search effort of one request, counted where the option space is
    walked."""

    goals_expanded: int = 0
    candidates_examined: int = 0
    backtracks: int = 0


_Completion = tuple[tuple[PlannedComponent, ...], tuple[PlannedLink, ...]]
"""The whole sub-tree that satisfies one goal, ready to be concatenated
by the consumer; the first link is always the consumer's own edge."""


class Planner:
    """Regression planner over the registered component set."""

    def __init__(
        self,
        registrar: Registrar,
        network: Network,
        guards: dict[str, Guard],
        *,
        existing: list[ExistingInstance] | None = None,
        use_views: bool = True,
        max_depth: int = 6,
    ) -> None:
        self.registrar = registrar
        self.network = network
        self.guards = guards
        self.existing = list(existing or [])
        self.use_views = use_views
        self.max_depth = max_depth

    # -- public API --------------------------------------------------------

    def plan(
        self, request: ServiceRequest, *, optimize: bool = False
    ) -> DeploymentPlan:
        """Find a feasible deployment or raise :class:`PlanningError`.

        By default that is the first plan :meth:`enumerate_plans` yields.
        With ``optimize=True`` it is the cheapest by :meth:`plan_cost` of
        the first ``limit`` — the Sekitei-flavoured quality/speed trade-off
        ablated by ``tests/paper/test_planner.py``.
        """
        obs.counter(metric_names.PLAN_ATTEMPTS).inc()
        with obs.span(
            "psf.plan", interface=request.interface, optimize=optimize
        ):
            if optimize:
                plans = self.enumerate_plans(request)
            else:
                plans = self.enumerate_plans(request, limit=1)
            if not plans:
                obs.counter(metric_names.PLAN_FAILURES).inc()
                raise PlanningError(
                    f"no deployment delivers {request.interface} at "
                    f"{request.client_node} under {request.qos}"
                )
        obs.counter(metric_names.PLAN_SUCCESS).inc()
        return min(plans, key=self.plan_cost) if optimize else plans[0]

    # -- plan quality ------------------------------------------------------

    def plan_cost(self, plan: DeploymentPlan) -> float:
        """Deployment cost: component instantiations dominate, channel
        path delay breaks ties (1 component ≙ 10 ms of path delay)."""
        delay = 0.0
        for link in plan.links:
            if len(link.path) > 1:
                delay += self.network.path_delay(list(link.path), 1024)
        return 0.010 * len(plan.components) + delay

    def enumerate_plans(
        self, request: ServiceRequest, *, limit: int = 64
    ) -> list[DeploymentPlan]:
        """The first ``limit`` feasible deployments for a request, in
        search order (see the module docstring for the ordering).

        Each plan records the search effort spent up to the moment it was
        found, so the first one's counters are the cost of first-feasible
        planning.
        """
        work = _Work()
        plans = [
            DeploymentPlan(
                request=request,
                components=list(components),
                links=list(links),
                entry_instance=links[0].provider,
                goals_expanded=work.goals_expanded,
                candidates_examined=work.candidates_examined,
            )
            for components, links in itertools.islice(
                self._completions(
                    interface=request.interface,
                    required_props=request.props_dict(),
                    edge=request.qos,
                    consumer="client",
                    consumer_node=request.client_node,
                    depth=0,
                    stack=frozenset(),
                    work=work,
                ),
                limit,
            )
        ]
        if obs.is_enabled():
            obs.histogram(metric_names.PLAN_GOALS_EXPANDED).observe(work.goals_expanded)
            obs.histogram(metric_names.PLAN_CANDIDATES).observe(work.candidates_examined)
            obs.histogram(metric_names.PLAN_BACKTRACKS).observe(work.backtracks)
        return plans

    # -- goal solving -----------------------------------------------------------

    def _completions(
        self,
        *,
        interface: str,
        required_props: dict,
        edge: EdgeRequirement,
        consumer: str,
        consumer_node: str,
        depth: int,
        stack: frozenset,
        work: _Work,
    ) -> Iterator[_Completion]:
        """Yield every completion of one goal, lazily.

        The walk advances only as far as the consumer pulls, so taking
        the first completion costs what a first-feasible search would.
        """
        if depth > self.max_depth:
            return
        goal_key = (interface, consumer_node, edge.key())
        if goal_key in stack:
            return  # would recurse through the same goal
        stack = stack | {goal_key}
        work.goals_expanded += 1

        def link_to(provider: str, provider_node: str, mode: str) -> PlannedLink:
            return PlannedLink(
                consumer=consumer,
                provider=provider,
                interface=interface,
                path=tuple(self._path(consumer_node, provider_node)),
                mode=mode,
            )

        # Option A (progression flavour): link to an existing instance.
        for instance in self._existing_by_proximity(consumer_node):
            if edge.view_origin and instance.component.name != edge.view_origin:
                continue
            port = instance.component.implemented_port(interface)
            if port is None or not port.satisfies(required_props):
                continue
            work.candidates_examined += 1
            mode = self._admissible_mode(consumer_node, instance.node, port, edge)
            if mode is not None:
                yield (), (link_to(instance.name, instance.node, mode),)

        # Option B (regression): deploy a component that implements the goal.
        for component in self._deployable_providers(interface, required_props):
            if edge.view_origin and component.name != edge.view_origin:
                continue
            port = component.implemented_port(interface)
            assert port is not None
            # Bandwidth-transparent relays (encryptor/decryptor) pass the
            # full data stream through: their upstream edges inherit the
            # consumer's bandwidth demand.  Caches absorb it (they serve
            # from local state).
            inherited_bps = (
                edge.min_bandwidth_bps
                if component.properties.get("bandwidth_transparent")
                else 0.0
            )
            sub_goals = []
            for requirement in component.requires:
                sub_edge = EdgeRequirement.from_port(requirement)
                demand = max(sub_edge.min_bandwidth_bps, inherited_bps)
                sub_goals.append(
                    (requirement.interface, replace(sub_edge, min_bandwidth_bps=demand))
                )
            for node in self._candidate_nodes(consumer_node, component):
                work.candidates_examined += 1
                mode = self._admissible_mode(consumer_node, node, port, edge)
                if mode is None or not self._node_authorizes(component, node):
                    continue
                # Tentatively place the component, then regress its needs.
                instance_id = f"p{next(_instance_counter)}"
                placed = PlannedComponent(
                    instance_id=instance_id, component=component, node=node
                )
                entry_link = link_to(instance_id, node, mode)
                completed = False
                for sub_components, sub_links in self._satisfy_all(
                    sub_goals, instance_id, node, depth + 1, stack, work
                ):
                    completed = True
                    yield (placed,) + sub_components, (entry_link,) + sub_links
                if not completed:
                    work.backtracks += 1

    def _satisfy_all(
        self,
        sub_goals: list[tuple[str, EdgeRequirement]],
        instance_id: str,
        node: str,
        depth: int,
        stack: frozenset,
        work: _Work,
    ) -> Iterator[_Completion]:
        """Completions of every required port of one placed component: the
        lazy Cartesian product of each port's completions.

        Sibling sub-goals share no state, so what the remaining ports
        yield does not depend on which completion of the first is taken:
        when they yield nothing for one, they yield nothing for any, and
        retrying the alternatives would only repeat the failure.
        """
        if not sub_goals:
            yield (), ()
            return
        (interface, sub_edge), rest = sub_goals[0], sub_goals[1:]
        for components, links in self._completions(
            interface=interface,
            required_props={},
            edge=sub_edge,
            consumer=instance_id,
            consumer_node=node,
            depth=depth,
            stack=stack,
            work=work,
        ):
            satisfiable = False
            for rest_components, rest_links in self._satisfy_all(
                rest, instance_id, node, depth, stack, work
            ):
                satisfiable = True
                yield components + rest_components, links + rest_links
            if not satisfiable:
                return

    # -- candidate enumeration ------------------------------------------------------

    def _deployable_providers(
        self, interface: str, required_props: dict
    ) -> list[ComponentType]:
        providers = [
            c
            for c in self.registrar.providers_of(interface, required_props)
            if c.deployable and (self.use_views or not c.is_view)
        ]
        # Fewer requirements first: cheaper subtrees get explored first.
        providers.sort(key=lambda c: (len(c.requires), c.cpu_demand, c.name))
        return providers

    def _existing_by_proximity(self, consumer_node: str) -> list[ExistingInstance]:
        # An instance stranded on a crashed host is not reusable — without
        # this filter the "local" fast path could bind a consumer to a dead
        # co-resident provider.
        alive = [i for i in self.existing if self.network.node(i.node).up]
        return sorted(alive, key=lambda i: self._delay(consumer_node, i.node))

    def _candidate_nodes(
        self, consumer_node: str, component: ComponentType | None = None
    ) -> list[str]:
        """Nodes ordered by proximity to the consumer, breaking ties by
        proximity to existing providers of the component's requirements —
        so relays (encryptors) gravitate toward the services they wrap."""
        upstream_nodes: list[str] = []
        if component is not None and component.requires:
            wanted = {p.interface for p in component.requires}
            upstream_nodes = [
                inst.node
                for inst in self.existing
                if any(inst.component.implemented_port(i) for i in wanted)
            ]

        def key(name: str) -> tuple[float, float]:
            to_consumer = self._delay(consumer_node, name)
            to_upstream = min(
                (self._delay(name, up) for up in upstream_nodes), default=0.0
            )
            return (to_consumer + to_upstream, to_consumer)

        # Crash-stopped hosts can neither run components nor be reached;
        # excluding them here is what makes crash-triggered re-planning
        # land the replacement somewhere alive.
        names = [n.name for n in self.network.nodes() if n.up]
        names.sort(key=key)
        return names

    def _path(self, a: str, b: str) -> list[str]:
        if a == b:
            return [a]
        return self.network.shortest_path(a, b)

    def _delay(self, a: str, b: str) -> float:
        """Proximity: the route's delay, infinite when unroutable."""
        try:
            return self.network.path_delay(self._path(a, b), 1024)
        except NetworkError:
            return math.inf

    # -- admissibility -----------------------------------------------------------------

    def _admissible_mode(
        self, consumer_node: str, provider_node: str, port: Port, edge: EdgeRequirement
    ) -> Optional[str]:
        """Pick a channel mode satisfying the edge QoS, or None."""
        if consumer_node == provider_node:
            return "local"
        try:
            path = self._path(consumer_node, provider_node)
        except NetworkError:
            return None
        if self.network.min_bandwidth(path) < edge.min_bandwidth_bps:
            return None
        if self.network.path_delay(path, 1024) > edge.max_latency_s:
            return None
        secure_path = self.network.path_is_secure(path)
        payload_encrypted = bool(port.properties.get("encrypted", False))
        if edge.privacy and not secure_path and not payload_encrypted:
            # Plain payload over an insecure path: only Switchboard saves it.
            if edge.channel in ("any", "switchboard"):
                return "switchboard"
            return None
        if edge.channel == "switchboard":
            return "switchboard"
        return "rmi"

    # -- authorization (§3.3) -------------------------------------------------------------

    def _node_authorizes(self, component: ComponentType, node_name: str) -> bool:
        node = self.network.node(node_name)
        if not node.up:
            return False
        guard = self.guards.get(node.domain)
        if guard is None:
            return False
        # (i) the node maps onto the application's required properties.
        for constraint in component.node_constraints:
            if not guard.node_satisfies(node_name, constraint):
                return False
        # (ii) the node's domain accepts the component, with enough CPU.
        if component.component_role is not None:
            budget = guard.component_cpu_budget(component.component_role)
            if budget is None or budget < component.cpu_demand:
                return False
        return True
