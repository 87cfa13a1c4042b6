"""Executes a :class:`~repro.faults.plan.FaultPlan` against a live world.

The injector is deliberately thin: every mutation goes through the
:class:`~repro.psf.monitor.EnvironmentMonitor` (so the adaptation layer
hears about it exactly like a real measurement) or the dRBAC engine (so
revocations propagate through authorization monitors).  It records what
it did and when, but judging *recovery* is the harness's job
(:mod:`repro.faults.runner`): the injector breaks things and puts the
environment back; the system under test has to do the rest.
"""

from __future__ import annotations

from typing import Callable

from .. import obs
from ..errors import FaultError
from ..obs import names as metric_names
from .plan import FaultEvent, FaultKind, FaultPlan

InjectorListener = Callable[[FaultEvent, str], None]
"""Called with (event, phase) where phase is "inject" or "heal"."""

_INJECTED_COUNTERS = {
    FaultKind.LINK_DOWN: metric_names.FAULTS_INJECTED_LINK,
    FaultKind.PARTITION: metric_names.FAULTS_INJECTED_PARTITION,
    FaultKind.NODE_CRASH: metric_names.FAULTS_INJECTED_NODE,
    FaultKind.NODE_CRASH_RESTART: metric_names.FAULTS_INJECTED_RESTART,
    FaultKind.LATENCY_SPIKE: metric_names.FAULTS_INJECTED_LATENCY,
    FaultKind.LOSS_BURST: metric_names.FAULTS_INJECTED_LOSS,
    FaultKind.REVOKE_STORM: metric_names.FAULTS_INJECTED_REVOCATION,
}


class FaultInjector:
    """Schedules and applies the events of a fault plan.

    ``monitor`` is the environment monitor wrapping the target network;
    ``engine`` (a :class:`~repro.drbac.engine.DrbacEngine`) is required
    only for ``REVOKE_STORM`` plans, with ``credentials`` mapping the
    credential ids named in event params to live
    :class:`~repro.drbac.delegation.Delegation` objects.  ``shard_map``
    optionally maps node names to repository shard homes hosted there, so
    a node crash also fails (and a restart recovers) those shards.

    Healing a ``NODE_CRASH`` *rebuilds* the failed shards from their warm
    replicas (:meth:`~repro.drbac.repository.DistributedRepository.recover_shard`)
    — empty if unreplicated, which is honest data loss.
    ``NODE_CRASH_RESTART`` needs the crashing node registered
    in ``durable_nodes`` (name → :class:`~repro.durable.node.DurableNode`):
    injection drops its volatile state, healing runs real WAL recovery —
    minus an optional ``torn_tail`` of bytes — and then delta catch-up.
    """

    def __init__(
        self,
        scheduler,
        monitor,
        *,
        engine=None,
        repository=None,
        credentials: dict[str, object] | None = None,
        shard_map: dict[str, list[str]] | None = None,
        durable_nodes: dict[str, object] | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.monitor = monitor
        self.engine = engine
        self.repository = repository
        self.credentials = dict(credentials or {})
        self.shard_map = {k: list(v) for k, v in (shard_map or {}).items()}
        self.durable_nodes = dict(durable_nodes or {})
        self.log: list[dict] = []
        """Chronological record of (virtual time, event, phase) as dicts."""
        self._listeners: list[InjectorListener] = []

    def on_event(self, listener: InjectorListener) -> None:
        self._listeners.append(listener)

    # -- arming ------------------------------------------------------------

    def arm(self, plan: FaultPlan) -> None:
        """Schedule every event of ``plan`` relative to the current time.

        Validation happens eagerly so a bad plan fails before the run
        starts, not halfway through it.
        """
        for event in plan:
            self._validate(event)
        for event in plan:
            self.scheduler.schedule(event.at, lambda e=event: self._inject(e))

    def _validate(self, event: FaultEvent) -> None:
        kind, params = event.kind, event.params
        if kind in (FaultKind.LINK_DOWN, FaultKind.LATENCY_SPIKE, FaultKind.LOSS_BURST):
            if "a" not in params or "b" not in params:
                raise FaultError(f"{kind.value} event needs 'a' and 'b' params")
            self.monitor.network.link(params["a"], params["b"])  # raises if absent
        elif kind is FaultKind.PARTITION:
            domain = params.get("domain")
            if not domain:
                raise FaultError("partition event needs a 'domain' param")
            if not self.monitor.network.nodes_in_domain(domain):
                raise FaultError(f"partition names empty domain {domain!r}")
        elif kind is FaultKind.NODE_CRASH:
            node = params.get("node")
            if not node:
                raise FaultError("node_crash event needs a 'node' param")
            self.monitor.network.node(node)
        elif kind is FaultKind.NODE_CRASH_RESTART:
            node = params.get("node")
            if not node:
                raise FaultError("node_crash_restart event needs a 'node' param")
            self.monitor.network.node(node)
            if node not in self.durable_nodes:
                raise FaultError(
                    f"node_crash_restart targets {node!r} but no DurableNode "
                    "is registered for it (pass durable_nodes=...)"
                )
        elif kind is FaultKind.REVOKE_STORM:
            ids = params.get("credentials", [])
            if not ids:
                raise FaultError("revoke_storm event needs 'credentials' ids")
            if self.engine is None:
                raise FaultError("revoke_storm requires an engine")
            missing = [i for i in ids if i not in self.credentials]
            if missing:
                raise FaultError(f"unknown credential ids in storm: {missing}")

    # -- execution ----------------------------------------------------------

    def _inject(self, event: FaultEvent) -> None:
        kind, params = event.kind, event.params
        heal: Callable[[], None] | None = None
        if kind is FaultKind.LINK_DOWN:
            a, b = params["a"], params["b"]
            self.monitor.set_link_up(a, b, False)
            heal = lambda: self.monitor.set_link_up(a, b, True)
        elif kind is FaultKind.PARTITION:
            heal = self._partition(params["domain"])
        elif kind is FaultKind.NODE_CRASH:
            heal = self._crash(params["node"])
        elif kind is FaultKind.NODE_CRASH_RESTART:
            heal = self._crash_restart(params["node"], params)
        elif kind is FaultKind.LATENCY_SPIKE:
            a, b = params["a"], params["b"]
            link = self.monitor.network.link(a, b)
            original = link.latency_s
            self.monitor.set_link_latency(a, b, original * float(params.get("factor", 4.0)))
            heal = lambda: self.monitor.set_link_latency(a, b, original)
        elif kind is FaultKind.LOSS_BURST:
            a, b = params["a"], params["b"]
            original_rate = self.monitor.network.link(a, b).loss_rate
            self.monitor.set_link_loss(a, b, float(params.get("rate", 0.3)))
            heal = lambda: self.monitor.set_link_loss(a, b, original_rate)
        elif kind is FaultKind.REVOKE_STORM:
            for cred_id in params["credentials"]:
                self.engine.revoke(self.credentials[cred_id])
            heal = None  # recovery is application-level re-issuance
        obs.counter(_INJECTED_COUNTERS[kind]).inc()
        self._record(event, "inject")
        if heal is not None and event.duration > 0:
            self.scheduler.schedule(
                event.ends_at - self.scheduler.now(),
                lambda: self._heal(event, heal),
            )

    def _partition(self, domain: str) -> Callable[[], None]:
        """Cut every live link crossing the domain boundary; return healer."""
        network = self.monitor.network
        severed: list[tuple[str, str]] = []
        for link in sorted(network.links(), key=lambda l: (l.a, l.b)):
            in_a = network.node(link.a).domain == domain
            in_b = network.node(link.b).domain == domain
            if in_a != in_b and link.up:
                severed.append((link.a, link.b))
        for a, b in severed:
            self.monitor.set_link_up(a, b, False)

        def heal() -> None:
            for a, b in severed:
                self.monitor.set_link_up(a, b, True)

        return heal

    def _crash(self, node: str) -> Callable[[], None]:
        self.monitor.set_node_up(node, False)
        homes = self.shard_map.get(node, [])
        if self.repository is not None:
            for home in homes:
                self.repository.fail_shard(home)

        def heal() -> None:
            if self.repository is not None:
                for home in homes:
                    self.repository.recover_shard(home)
            self.monitor.set_node_up(node, True)

        return heal

    def _crash_restart(self, node: str, params: dict) -> Callable[[], None]:
        """Real crash: volatile state dies now, recovery runs at heal."""
        self.monitor.set_node_up(node, False)
        dnode = self.durable_nodes[node]
        dnode.crash()
        homes = self.shard_map.get(node, [])
        if self.repository is not None:
            for home in homes:
                self.repository.fail_shard(home)
        torn = int(params.get("torn_tail", 0))

        def heal() -> None:
            # Recovery itself clears any shard down-markers by rebuilding
            # the repository from durable state; restart before marking
            # the node routable so no query sees a half-recovered node.
            dnode.restart(torn_tail_bytes=torn)
            self.monitor.set_node_up(node, True)

        return heal

    def _heal(self, event: FaultEvent, heal: Callable[[], None]) -> None:
        heal()
        self._record(event, "heal")

    def _record(self, event: FaultEvent, phase: str) -> None:
        self.log.append(
            {"t": self.scheduler.now(), "phase": phase, **event.to_dict()}
        )
        obs.event(
            f"fault.{phase}", kind=event.kind.value,
            fault_class=event.kind.fault_class, fault_at=event.at,
        )
        for listener in list(self._listeners):
            listener(event, phase)
