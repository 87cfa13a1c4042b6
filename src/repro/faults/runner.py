"""The chaos harness: one deterministic fault-and-recovery run.

:class:`ChaosRunner` builds the full mail-scenario world, keeps two
managed sessions alive through a seeded storm of faults, and *verifies*
recovery instead of assuming it: after every fault window it probes the
service end-to-end, mid-fault it exercises the retry and shard-failover
paths, and after a revocation storm it checks deny → re-issue → allow.
The run ends with an invariant sweep (no hanging calls, sessions on live
hosts, view/image coherence) and produces a :class:`ChaosReport` whose
JSON is byte-identical for identical seeds.

Crash semantics — this harness enables repository replication up front,
so the injector's honest ``NODE_CRASH`` heal (rebuild the failed shard
from its warm replica, see
:meth:`~repro.drbac.repository.DistributedRepository.recover_shard`)
restores the shard's content; the crash probes therefore verify failover
*and* rebuild.
Full WAL-backed crash-restart (``NODE_CRASH_RESTART``) is exercised by
the simulation tester and ``bench-recovery``, which own
:class:`~repro.durable.node.DurableNode` worlds.

Determinism notes — the chaos world deliberately avoids Switchboard
channels: their Diffie–Hellman handshakes draw from ``secrets`` and
cannot be seeded, so the two managed sessions here use only ``local``
and ``rmi`` modes (the Encryptor's sealed blobs have *fixed sizes*, so
frame timing stays reproducible).  Faults are referenced by stable
names — Table 2 credential numbers, node and link names — never by
generated ids, so a report never leaks a process-global counter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from .. import obs
from ..errors import FaultError, NetworkError, SwitchboardError
from ..hermetic import hermetic_counters
from ..obs import names as metric_names
from .chaos import generate_chaos_plan
from .injector import FaultInjector
from .invariants import (
    InvariantSuite,
    calls_settled,
    sessions_on_live_nodes,
    views_coherent,
)
from .plan import FaultEvent, FaultKind, FaultPlan
from .retry import RetryPolicy

#: WAN links of the mail topology: the hostile part of the environment.
WAN_LINKS = (("ny-gw", "sd-gw"), ("ny-gw", "se-gw"), ("sd-gw", "se-gw"))

#: Table 2 credential numbers eligible for revocation storms, with the
#: subject / role / re-issuing guard needed to verify deny → re-issue → allow.
STORM_CREDENTIALS = ("1", "11")


_RECOVERED_COUNTERS = {
    "link": metric_names.FAULTS_RECOVERED_LINK,
    "partition": metric_names.FAULTS_RECOVERED_PARTITION,
    "node": metric_names.FAULTS_RECOVERED_NODE,
    "latency": metric_names.FAULTS_RECOVERED_LATENCY,
    "loss": metric_names.FAULTS_RECOVERED_LOSS,
    "revocation": metric_names.FAULTS_RECOVERED_REVOCATION,
}


@dataclass(slots=True)
class ProbeResult:
    """One end-to-end verification attempt tied to one fault event."""

    at: float
    fault: str
    fault_at: float
    fault_class: str
    kind: str
    """"post-heal" | "mid-fault-retry" | "mid-fault" | "shard-failover" |
    "deny-reissue"."""
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "at": self.at,
            "fault": self.fault,
            "fault_at": self.fault_at,
            "fault_class": self.fault_class,
            "kind": self.kind,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass(slots=True)
class ChaosReport:
    """Everything one chaos run produced, JSON-stable across runs."""

    seed: int
    duration: float
    horizon: float
    events: list[dict]
    injections: list[dict]
    probes: list[dict]
    recoveries: dict[str, int]
    violations: list[dict]
    metrics: dict
    flight: dict | None = None
    """Flight-recorder dump captured iff the invariant sweep failed;
    ``None`` on clean runs keeps the JSON byte-stable."""

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "duration": self.duration,
            "horizon": self.horizon,
            "events": self.events,
            "injections": self.injections,
            "probes": self.probes,
            "recoveries": self.recoveries,
            "violations": self.violations,
            "metrics": self.metrics,
            "flight": self.flight,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"chaos seed={self.seed} duration={self.duration}s "
            f"({len(self.events)} faults, horizon {self.horizon:.2f}s)",
        ]
        for cls in sorted(self.recoveries):
            lines.append(f"  recovered[{cls}]: {self.recoveries[cls]}")
        failed = [p for p in self.probes if not p["ok"]]
        lines.append(f"  probes: {len(self.probes)} ({len(failed)} failed)")
        if self.violations:
            lines.append(f"  INVARIANT VIOLATIONS: {len(self.violations)}")
            for violation in self.violations:
                lines.append(f"    - {violation['invariant']}: {violation['detail']}")
        else:
            lines.append("  invariants: all hold")
        return "\n".join(lines)


@dataclass(slots=True)
class _Probe:
    at: float
    order: int
    event: FaultEvent
    kind: str
    fn: Callable[[], tuple[bool, str]]
    counts_recovery: bool


class ChaosRunner:
    """Deterministic chaos run over the three-site mail world.

    Two sessions are kept adapted throughout:

    * **pair** — Bob on ``sd-pc1`` with a privacy pipeline
      (Decryptor local, Encryptor next to the server): its rmi hop rides
      the WAN links that link faults, partitions, latency spikes, and
      loss bursts target.
    * **cache** — Alice on ``ny-pc1`` demanding more bandwidth than any
      link offers, forcing a ViewMailServer onto her own host: node
      crashes target that host, exercising eviction → re-plan →
      redeploy, and the view gives the coherence invariant teeth.
    """

    #: settle time after a heal before the post-heal probe fires — enough
    #: for queued retries/reroutes to drain over the slowest WAN path.
    SETTLE = 0.5

    def __init__(
        self,
        *,
        seed: int,
        duration: float,
        intensity: float = 1.0,
        key_bits: int = 512,
        key_store: Any = None,
        batching: bool = False,
    ) -> None:
        if duration <= 0:
            raise FaultError(f"chaos duration must be positive, got {duration}")
        self.seed = seed
        self.duration = float(duration)
        self.intensity = intensity
        self.key_bits = key_bits
        # Key material never crosses the chaos world's wire, so sharing a
        # pre-built KeyStore across runs is determinism-safe and skips the
        # dominant RSA-generation cost (useful in tests).
        self.key_store = key_store
        self.batching = batching
        """Run the storm with transport frame batching enabled — the
        integration proof that coalesced delivery survives link-down
        mid-batch without hanging RPCs or stale authorization."""

    # -- entry point ---------------------------------------------------------

    def run(self) -> ChaosReport:
        with hermetic_counters(), obs.scoped(enabled=True):
            return self._run()

    # -- the run -------------------------------------------------------------

    def _run(self) -> ChaosReport:
        from ..mail import build_scenario
        from ..psf import EdgeRequirement, ServiceRequest
        from ..psf.adaptation import AdaptationManager

        if self.key_store is not None:
            scenario = build_scenario(key_store=self.key_store)
        else:
            scenario = build_scenario(key_bits=self.key_bits)
        psf = scenario.psf
        scheduler = psf.scheduler
        obs.set_tracer_clock(scheduler)
        if self.batching:
            psf.transport.configure_batching(max_frames=8, window=0.002)
        server = scenario.server
        server.sendMail(
            {"recipient": "Alice", "sender": "Bob", "body": "pre-chaos baseline"}
        )
        self._expected_mail = server.fetchMail("Alice")

        engine = psf.engine
        engine.repository.replicated = True

        manager = AdaptationManager(psf)
        pair = manager.manage(
            ServiceRequest(
                client="Bob",
                client_node="sd-pc1",
                interface="MailI",
                qos=EdgeRequirement(privacy=True, channel="rmi"),
            ),
            use_views=False,
        )
        cache = manager.manage(
            ServiceRequest(
                client="Alice",
                client_node="ny-pc1",
                interface="MailI",
                # More than any link carries: the planner's only feasible
                # answer is a view local to the client.
                qos=EdgeRequirement(min_bandwidth_bps=2e9),
            ),
            use_views=True,
        )
        self._scenario = scenario
        self._scheduler = scheduler
        self._pair = pair
        self._cache = cache

        crash_nodes = sorted(
            {p.node for p in cache.plan.components}
            - {"ny-server", pair.request.client_node}
        )
        if not crash_nodes:
            raise FaultError("chaos world has no crash-eligible node")

        plan = generate_chaos_plan(
            seed=self.seed,
            duration=self.duration,
            links=WAN_LINKS,
            domains=("SD",),
            crash_nodes=tuple(crash_nodes),
            credential_ids=STORM_CREDENTIALS,
            intensity=self.intensity,
        )

        # Live credential objects per Table 2 number; refreshed on
        # re-issue so a later storm revokes the credential actually in use.
        self._creds = {
            "1": scenario.credentials[1],
            "11": scenario.credentials[11],
        }
        self._reissue = {
            "1": lambda: scenario.ny_guard.certify_member("Alice"),
            "11": lambda: scenario.sd_guard.certify_member("Bob"),
        }
        self._storm_subjects = {
            "1": ("Alice", scenario.ny_guard.role("Member")),
            "11": ("Bob", scenario.sd_guard.role("Member")),
        }

        injector = FaultInjector(
            scheduler,
            psf.monitor,
            engine=engine,
            repository=engine.repository,
            credentials=self._creds,
            # Alice's home shard lives on her PC: crashing it exercises
            # repository failover to the warm replica.
            shard_map={node: ["Alice"] for node in crash_nodes},
        )
        injector.arm(plan)
        self._injector = injector

        suite = InvariantSuite()
        self._suite = suite

        probes = self._schedule_probes(plan)
        recoveries = {cls: 0 for cls in _RECOVERED_COUNTERS}
        recovered_events: set[int] = set()
        results: list[ProbeResult] = []

        for probe in probes:
            if scheduler.now() < probe.at:
                scheduler.run_until(probe.at)
            ok, detail = probe.fn()
            now = scheduler.now()
            obs.event(
                "chaos.probe", kind=probe.kind, fault=probe.event.kind.value,
                ok=ok, detail=detail,
            )
            results.append(
                ProbeResult(
                    at=round(now, 6),
                    fault=probe.event.kind.value,
                    fault_at=probe.event.at,
                    fault_class=probe.event.kind.fault_class,
                    kind=probe.kind,
                    ok=ok,
                    detail=detail,
                )
            )
            if ok and probe.counts_recovery and id(probe.event) not in recovered_events:
                recovered_events.add(id(probe.event))
                cls = probe.event.kind.fault_class
                recoveries[cls] += 1
                obs.counter(_RECOVERED_COUNTERS[cls]).inc()
                obs.histogram(metric_names.FAULTS_RECOVERY_LATENCY).observe(
                    now - probe.event.at
                )

        # Quiesce: let every retry schedule, reroute, and heal drain.
        tail = max(plan.horizon, self.duration) + 2.0
        scheduler.run_until(tail)

        runtimes = psf.deployer._node_runtimes
        suite.add_check(
            "pending-calls-settled",
            calls_settled(rt.rpc for rt in runtimes.values()),
        )
        suite.add_check(
            "channels-settled",
            calls_settled(rt.switchboard for rt in runtimes.values()),
        )
        suite.add_check(
            "sessions-on-live-nodes",
            sessions_on_live_nodes(psf.network, [pair, cache]),
        )
        suite.add_check(
            "view-image-coherence",
            views_coherent(
                "ViewMailServer",
                lambda: self._cache.access.fetchMail("Alice"),
                lambda: server.fetchMail("Alice"),
            ),
        )
        violations = suite.run()
        flight = None
        if violations:
            # The invariant sweep failed: freeze the flight recorder so
            # the report carries the events and spans leading up to it.
            flight = obs.flight_snapshot("chaos.invariant")

        return ChaosReport(
            seed=self.seed,
            duration=self.duration,
            horizon=round(tail, 6),
            events=plan.to_list(),
            injections=[dict(entry) for entry in injector.log],
            probes=[r.to_dict() for r in results],
            recoveries=recoveries,
            violations=[v.to_dict() for v in violations],
            metrics=obs.snapshot(),
            flight=flight,
        )

    # -- probe construction ---------------------------------------------------

    def _schedule_probes(self, plan: FaultPlan) -> list[_Probe]:
        """Derive the verification schedule from the fault plan.

        Post-heal probes are pushed past every *disruptive* window (link
        down, partition, node crash, loss burst) so a probe for one fault
        is never doomed by an unrelated one still in force; mid-fault
        probes deliberately land inside their own fault's window.
        """
        disruptive = [
            (e.at, e.ends_at)
            for e in plan
            if e.kind
            in (FaultKind.LINK_DOWN, FaultKind.PARTITION, FaultKind.NODE_CRASH,
                FaultKind.LOSS_BURST)
        ]

        def clear(t: float) -> float:
            moved = True
            while moved:
                moved = False
                for start, end in disruptive:
                    if start - 0.05 <= t < end + self.SETTLE:
                        t = end + self.SETTLE
                        moved = True
            return t

        probes: list[_Probe] = []
        order = 0

        def add(at: float, event: FaultEvent, kind: str, fn, *, recovery: bool) -> None:
            nonlocal order
            probes.append(_Probe(at=at, order=order, event=event, kind=kind,
                                 fn=fn, counts_recovery=recovery))
            order += 1

        for event in plan:
            mid = event.at + event.duration / 2.0
            after = clear(event.ends_at + self.SETTLE)
            if event.kind in (FaultKind.LINK_DOWN, FaultKind.PARTITION):
                add(after, event, "post-heal", self._probe_pair, recovery=True)
            elif event.kind is FaultKind.LATENCY_SPIKE:
                if clear(mid) == mid:
                    add(mid, event, "mid-fault", self._probe_pair, recovery=False)
                add(after, event, "post-heal", self._probe_pair, recovery=True)
            elif event.kind is FaultKind.LOSS_BURST:
                if clear(mid) == mid:
                    add(mid, event, "mid-fault-retry", self._probe_pair_retry,
                        recovery=True)
                add(after, event, "post-heal", self._probe_pair, recovery=True)
            elif event.kind is FaultKind.NODE_CRASH:
                add(mid, event, "shard-failover", self._probe_shard_failover,
                    recovery=False)
                add(after, event, "post-heal",
                    lambda e=event: self._probe_cache_redeployed(e), recovery=True)
            elif event.kind is FaultKind.REVOKE_STORM:
                add(event.at + 0.05, event, "deny-reissue",
                    lambda e=event: self._probe_revocation(e), recovery=True)

        probes.sort(key=lambda p: (p.at, p.order))
        return probes

    # -- individual probes ----------------------------------------------------

    def _probe_pair(self) -> tuple[bool, str]:
        """End-to-end fetch through the privacy pipeline (plain rmi hop)."""
        try:
            got = self._pair.access.fetchMail("Alice")
        except (NetworkError, SwitchboardError) as exc:
            return False, type(exc).__name__
        if got != self._expected_mail:
            return False, "mail mismatch through pipeline"
        return True, "pipeline fetch ok"

    def _probe_pair_retry(self) -> tuple[bool, str]:
        """Mid-loss fetch that must survive on retries alone."""
        rpc = self._scenario.psf.deployer.node_runtime("sd-pc1").rpc
        policy = RetryPolicy.exponential(
            base_delay=0.15,
            max_attempts=6,
            max_delay=1.0,
            jitter=0.3,
            seed=self.seed,
        )
        pending = rpc.call_with_retry(
            "ny-server", "MailServer", "fetchMail", ["Alice"], policy=policy
        )
        try:
            got = pending.wait(timeout=10.0)
        except (NetworkError, SwitchboardError) as exc:
            return False, type(exc).__name__
        if got != self._expected_mail:
            return False, "mail mismatch through retry path"
        return True, "retry fetch ok"

    def _probe_shard_failover(self) -> tuple[bool, str]:
        """Mid-crash proof search must be answered by the warm replica."""
        from ..drbac import EntityRef

        repo = self._scenario.engine.repository
        before = repo.failover_count
        client, role = self._storm_subjects["1"]
        proof = self._scenario.engine.find_proof(EntityRef(client), role)
        hops = repo.failover_count - before
        if hops <= 0:
            return False, "no shard failover routed"
        if proof is None:
            # Acceptable only while the credential itself is revoked.
            return True, f"failover routed ({hops} queries), credential revoked"
        return True, f"failover routed ({hops} queries), proof found"

    def _probe_cache_redeployed(self, event: FaultEvent) -> tuple[bool, str]:
        """Post-restart: the view must be redeployed and serving."""
        node = event.params["node"]
        redeployed = any(
            e.redeployed and e.trigger == f"node-up:{node}"
            for e in self._cache.history
        )
        if not redeployed:
            return False, f"no redeployment after node-up:{node}"
        try:
            got = self._cache.access.fetchMail("Alice")
        except (NetworkError, SwitchboardError) as exc:
            return False, type(exc).__name__
        if got != self._expected_mail:
            return False, "mail mismatch through redeployed view"
        return True, "view redeployed and serving"

    def _probe_revocation(self, event: FaultEvent) -> tuple[bool, str]:
        """Deny while revoked, then re-issue and verify restoration."""
        from ..drbac import EntityRef

        engine = self._scenario.engine
        details = []
        for cred_id in event.params["credentials"]:
            client, role = self._storm_subjects[cred_id]
            stale = engine.find_proof(EntityRef(client), role)
            if stale is not None:
                self._suite.record(
                    "revocation-enforced",
                    f"proof for {client} -> {role} survived revocation of "
                    f"credential #{cred_id}",
                )
                return False, f"revoked credential #{cred_id} still proves"
            fresh = self._reissue[cred_id]()
            self._creds[cred_id] = fresh
            self._injector.credentials[cred_id] = fresh
            if engine.find_proof(EntityRef(client), role) is None:
                return False, f"re-issued credential #{cred_id} does not prove"
            details.append(cred_id)
        return True, f"deny/re-issue/allow ok for #{','.join(details)}"
