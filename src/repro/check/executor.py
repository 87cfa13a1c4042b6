"""Replay a trace against the real stack and cross-check every result.

The executor builds a small but real world — a two-node simulated
network carrying plain RPC, a :class:`~repro.drbac.engine.DrbacEngine`
on virtual time, a sharded :class:`~repro.drbac.cache.CachedAuthorizer`,
a Table 4 :class:`~repro.views.acl.ViewAccessPolicy` over three
VIG-generated views, and (under chaos) a
:class:`~repro.faults.injector.FaultInjector` armed with the trace's
fault plan — then replays the operations one at a time, comparing each
observable outcome against the oracles of :mod:`repro.check.oracles`.

The first disagreement stops the run and is reported as a
:class:`Divergence`; the trace can then be handed to
:func:`repro.check.shrink.shrink_trace`.

Determinism contract (same as the chaos and load harnesses): virtual
time only, hermetic id counters, a scoped metrics registry, seeded
transport loss, and no Switchboard channels (their DH handshakes draw
from ``secrets``).  Two runs of one trace produce byte-identical
reports.

One honest relaxation: a credential may expire while an RPC request is
in flight (the server decides at delivery time, the client observed at
issue time), so the authorization expectation for RPC ops accepts the
oracle's verdict at *either* endpoint of the call.  Delegations and
revocations cannot race this way — operations are serialized — so only
the expiry boundary is relaxed.

Crash/recovery boundaries: the server's engine+cache live inside a
:class:`~repro.durable.node.DurableNode` fed by an
:class:`~repro.durable.node.UpdateFeed` (the crash-immune credential
authority every delegate/publish/revoke routes through).  Chaos traces
include ``NODE_CRASH_RESTART`` faults with seeded torn tails; while the
node is down, server-side observables report ``down`` with no oracle
comparison (a dead node serves nothing), and after the heal's WAL replay
+ delta catch-up the comparisons resume — the oracle, which never
crashes, must still agree with every post-recovery verdict.  Mutations
are routed by name: durable-layer mutations (``skip-catchup``) break the
node's recovery protocol, every other mutation breaks the oracle.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from .. import obs
from ..crypto import KeyStore
from ..drbac import DrbacEngine
from ..drbac.cache import CachedAuthorizer
from ..durable import MUTATIONS as DURABLE_MUTATIONS
from ..durable import DurableNode, UpdateFeed
from ..errors import AuthorizationError
from ..faults.injector import FaultInjector
from ..faults.retry import RetryPolicy
from ..hermetic import GuardedKV, HarnessWorld, harness_world
from ..obs import names as metric_names
from ..psf.monitor import EnvironmentMonitor
from ..switchboard.rpc import PlainRpcEndpoint
from ..views import (
    InterfaceRegistry,
    ViewHint,
    ViewRuntime,
    Vig,
    infer_view_spec,
    interface_from_class,
)
from ..views.acl import ViewAccessPolicy
from .gen import RPC_ROLE, VIEW_DEFAULT, VIEW_RULES, generate_trace
from .oracles import DrbacOracle, RpcOracle, ViewAclOracle
from .trace import Op, Trace

REPORT_SCHEMA = "simtest-report/v1"

ENGINE_MODES = ("incr", "full")
"""Authorization engine arms: incremental reach maintenance vs full
search on every miss.  Both run against the same oracles; the CI matrix
exercises each."""

#: What each view may do; the executor's expectation table and the VIG
#: hints below must agree — that agreement is exactly what the checker
#: exercises end to end.
VIEW_CAN_READ = {"ViewKVAdmin": True, "ViewKVReader": True, "ViewKVAnon": False}
VIEW_CAN_WRITE = {"ViewKVAdmin": True, "ViewKVReader": False, "ViewKVAnon": False}
_VIEW_HINTS = {
    "ViewKVAdmin": ("get", "put", "has"),
    "ViewKVReader": ("get", "has"),
    "ViewKVAnon": ("has",),
}

#: Virtual seconds to drain in-flight duplicates after a retried RPC op.
#: A retransmission can be on the wire when the call completes (attempt k's
#: response races attempt k+1's request), and if the next trace op mutated
#: the repository before that duplicate reached the server, the duplicate
#: would execute under *different* authorization state than any instant the
#: oracle was consulted at.  Draining after every chaos RPC op pins all
#: duplicate executions inside a window where the repository is frozen,
#: where only expiry can change a decision.  Bound: worst in-flight frame
#: is latency (0.004s) x max latency-spike factor (8) x max reroutes —
#: well under a quarter second.
SETTLE = 0.25


class ViewKV:
    """The component the view policy protects: an unguarded local store.

    Visibility is enforced *around* it — which view a client resolves to
    decides what they can call — mirroring the paper's split between
    component logic and per-role service levels.
    """

    def __init__(self) -> None:
        self._data: dict[str, str] = {}

    def get(self, key: str) -> str | None:
        return self._data.get(key)

    def put(self, key: str, value: str) -> str | None:
        old = self._data.get(key)
        self._data[key] = value
        return old

    def has(self, key: str) -> bool:
        return key in self._data


class _KVSurface:
    """Interface template for the view stack."""

    def get(self, key: str) -> str | None: ...

    def put(self, key: str, value: str) -> str | None: ...

    def has(self, key: str) -> bool: ...


@dataclass(slots=True)
class Divergence:
    """The real stack and the oracle disagreed on one observable."""

    index: int
    op: dict[str, Any]
    kind: str
    expected: str
    observed: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "op": self.op,
            "kind": self.kind,
            "expected": self.expected,
            "observed": self.observed,
        }


@dataclass(slots=True)
class SimReport:
    """Everything one simulation run produced; JSON-stable across runs."""

    seed: int
    steps: int
    chaos: bool
    mutation: str | None
    engine: str
    executed: int
    comparisons: int
    net_failures: int
    horizon: float
    faults: int
    transcript: list[str]
    divergence: Divergence | None
    metrics: dict
    flight: dict | None = None
    """Flight-recorder dump frozen at the diverging op; ``None`` on
    agreeing runs keeps the JSON byte-stable."""

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def transcript_digest(self) -> str:
        payload = json.dumps(self.transcript, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "steps": self.steps,
            "chaos": self.chaos,
            "mutation": self.mutation,
            "engine": self.engine,
            "executed": self.executed,
            "comparisons": self.comparisons,
            "net_failures": self.net_failures,
            "horizon": round(self.horizon, 6),
            "faults": self.faults,
            "transcript_digest": self.transcript_digest(),
            "divergence": None if self.divergence is None else self.divergence.to_dict(),
            "metrics": self.metrics,
            "flight": self.flight,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        mode = "chaos" if self.chaos else "calm"
        lines = [
            f"simtest seed={self.seed} ops={self.steps} ({mode}): "
            f"{self.executed} executed, {self.comparisons} oracle comparisons, "
            f"{self.net_failures} net failures, horizon {self.horizon:.2f}s"
        ]
        if self.mutation:
            lines.append(f"  oracle mutation active: {self.mutation}")
        if self.divergence is None:
            lines.append("  oracles agree: no divergence")
        else:
            d = self.divergence
            lines.append(
                f"  DIVERGENCE at op {d.index} [{d.kind}] "
                f"{Op.from_dict(d.op).describe()}"
            )
            lines.append(f"    expected: {d.expected}")
            lines.append(f"    observed: {d.observed}")
        return "\n".join(lines)


class SimTester:
    """Replays traces against a freshly built world per run.

    One tester may run many traces (the shrinker does); the RSA
    :class:`KeyStore` is shared across runs because key material never
    crosses the simulated wire, which makes re-runs cheap *and*
    byte-identical.
    """

    def __init__(
        self,
        *,
        key_store: KeyStore | None = None,
        mutation: str | None = None,
        engine: str = "incr",
    ) -> None:
        if engine not in ENGINE_MODES:
            raise ValueError(
                f"unknown engine mode {engine!r}; pick from {ENGINE_MODES}"
            )
        self.key_store = key_store or KeyStore(key_bits=512)
        self.mutation = mutation
        # Durable-layer mutations break the node's recovery protocol;
        # everything else is handed to the DrbacOracle (which validates
        # the name and raises on unknowns).
        self.durable_mutation = mutation if mutation in DURABLE_MUTATIONS else None
        self.oracle_mutation = None if self.durable_mutation else mutation
        self.engine_mode = engine

    # -- entry point --------------------------------------------------------

    def run(self, trace: Trace) -> SimReport:
        with harness_world(
            seed=trace.seed, domain="CHECK", clients=["client"]
        ) as world:
            return self._run(trace, world)

    # -- world construction -------------------------------------------------

    def _build_world(self, trace: Trace, world: HarnessWorld) -> None:
        self.scheduler = world.scheduler

        self.engine = DrbacEngine(
            key_store=self.key_store,
            clock=self.scheduler,
            incremental=self.engine_mode == "incr",
        )
        # Small and sharded on purpose: the workload overflows it, so the
        # trace exercises LRU churn and negative caching, not a warm cache.
        self.cache = CachedAuthorizer(self.engine, max_entries=8, shards=4)

        # The server node is durable: every credential update flows
        # through the feed (the crash-immune authority), gets WAL-logged
        # on the node, and survives NODE_CRASH_RESTART faults via replay
        # + catch-up.  compact_every is small so tier-1 traces exercise
        # snapshot installation, not just log replay.
        self.feed = UpdateFeed()
        self.node = DurableNode(
            engine=self.engine,
            cache=self.cache,
            feed=self.feed,
            compact_every=16,
            mutation=self.durable_mutation,
        )

        self.store = GuardedKV(self.cache, RPC_ROLE)
        server_rpc = PlainRpcEndpoint(world.transport, "server")
        server_rpc.exporter.export("GuardedKV", self.store)
        self.client_rpc = PlainRpcEndpoint(world.transport, "client")

        self.view_store = ViewKV()
        self.policy = ViewAccessPolicy("ViewKV")
        for role, view_name in VIEW_RULES:
            self.policy.allow(role, view_name)
        self.policy.allow("others", VIEW_DEFAULT)
        registry = InterfaceRegistry()
        registry.register(interface_from_class(_KVSurface, "CheckKVI"))
        vig = Vig(registry)
        runtime = ViewRuntime(local_objects={"ViewKV": self.view_store})
        self.views: dict[str, Any] = {}
        for view_name, allow in _VIEW_HINTS.items():
            spec = infer_view_spec(view_name, ViewKV, registry, ViewHint(allow=allow))
            self.views[view_name] = vig.generate(spec, ViewKV)(runtime)

        if trace.chaos and trace.faults:
            injector = FaultInjector(
                self.scheduler,
                EnvironmentMonitor(world.network),
                durable_nodes={"server": self.node},
            )
            injector.arm(trace.fault_plan())

        # Oracles.
        self.drbac_model = DrbacOracle(mutation=self.oracle_mutation)
        self.acl_model = ViewAclOracle(
            self.drbac_model, list(VIEW_RULES), default=VIEW_DEFAULT
        )
        self.rpc_model = RpcOracle()
        self.view_model: dict[str, str] = {}
        self.creds: dict[str, Any] = {}
        self.published: set[str] = set()

    # -- the run ------------------------------------------------------------

    def _run(self, trace: Trace, world: HarnessWorld) -> SimReport:
        self._build_world(trace, world)
        transcript: list[str] = []
        self.comparisons = 0
        self.net_failures = 0
        divergence: Divergence | None = None

        handlers = {
            "delegate": self._op_delegate,
            "publish": self._op_publish,
            "revoke": self._op_revoke,
            "authorize": self._op_authorize,
            "view_resolve": self._op_view_resolve,
            "view_read": self._op_view_read,
            "view_write": self._op_view_write,
            "rpc_get": self._op_rpc,
            "rpc_put": self._op_rpc,
            "rpc_check": self._op_rpc,
            "advance": self._op_advance,
        }
        executed = 0
        flight: dict | None = None
        for index, op in enumerate(trace.ops):
            obs.counter(metric_names.CHECK_OPS).inc()
            outcome, diverged = handlers[op.kind](index, op, trace.chaos)
            obs.event("check.op", index=index, kind=op.kind, outcome=outcome)
            transcript.append(f"{index}:{op.kind}:{outcome}")
            executed += 1
            if diverged is not None:
                obs.counter(metric_names.CHECK_DIVERGENCES).inc()
                divergence = diverged
                # Freeze the recorder at the diverging op: the dump
                # carries the audit/event history leading into it and
                # rides alongside the shrunk repro.
                flight = obs.flight_snapshot("simtest.divergence")
                break

        return SimReport(
            seed=trace.seed,
            steps=len(trace.ops),
            chaos=trace.chaos,
            mutation=self.mutation,
            engine=self.engine_mode,
            executed=executed,
            comparisons=self.comparisons,
            net_failures=self.net_failures,
            horizon=self.scheduler.now(),
            faults=len(trace.faults),
            transcript=transcript,
            divergence=divergence,
            metrics=obs.snapshot(),
            flight=flight,
        )

    # -- comparison helper --------------------------------------------------

    def _compare(
        self, index: int, op: Op, kind: str, expected: str, observed: str
    ) -> Divergence | None:
        self.comparisons += 1
        obs.counter(metric_names.CHECK_COMPARISONS).inc()
        if expected == observed:
            return None
        return Divergence(
            index=index, op=op.to_dict(), kind=kind,
            expected=expected, observed=observed,
        )

    # -- mutators (no observable; applied to stack and model alike) ---------

    def _op_delegate(self, index: int, op: Op, chaos: bool):
        a = op.args
        expires = None if a["ttl"] is None else self.scheduler.now() + a["ttl"]
        # Sign locally, publish through the feed: the authority assigns
        # the sequence number a recovering node catches up against.
        cred = self.engine.delegate(
            a["issuer"], a["subject"], a["role"],
            expires_at=expires, publish=False,
        )
        self.creds[a["ref"]] = cred
        if a["publish"]:
            self.published.add(a["ref"])
            self.feed.publish(cred)
        self.drbac_model.delegate(
            a["ref"], a["subject"], a["role"],
            expires_at=expires, published=a["publish"],
        )
        return "issued", None

    def _op_publish(self, index: int, op: Op, chaos: bool):
        ref = op.args["ref"]
        cred = self.creds.get(ref)
        if cred is None or ref in self.published:
            return "noop", None
        self.published.add(ref)
        self.feed.publish(cred)
        self.drbac_model.publish(ref)
        return "published", None

    def _op_revoke(self, index: int, op: Op, chaos: bool):
        ref = op.args["ref"]
        cred = self.creds.get(ref)
        if cred is None:
            return "noop", None
        self.feed.revoke(cred)
        self.drbac_model.revoke(ref)
        return "revoked", None

    def _op_advance(self, index: int, op: Op, chaos: bool):
        self.scheduler.run_until(self.scheduler.now() + op.args["seconds"])
        return f"t={self.scheduler.now():.3f}", None

    # -- checked observables ------------------------------------------------

    def _op_authorize(self, index: int, op: Op, chaos: bool):
        if not self.node.up:
            return "down", None  # a crashed node serves no verdicts
        subject, role = op.args["subject"], op.args["role"]
        now = self.scheduler.now()
        try:
            result = self.cache.authorize(subject, role)
            observed = "grant"
        except AuthorizationError:
            result = None
            observed = "deny"
        expected = "grant" if self.drbac_model.holds(subject, role, now) else "deny"
        diverged = self._compare(index, op, "authorize", expected, observed)
        if diverged is None and result is not None:
            # A served grant must itself still be live (no stale grants).
            if not (result.valid and result.monitor.check_expiry(now)):
                diverged = Divergence(
                    index=index, op=op.to_dict(), kind="stale-grant",
                    expected="live proof", observed="invalid or expired monitor",
                )
        return observed, diverged

    def _op_view_resolve(self, index: int, op: Op, chaos: bool):
        if not self.node.up:
            return "down", None
        client = op.args["client"]
        decision = self.policy.resolve(client, self.engine)
        observed = "none" if decision is None else decision.view_name
        model_view = self.acl_model.resolve(client, self.scheduler.now())
        expected = "none" if model_view is None else model_view
        return observed, self._compare(index, op, "view-resolve", expected, observed)

    def _resolve_view(self, client: str):
        decision = self.policy.resolve(client, self.engine)
        return None if decision is None else decision.view_name

    def _op_view_read(self, index: int, op: Op, chaos: bool):
        if not self.node.up:
            return "down", None
        client, key = op.args["client"], op.args["key"]
        view_name = self._resolve_view(client)
        model_view = self.acl_model.resolve(client, self.scheduler.now())
        diverged = self._compare(
            index, op, "view-resolve", str(model_view), str(view_name)
        )
        if diverged is not None:
            return str(view_name), diverged
        try:
            observed = repr(self.views[view_name].get(key))
        except PermissionError:
            observed = "narrowed"
        if VIEW_CAN_READ[view_name]:
            expected = repr(self.view_model.get(key))
        else:
            expected = "narrowed"
        return observed, self._compare(index, op, "view-read", expected, observed)

    def _op_view_write(self, index: int, op: Op, chaos: bool):
        if not self.node.up:
            return "down", None
        client, key, value = op.args["client"], op.args["key"], op.args["value"]
        view_name = self._resolve_view(client)
        model_view = self.acl_model.resolve(client, self.scheduler.now())
        diverged = self._compare(
            index, op, "view-resolve", str(model_view), str(view_name)
        )
        if diverged is not None:
            return str(view_name), diverged
        try:
            observed = repr(self.views[view_name].put(key, value))
        except PermissionError:
            observed = "narrowed"
        if VIEW_CAN_WRITE[view_name]:
            expected = repr(self.view_model.get(key))
            self.view_model[key] = value
        else:
            expected = "narrowed"
        return observed, self._compare(index, op, "view-write", expected, observed)

    # -- RPC ops ------------------------------------------------------------

    def _op_rpc(self, index: int, op: Op, chaos: bool):
        a = op.args
        method = op.kind.removeprefix("rpc_")
        args = {"get": lambda: [a["subject"], a["key"]],
                "put": lambda: [a["subject"], a["key"], a["value"]],
                "check": lambda: [a["subject"]]}[method]()
        issue_now = self.scheduler.now()
        if chaos:
            policy = RetryPolicy.exponential(
                base_delay=0.2, max_attempts=5, max_delay=1.5,
                jitter=0.25, seed=index * 1000 + 17,
            )
            pending = self.client_rpc.call_with_retry(
                "server", "GuardedKV", method, args, policy=policy
            )
        else:
            pending = self.client_rpc.call("server", "GuardedKV", method, args)
        try:
            value = pending.wait()
            status = "ok"
        except Exception as exc:  # noqa: BLE001 - classified below
            text = f"{type(exc).__name__}: {exc}"
            status = "denied" if "AuthorizationError" in text else "net_fail"
            value = None
        done_now = self.scheduler.now()
        if status == "net_fail":
            self.net_failures += 1
            obs.counter(metric_names.CHECK_RPC_NET_FAILURES).inc()
        if chaos:
            # Drain every in-flight duplicate of this (possibly retried)
            # call before the next op can mutate authorization state.
            self.scheduler.run_until(self.scheduler.now() + SETTLE)

        # Authorization expectation, relaxed across the expiry boundary
        # (see module docstring): the observed decision must match the
        # oracle at issue or at completion time.
        grants = {
            self.drbac_model.holds(a["subject"], RPC_ROLE, issue_now),
            self.drbac_model.holds(a["subject"], RPC_ROLE, done_now),
        }
        diverged: Divergence | None = None
        if method == "check":
            if status == "ok":
                diverged = self._compare(
                    index, op, "rpc-auth",
                    "|".join(sorted("grant" if g else "deny" for g in grants)),
                    "grant" if value else "deny",
                ) if value not in grants else self._mark_comparison()
            elif status == "net_fail" and not chaos:
                diverged = self._net_divergence(index, op)
        elif status == "ok":
            if True not in grants:
                diverged = Divergence(
                    index=index, op=op.to_dict(), kind="rpc-auth",
                    expected="deny", observed=f"grant:{value!r}",
                )
            elif method == "get":
                admissible = self.rpc_model.admissible(a["key"])
                ok = self.rpc_model.get_succeeded(a["key"], value)
                diverged = self._value_divergence(index, op, value, ok, admissible)
            else:  # put
                admissible = self.rpc_model.admissible(a["key"])
                if chaos:
                    admissible.add(a["value"])
                ok = self.rpc_model.put_succeeded(
                    a["key"], a["value"], value, may_duplicate=chaos
                )
                diverged = self._value_divergence(index, op, value, ok, admissible)
        elif status == "denied":
            if False not in grants:
                diverged = Divergence(
                    index=index, op=op.to_dict(), kind="rpc-auth",
                    expected="grant", observed="deny",
                )
            else:
                self._mark_comparison()
                if chaos and method == "put" and True in grants:
                    # The observed response was a denial, but on an expiry
                    # boundary an *earlier* transmission may have been
                    # granted and executed, its response lost.
                    self.rpc_model.put_unresolved(a["key"], a["value"])
        else:  # net_fail
            if not chaos:
                diverged = self._net_divergence(index, op)
            elif method == "put" and True in grants:
                # The put may have executed (once or more) without us
                # seeing the response: widen the admissible set.
                self.rpc_model.put_unresolved(a["key"], a["value"])
        outcome = {"ok": f"ok:{value!r}", "denied": "denied",
                   "net_fail": "net_fail"}[status]
        return outcome, diverged

    def _mark_comparison(self) -> None:
        self.comparisons += 1
        obs.counter(metric_names.CHECK_COMPARISONS).inc()
        return None

    def _value_divergence(self, index, op, observed, ok, admissible):
        self._mark_comparison()
        if ok:
            return None
        return Divergence(
            index=index, op=op.to_dict(), kind="rpc-value",
            expected=f"one of {sorted(map(repr, admissible))}",
            observed=repr(observed),
        )

    def _net_divergence(self, index, op):
        self._mark_comparison()
        return Divergence(
            index=index, op=op.to_dict(), kind="rpc-net",
            expected="completion (no faults active)", observed="network failure",
        )


def run_simtest(
    *,
    seed: int,
    steps: int,
    chaos: bool = False,
    mutation: str | None = None,
    key_store: KeyStore | None = None,
    engine: str = "incr",
) -> tuple[Trace, SimReport, SimTester]:
    """Generate a trace, run it, and return (trace, report, tester)."""
    trace = generate_trace(seed=seed, steps=steps, chaos=chaos)
    tester = SimTester(key_store=key_store, mutation=mutation, engine=engine)
    return trace, tester.run(trace), tester
