"""Seeded, virtual-time load generator for the session layer.

One :class:`LoadGenerator` owns a synthetic world — ``C`` client nodes
star-linked to one server over the simulated network — and replays the
*same* seeded workload through it twice:

* **serial** — every client keeps exactly one RPC in flight (pipeline
  depth 1), transport batching off.  This is the paper-era baseline:
  each call pays a full round trip before the next leaves.
* **pipelined** — depth-``D`` RPC pipelining per client plus transport
  frame batching, the high-throughput session layer under test.

The workload is a mixed bag per client: authorization-guarded ``get`` /
``put`` calls against a key-value store, explicit cached authorization
checks (hits, negative hits, and eviction churn against a deliberately
small sharded :class:`~repro.drbac.cache.CachedAuthorizer`), reads
through a VIG-generated read-only view of the store, and two denial
flavours — an unauthorized subject (dRBAC denial, negatively cached) and
a write through the read-only view (interface narrowing).  Results are
recorded per client in **issue order**, so a serial and a pipelined run
are directly comparable: same transcripts, different clock.

Everything is deterministic: time is virtual, the workload comes from
``random.Random`` seeded per (seed, client), process-global id counters
are pinned via the chaos harness's hermetic-counter guard, and floats in
the report are rounded — two runs with one seed emit byte-identical
JSON, which the CI smoke job diffs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any

from .. import obs
from ..crypto import KeyStore
from ..drbac import DrbacEngine
from ..drbac.cache import CachedAuthorizer
from ..hermetic import GuardedKV, harness_world
from ..obs import names as metric_names
from ..switchboard.rpc import PlainRpcEndpoint, RpcPipeline
from ..views import (
    InterfaceRegistry,
    ViewHint,
    ViewRuntime,
    Vig,
    infer_view_spec,
    interface_from_class,
)

SCHEMA = "bench-load/v1"

#: Role every legitimate load client holds; ``mallory`` never does.
CLIENT_ROLE = "Load.Client"

_KEYS = tuple(f"k{i}" for i in range(8))


class _KVReadSurface:
    """Interface template: the methods the read-only view exposes."""

    def get(self, subject: str, key: str) -> str | None: ...

    def check(self, subject: str) -> bool: ...


def _read_only_view(store: GuardedKV) -> Any:
    """A VIG-generated view of the store that cannot ``put``."""
    registry = InterfaceRegistry()
    registry.register(interface_from_class(_KVReadSurface, "LoadReadI"))
    spec = infer_view_spec(
        "ViewKVReader", GuardedKV, registry, ViewHint(allow=["get", "check"])
    )
    view_cls = Vig(registry).generate(spec, GuardedKV)
    return view_cls(ViewRuntime(local_objects={"GuardedKV": store}))


@dataclass(slots=True)
class LoadRun:
    """Measurements from one pass of the workload through one world."""

    mode: str
    batching: bool
    depth: int
    ops: int
    errors: int
    makespan_s: float
    latencies: list[float] = field(repr=False)
    transcripts: list[list[str]] = field(repr=False)
    cache: dict[str, Any] = field(repr=False)
    net: dict[str, int] = field(repr=False)
    flight: dict[str, Any] | None = field(default=None, repr=False)
    """Flight-recorder snapshot taken as the run's world wound down; the
    report surfaces it only when the serial/pipelined transcripts
    mismatch."""
    topology: list[list] | None = field(default=None, repr=False)
    """Structural client→server span topology, captured only when the run
    executed with wire tracing (``dist``) on — the differential tests
    compare it between serial and pipelined runs.  Not part of the JSON
    report."""

    @property
    def throughput(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.ops / self.makespan_s

    def to_dict(self) -> dict[str, Any]:
        ordered = sorted(self.latencies)
        return {
            "mode": self.mode,
            "batching": self.batching,
            "pipeline_depth": self.depth,
            "ops": self.ops,
            "errors": self.errors,
            "makespan_s": round(self.makespan_s, 6),
            "throughput_ops_per_s": round(self.throughput, 3),
            "latency_s": {
                "mean": round(sum(ordered) / len(ordered), 6) if ordered else 0.0,
                "p50": round(_percentile(ordered, 50), 6),
                "p95": round(_percentile(ordered, 95), 6),
                "p99": round(_percentile(ordered, 99), 6),
            },
            "cache": self.cache,
            "net": self.net,
        }


def _percentile(ordered: list[float], pct: float) -> float:
    if not ordered:
        return 0.0
    index = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[index]


class LoadGenerator:
    """Replayable seeded workload over a star of ``clients`` nodes."""

    def __init__(
        self,
        *,
        seed: int,
        clients: int = 8,
        requests: int = 40,
        depth: int = 8,
        key_store: KeyStore | None = None,
    ) -> None:
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if requests < 1:
            raise ValueError(f"requests must be >= 1, got {requests}")
        self.seed = seed
        self.clients = clients
        self.requests = requests
        self.depth = depth
        # Key material never crosses the wire, so a shared store is
        # determinism-safe and skips RSA generation in tests.
        self.key_store = key_store or KeyStore(key_bits=512)
        self._plans = [self._plan(index) for index in range(clients)]

    # -- workload -----------------------------------------------------------

    def _plan(self, client: int) -> list[tuple[str, str, list]]:
        """The client's op sequence: (target, method, args) per request."""
        rng = random.Random(f"load-{self.seed}-{client}")
        subject = f"client-{client}"
        ops: list[tuple[str, str, list]] = []
        for n in range(self.requests):
            # Keys are namespaced per client: the store is shared, so
            # cross-client writes to one key would make a client's reads
            # depend on global interleaving — which pipelining reorders —
            # and the serial/pipelined transcripts could never match.
            key = f"c{client}-{rng.choice(_KEYS)}"
            roll = rng.random()
            if roll < 0.35:
                ops.append(("KVStore", "get", [subject, key]))
            elif roll < 0.60:
                ops.append(("KVStore", "put", [subject, key, f"c{client}-n{n}"]))
            elif roll < 0.75:
                ops.append(("KVStore", "check", [subject]))
            elif roll < 0.85:
                ops.append(("StoreView", "get", [subject, key]))
            elif roll < 0.92:
                # dRBAC denial: mallory holds no Load.Client credential.
                ops.append(("KVStore", "get", ["mallory", key]))
            else:
                # Interface narrowing: the view exposes no put at all.
                ops.append(("StoreView", "put", [subject, key, "nope"]))
        return ops

    # -- one measured pass --------------------------------------------------

    def run(self, *, pipelined: bool, batching: bool) -> LoadRun:
        """Build a fresh world and push the whole workload through it."""
        with harness_world(
            seed=self.seed,
            domain="LOAD",
            clients=[f"client-{index}" for index in range(self.clients)],
        ) as world:
            scheduler, transport = world.scheduler, world.transport
            if batching:
                transport.configure_batching(max_frames=8, window=0.002)

            engine = DrbacEngine(key_store=self.key_store, clock=scheduler)
            for index in range(self.clients):
                engine.delegate("Load", f"client-{index}", CLIENT_ROLE)
            # Small and sharded on purpose: clients + mallory overflow it,
            # so the run exercises LRU churn, not just a warm cache.
            authorizer = CachedAuthorizer(engine, max_entries=8, shards=4)
            store = GuardedKV(
                authorizer,
                CLIENT_ROLE,
                initial={
                    f"c{index}-{key}": f"init-{index}-{key}"
                    for index in range(self.clients)
                    for key in _KEYS
                },
            )
            server_rpc = PlainRpcEndpoint(transport, "server")
            server_rpc.exporter.export("KVStore", store)
            server_rpc.exporter.export("StoreView", _read_only_view(store))

            depth = self.depth if pipelined else 1
            latencies: list[float] = []
            pipelines: list[RpcPipeline] = []
            for index in range(self.clients):
                rpc = PlainRpcEndpoint(transport, f"client-{index}")

                def caller(
                    target: str, method: str, args: list, *, rpc=rpc
                ) -> Any:
                    issued_at = scheduler.now()
                    pending = rpc.call("server", target, method, args)
                    pending.add_done_callback(
                        lambda _done: latencies.append(scheduler.now() - issued_at)
                    )
                    return pending

                pipeline = RpcPipeline(caller, scheduler, depth=depth)
                for op in self._plans[index]:
                    pipeline.call(*op)
                pipelines.append(pipeline)

            transcripts: list[list[str]] = []
            errors = 0
            for client_index, pipeline in enumerate(pipelines):
                entries: list[str] = []
                for op_index, result in enumerate(
                    pipeline.drain(return_exceptions=True)
                ):
                    if isinstance(result, Exception):
                        errors += 1
                        obs.event(
                            "load.error", client=client_index, op=op_index,
                            error=type(result).__name__,
                        )
                        entries.append(f"<{type(result).__name__}:{result}>")
                    else:
                        entries.append(repr(result))
                transcripts.append(entries)

            stats = authorizer.stats
            registry = obs.get_registry()
            return LoadRun(
                mode="pipelined" if pipelined else "serial",
                batching=batching,
                depth=depth,
                ops=self.clients * self.requests,
                errors=errors,
                makespan_s=scheduler.now(),
                latencies=latencies,
                transcripts=transcripts,
                cache={
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "negative_hits": stats.negative_hits,
                    "evicted": stats.evicted,
                    "invalidated": stats.invalidated,
                    "hit_rate": round(stats.hit_rate, 4),
                },
                net={
                    "messages_sent": transport.stats.messages_sent,
                    "messages_delivered": transport.stats.messages_delivered,
                    "bytes_sent": transport.stats.bytes_sent,
                    "batches_sent": transport.stats.batches_sent,
                    "frames_coalesced": transport.stats.frames_coalesced,
                    "batch_flushes": registry.counter_value(
                        metric_names.NET_BATCH_FLUSHES
                    ),
                    "pipeline_calls": registry.counter_value(
                        metric_names.RPC_PIPELINE_CALLS
                    ),
                },
                # Captured while the scoped obs state is still alive; the
                # report only surfaces it on a transcript mismatch.
                flight=obs.flight_snapshot("load.transcript_mismatch"),
                topology=(
                    _trace_topology(obs.get_tracer())
                    if obs.dist_enabled()
                    else None
                ),
            )

    # -- the comparison report ----------------------------------------------

    def report(self) -> dict[str, Any]:
        """Serial vs pipelined+batched, with the differential check inline."""
        serial = self.run(pipelined=False, batching=False)
        fast = self.run(pipelined=True, batching=True)
        speedup = (
            serial.makespan_s / fast.makespan_s if fast.makespan_s > 0 else 0.0
        )
        match = serial.transcripts == fast.transcripts
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "clients": self.clients,
            "requests_per_client": self.requests,
            "serial": serial.to_dict(),
            "pipelined": fast.to_dict(),
            "speedup": round(speedup, 3),
            "transcripts_match": match,
            "transcript_digest": transcript_digest(fast.transcripts),
            # Post-mortem payload only when the differential check failed;
            # None on clean runs keeps the report byte-stable.
            "flight": None if match else {
                "serial": serial.flight,
                "pipelined": fast.flight,
            },
        }


def _trace_topology(tracer: obs.Tracer) -> list[list]:
    """Per-call ``[node, target, method, server_spans]`` rows, grouped by
    client and ordered by issue within each client.

    This is the *structural* shape of the distributed trace — which calls
    left which client and how many server-side spans stitched to each —
    deliberately excluding transport decoration (``net.transmit`` spans,
    batch membership) and timing, both of which batching and pipelining
    legitimately change.
    """
    servers_by_trace: dict[int, int] = {}
    for root in tracer.finished:
        if root.name == "rpc.server":
            servers_by_trace[root.trace_id] = (
                servers_by_trace.get(root.trace_id, 0) + 1
            )
    calls = []
    for root in tracer.finished:
        if root.name == "rpc.client":
            calls.append((
                str(root.attributes.get("node")),
                root.start,
                root.span_id,
                str(root.attributes.get("target")),
                str(root.attributes.get("method")),
                servers_by_trace.get(root.trace_id, 0),
            ))
    # Span ids mint in issue order, so (node, start, span_id) reproduces
    # per-client issue order regardless of completion interleaving.
    calls.sort(key=lambda c: (c[0], c[1], c[2]))
    return [[node, target, method, servers]
            for node, _start, _sid, target, method, servers in calls]


def transcript_digest(transcripts: list[list[str]]) -> str:
    payload = json.dumps(transcripts, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def passed(report: dict[str, Any]) -> bool:
    """The differential gate: serial and pipelined transcripts agree."""
    return report["transcripts_match"]


def summarize(report: dict[str, Any], elapsed_s: float) -> str:
    """The human-readable ``repro bench-load`` summary."""
    fast = report["pipelined"]
    lines = [
        f"bench-load seed={report['seed']} clients={report['clients']} "
        f"requests={report['requests_per_client']} "
        f"depth={fast['pipeline_depth']}"
    ]
    for label, run in (("serial   ", report["serial"]), ("pipelined", fast)):
        lat = run["latency_s"]
        lines.append(
            f"  {label}: makespan {run['makespan_s']:.4f}s  "
            f"throughput {run['throughput_ops_per_s']:.1f} ops/s  "
            f"p50 {lat['p50'] * 1000:.2f}ms  p95 {lat['p95'] * 1000:.2f}ms  "
            f"p99 {lat['p99'] * 1000:.2f}ms"
        )
    lines.append(
        f"  speedup: {report['speedup']:.2f}x  "
        f"transcripts match: {'yes' if report['transcripts_match'] else 'NO'}  "
        f"cache hit-rate: {fast['cache']['hit_rate']:.3f}"
    )
    lines.append(
        f"  batching: {fast['net']['batches_sent']} batches carried "
        f"{fast['net']['frames_coalesced']} of {fast['net']['messages_sent']} "
        f"frames"
    )
    return "\n".join(lines)


def run_bench(
    *,
    seed: int,
    clients: int,
    requests: int = 40,
    depth: int = 8,
    key_store: KeyStore | None = None,
) -> dict[str, Any]:
    """Build, run, and report — the ``repro bench-load`` workhorse."""
    generator = LoadGenerator(
        seed=seed,
        clients=clients,
        requests=requests,
        depth=depth,
        key_store=key_store,
    )
    return generator.report()
