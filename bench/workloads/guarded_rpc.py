"""``guarded_rpc`` — cache-hit authorization in front of plain RPC.

The ``bench-load`` shape rebuilt from layer APIs: client nodes star-linked
to one server, an authorization-guarded key-value object plus its
VIG-generated read-only view exported on a ``PlainRpcEndpoint``, and a
deliberately small sharded ``CachedAuthorizer``.  ``switchboard.rpc``,
``net``, the JSON codec, the scheduler and ``obs`` do nearly all the work;
crypto and proof search do almost none.
"""

from __future__ import annotations

import random
from typing import Any

from harness import (
    KEY_BITS,
    Recorder,
    Workload,
    cache_counts,
    deck,
    now_ns,
    transport_counts,
)
from repro.crypto import KeyStore
from repro.drbac import CachedAuthorizer, DrbacEngine
from repro.net import EventScheduler, Network, Transport
from repro.switchboard import PlainRpcEndpoint, RemoteError
from repro.switchboard.rpc import RpcPipeline
from repro.views import (
    InterfaceRegistry,
    ViewHint,
    ViewRuntime,
    Vig,
    infer_view_spec,
    interface_from_class,
)

ROLE = "Load.Client"
CLIENTS = 8
NEWCOMERS = 16
"""Nodes that only ever make one call: their first (``first_call_ms``)."""
KEYS = tuple(f"k{i}" for i in range(8))
ROSTER = ("Load", "server", "mallory", "auditor") + tuple(
    f"client-{i}" for i in range(CLIENTS)
)
"""Principals whose key pairs the preparation materialises (12, so the
summed keygen time averages out a single keygen's CV ~0.5)."""

GET, PUT, CHECK, VIEW_GET, MALLORY_GET, VIEW_PUT = range(6)
MIX = (35, 25, 15, 10, 7, 8)

DENIED = "<denied>"
NARROWED = "<no-such-method>"


class KVStore:
    """Authorization-guarded key-value store, the exported service."""

    def __init__(self, authorizer: CachedAuthorizer, initial: dict[str, str]) -> None:
        self._authorizer = authorizer
        self._data = dict(initial)

    def get(self, subject: str, key: str) -> str | None:
        self._authorizer.authorize(subject, ROLE)
        return self._data.get(key)

    def put(self, subject: str, key: str, value: str) -> str | None:
        self._authorizer.authorize(subject, ROLE)
        old = self._data.get(key)
        self._data[key] = value
        return old

    def check(self, subject: str) -> bool:
        return self._authorizer.is_authorized(subject, ROLE)


class _ReadSurface:
    """Interface template: the methods the read-only view exposes."""

    def get(self, subject: str, key: str) -> str | None: ...

    def check(self, subject: str) -> bool: ...


class World:
    def __init__(self) -> None:
        self.scheduler = EventScheduler()
        self.network = Network()
        self.transport = Transport(self.network, self.scheduler)
        self.authorizer: CachedAuthorizer
        self.clients: list[PlainRpcEndpoint] = []


Op = tuple[str, str, list, Any]
"""(target, method, args, expected outcome from the dict model)."""


class GuardedRpc(Workload):
    name = "guarded_rpc"
    deterministic = True

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        per_client = 25 if smoke else 750
        serial = 100 if smoke else 1500
        self.warm_ops = 30 if smoke else 300
        rng = random.Random(f"guarded_rpc-{seed}")
        # The oracle: a plain dict stepped through each client's ops in
        # issue order.  Keys are namespaced per client, so the pipelined
        # interleaving across clients cannot change any expected value.
        model = initial_data()
        self.warm_plan = self._plan(rng, 0, self.warm_ops, dict(model))
        self.pipelined = [
            self._plan(rng, client, per_client, model) for client in range(CLIENTS)
        ]
        self.serial = self._plan(rng, 0, serial, model)

    @staticmethod
    def _plan(rng: random.Random, client: int, count: int, model: dict) -> list[Op]:
        subject = f"client-{client}"
        ops: list[Op] = []
        for n, kind in enumerate(deck(rng, count, MIX)):
            key = f"c{client}-{rng.choice(KEYS)}"
            if kind == GET:
                ops.append(("KVStore", "get", [subject, key], model[key]))
            elif kind == PUT:
                value = f"c{client}-n{n}"
                ops.append(("KVStore", "put", [subject, key, value], model[key]))
                model[key] = value
            elif kind == CHECK:
                ops.append(("KVStore", "check", [subject], True))
            elif kind == VIEW_GET:
                ops.append(("StoreView", "get", [subject, key], model[key]))
            elif kind == MALLORY_GET:
                # dRBAC denial: mallory holds no Load.Client credential.
                ops.append(("KVStore", "get", ["mallory", key], DENIED))
            else:
                # Interface narrowing: the view exposes no put at all.
                ops.append(("StoreView", "put", [subject, key, "nope"], NARROWED))
        return ops

    # -- set-up ---------------------------------------------------------------

    def prepare(self) -> dict:
        key_store = KeyStore(key_bits=KEY_BITS)
        for name in ROSTER:
            key_store.identity(name)
        signer = DrbacEngine(key_store=key_store)
        pool = [signer.delegate("Load", name, ROLE, publish=False) for name in members()]
        return {"key_store": key_store, "pool": pool}

    def build(self, prep: dict) -> World:
        world = World()
        network = world.network
        network.add_node("server", domain="LOAD")
        for name in members():
            network.add_node(name, domain="LOAD")
            network.add_link(
                name, "server", latency_s=0.004, bandwidth_bps=8e6, secure=False
            )
        engine = DrbacEngine(key_store=prep["key_store"], clock=world.scheduler)
        for delegation in prep["pool"]:
            engine.repository.publish(delegation)
        # Small and sharded on purpose: clients + mallory overflow it, so
        # the run exercises LRU churn, not just a warm cache.
        world.authorizer = CachedAuthorizer(engine, max_entries=8, shards=4)
        store = KVStore(world.authorizer, initial_data())
        server = PlainRpcEndpoint(world.transport, "server")
        server.exporter.export("KVStore", store)
        server.exporter.export("StoreView", read_only_view(store))
        world.clients = [
            PlainRpcEndpoint(world.transport, f"client-{i}") for i in range(CLIENTS)
        ]
        return world

    def warm_up(self, world: World) -> None:
        for target, method, args, _expected in self.warm_plan:
            outcome(lambda: world.clients[0].call_sync("server", target, method, args))
        # The warm-up wrote through client 0's keys; put the store back.
        for key, value in initial_data().items():
            if key.startswith("c0-"):
                world.clients[0].call_sync(
                    "server", "KVStore", "put", ["client-0", key, value]
                )

    # -- the measured phase -----------------------------------------------------

    def measure(self, world: World, rec: Recorder) -> None:
        scheduler, transport = world.scheduler, world.transport
        for index in range(1 if self.smoke else NEWCOMERS):
            name = f"late-{index}"
            start = rec.begin()
            rpc = PlainRpcEndpoint(transport, name)
            got = rpc.call_sync("server", "KVStore", "get", [name, "c0-k0"])
            rec.first_call(now_ns() - start)
            rec.check(got == "init-0-k0")

        # Phase A (throughput): every client drains its plan through a
        # depth-8 pipeline over a batching transport.
        transport.configure_batching(max_frames=8, window=0.002)
        virt_start = scheduler.now()
        start = now_ns()
        pipelines = []
        for rpc, plan in zip(world.clients, self.pipelined):
            pipeline = RpcPipeline(
                lambda target, method, args, rpc=rpc: rpc.call(
                    "server", target, method, args
                ),
                scheduler,
                depth=8,
            )
            for target, method, args, _expected in plan:
                pipeline.call(target, method, args)
            pipelines.append(pipeline)
        results = [p.drain(return_exceptions=True) for p in pipelines]
        wall_ns = now_ns() - start
        virt = scheduler.now() - virt_start
        transport.disable_batching()
        correct = 0
        for plan, got in zip(self.pipelined, results):
            for (_t, _m, _a, expected), result in zip(plan, got):
                rec.op += 1
                rec.attempted += 1
                seen = classify(result)
                rec.check(seen == expected, repr(seen))
                correct += seen == expected
        rec.window(correct, wall_ns, virt)

        # Phase B (latency): one client, one synchronous call at a time.
        rpc = world.clients[0]
        for target, method, args, expected in self.serial:
            start = rec.begin()
            seen = outcome(lambda: rpc.call_sync("server", target, method, args))
            rec.latencies_ns.append(now_ns() - start)
            rec.check(seen == expected, repr(seen))

    def counts(self, world: World, registry) -> dict[str, float]:
        out = transport_counts(world.transport)
        out.update(cache_counts(world.authorizer, registry))
        out["switchboard.pipeline_calls"] = registry.counter_value(
            "switchboard.rpc.pipeline.calls"
        )
        out["switchboard.calls_failed"] = registry.counter_value(
            "switchboard.rpc.failures"
        )
        return out


def members() -> list[str]:
    """Every principal that holds the role: the clients and the newcomers."""
    return [f"client-{i}" for i in range(CLIENTS)] + [
        f"late-{i}" for i in range(NEWCOMERS)
    ]


def initial_data() -> dict[str, str]:
    return {
        f"c{client}-{key}": f"init-{client}-{key}"
        for client in range(CLIENTS)
        for key in KEYS
    }


def read_only_view(store: KVStore) -> Any:
    """A VIG-generated view of the store that cannot ``put``."""
    registry = InterfaceRegistry()
    registry.register(interface_from_class(_ReadSurface, "LoadReadI"))
    spec = infer_view_spec(
        "ViewKVReader", KVStore, registry, ViewHint(allow=["get", "check"])
    )
    view_cls = Vig(registry).generate(spec, KVStore)
    return view_cls(ViewRuntime(local_objects={"KVStore": store}))


def classify(result: Any) -> Any:
    """Map a call's result or error onto the oracle's outcome alphabet."""
    if isinstance(result, RemoteError):
        text = str(result)
        if text.startswith("AuthorizationError"):
            return DENIED
        if "no callable method" in text:
            return NARROWED
    if isinstance(result, Exception):
        return f"<{type(result).__name__}>"
    return result


def outcome(call) -> Any:
    try:
        return classify(call())
    except RemoteError as exc:
        return classify(exc)
