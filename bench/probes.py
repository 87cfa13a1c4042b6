"""Per-layer probes: wall time of calls into each layer's public callables.

Every probe times calls from here, on inputs shaped like the workloads',
and reports the median.  They are the same for every workload — they
describe the layers, not the traffic — and have no regression bound: an
optimisation is judged by the end-to-end metric its layer metric should
move (see the table in ``README.md``), not by the probe.

A probe that raises (its callable was renamed or removed) prints
``LAYER-COVERAGE-LOST probe:<name>`` and its metrics read null.
"""

from __future__ import annotations

import itertools
import json
import statistics
import traceback
from time import perf_counter_ns
from typing import Any, Callable

from harness import KEY_BITS, Recorder, run_rep
from repro import obs
from repro.crypto import AuthenticatedCipher, DiffieHellman, KeyStore, generate_keypair
from repro.drbac import (
    CachedAuthorizer,
    Delegation,
    DelegationType,
    DrbacEngine,
    EntityRef,
    ProofVerifier,
    Role,
)
from repro.errors import AuthorizationError
from repro.mail import (
    VIEW_MAIL_CLIENT_MEMBER,
    VIEW_MAIL_SERVER_SPEC,
    Decryptor,
    Encryptor,
    MailClient,
    MailServer,
    build_scenario,
)
from repro.net import EventScheduler, Network, Transport
from repro.psf import ServiceRequest
from repro.switchboard import (
    AuthorizationSuite,
    ChannelState,
    PlainRpcEndpoint,
    RoleAuthorizer,
    SwitchboardEndpoint,
)
from repro.switchboard.rpc import decode_frame, encode_frame
from repro.views import ImageService, Vig
from workloads import guarded_rpc, mail_deploy, secure_session

Metrics = dict[str, tuple[float | None, str]]

UNITS = {
    "crypto.keygen_ms": "ms",
    "crypto.rsa_sign_us": "us",
    "crypto.rsa_verify_us": "us",
    "crypto.dh_exchange_us": "us",
    "crypto.cipher_small_us": "us",
    "crypto.cipher_us_per_kib": "us",
    "switchboard.codec_us": "us",
    "switchboard.plain_call_us": "us",
    "switchboard.channel_call_us": "us",
    "switchboard.handshake_ms": "ms",
    "switchboard.revoke_cutoff_us": "us",
    "net.send_deliver_us": "us",
    "net.route_us": "us",
    "net.route_mail_us": "us",
    "net.sched_event_us": "us",
    "drbac.cache_hit_us": "us",
    "drbac.cache_neg_hit_us": "us",
    "drbac.cache_miss_us": "us",
    "drbac.proof_search_us": "us",
    "drbac.proof_search_deny_us": "us",
    "drbac.publish_us": "us",
    "drbac.revoke_us": "us",
    "drbac.verify_chain_us": "us",
    "views.vig_generate_ms": "ms",
    "views.dispatch_overhead_us": "us",
    "views.acl_resolve_us": "us",
    "views.coherence_call_us": "us",
    "views.image_bytes": "bytes",
    "psf.plan_us": "us",
    "psf.deploy_ms": "ms",
    "psf.scenario_build_ms": "ms",
    "mail.encdec_us": "us",
    "flow.admit_us": "us",
    "durable.wal_append_us": "us",
    "durable.recover_ms": "ms",
    "obs.span_us": "us",
    "obs.counter_inc_us": "us",
    "obs.overhead_frac": "ratio",
}


def median_ns(fn: Callable[[], Any], calls: int) -> float:
    """Median wall time of ``calls`` individually timed calls."""
    samples = []
    for _ in range(calls):
        start = perf_counter_ns()
        fn()
        samples.append(perf_counter_ns() - start)
    return statistics.median(samples)


def batched_ns(fn: Callable[[], Any], batches: int, batch: int) -> float:
    """Per-call time of a sub-microsecond op, timed ``batch`` at a time."""
    def run() -> None:
        for _ in range(batch):
            fn()
    return median_ns(run, batches) / batch


class Context:
    """Worlds the probes share, built from one prepared key store."""

    def __init__(self) -> None:
        self.key_store = KeyStore(key_bits=KEY_BITS)
        self.keygen_ns: list[int] = []
        for name in mail_deploy.ROSTER + ("Load",):
            start = perf_counter_ns()
            self.key_store.identity(name)
            self.keygen_ns.append(perf_counter_ns() - start)
        self.pool = [generate_keypair(KEY_BITS)]
        self.scenario = self.build_scenario()
        self.echo = self.echo_world()

    def build_scenario(self):
        # Instance identities cycle over one pooled key: the probes time
        # deployment, not keygen.
        return build_scenario(key_store=mail_deploy.PooledKeyStore(
            self.key_store, itertools.cycle(self.pool)
        ))

    def echo_world(self) -> dict:
        """Two nodes, one link, an echo object behind both RPC flavours."""
        scheduler = EventScheduler()
        network = Network()
        network.add_node("c")
        network.add_node("s")
        network.add_link("c", "s", latency_s=0.004, bandwidth_bps=8e6, secure=False)
        transport = Transport(network, scheduler)
        engine = DrbacEngine(key_store=self.key_store, clock=scheduler)
        server = SwitchboardEndpoint(transport, "s")
        server.export("echo", secure_session.Echo())
        server.listen("echo", AuthorizationSuite(
            identity=engine.identity("MailServer"),
            authorizer=RoleAuthorizer(engine, "Comp.NY.Member"),
        ))
        plain_server = PlainRpcEndpoint(transport, "s")
        plain_server.exporter.export("echo", secure_session.Echo())
        return {
            "scheduler": scheduler, "network": network, "transport": transport,
            "engine": engine, "server": server,
            "client": SwitchboardEndpoint(transport, "c"),
            "plain": PlainRpcEndpoint(transport, "c"),
        }

    def connect(self, credential: Delegation):
        world = self.echo
        suite = AuthorizationSuite(
            identity=world["engine"].identity("Alice"), credentials=[credential]
        )
        return world["client"].connect("s", "echo", suite).wait()


# -- the probes -------------------------------------------------------------------

def crypto(ctx: Context) -> dict[str, float]:
    key = ctx.key_store.identity("Alice").private_key
    message = b"m" * 256
    signature = key.sign(message)
    public = key.public_key

    def exchange() -> None:
        a, b = DiffieHellman(), DiffieHellman()
        a.compute_shared(b.public_value)
        b.compute_shared(a.public_value)

    cipher = AuthenticatedCipher(b"k" * 32)
    small, large = b"s" * 64, b"l" * 16384
    return {
        "crypto.keygen_ms": statistics.median(ctx.keygen_ns) / 1e6,
        "crypto.rsa_sign_us": median_ns(lambda: key.sign(message), 100) / 1e3,
        "crypto.rsa_verify_us":
            median_ns(lambda: public.verify(message, signature), 200) / 1e3,
        "crypto.dh_exchange_us": median_ns(exchange, 20) / 1e3,
        "crypto.cipher_small_us":
            median_ns(lambda: cipher.decrypt(cipher.encrypt(small, b"ad"), b"ad"), 200)
            / 1e3,
        "crypto.cipher_us_per_kib":
            median_ns(lambda: cipher.decrypt(cipher.encrypt(large, b"ad"), b"ad"), 30)
            / 1e3 / 16,
    }


def switchboard(ctx: Context) -> dict[str, float]:
    world = ctx.echo
    engine = world["engine"]
    frame = {"type": "call", "call_id": 12, "target": "KVStore", "method": "get",
             "args": ["client-3", "c3-k5"], "reply_to": "client-3"}
    credential = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member", publish=False)
    connection = ctx.connect(credential)
    payload = ["x" * 64]
    out = {
        "switchboard.codec_us":
            median_ns(lambda: decode_frame(encode_frame(frame)), 1000) / 1e3,
        "switchboard.plain_call_us":
            median_ns(lambda: world["plain"].call_sync("s", "echo", "ping", payload), 500)
            / 1e3,
        "switchboard.channel_call_us":
            median_ns(lambda: connection.call_sync("echo", "ping", payload), 300) / 1e3,
    }
    connection.close()
    out["switchboard.handshake_ms"] = median_ns(
        lambda: ctx.connect(credential).close(), 20
    ) / 1e6

    cutoffs = []
    for _ in range(10):
        fresh = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member", publish=False)
        connection = ctx.connect(fresh)
        peer = next(
            c for c in world["server"].connections() if c.conn_id == connection.conn_id
        )
        start = perf_counter_ns()
        engine.revoke(fresh)
        while connection.state is not ChannelState.REVOKED:
            world["scheduler"].step()
        cutoffs.append(perf_counter_ns() - start)
        assert peer.state is ChannelState.REVOKED
        connection.close()
    out["switchboard.revoke_cutoff_us"] = statistics.median(cutoffs) / 1e3
    return out


def net(ctx: Context) -> dict[str, float]:
    scheduler = EventScheduler()
    network = Network()
    network.add_node("a")
    network.add_node("b")
    network.add_link("a", "b", latency_s=0.004, bandwidth_bps=8e6)
    network.node("b").bind("sink", lambda payload, sender: None)
    transport = Transport(network, scheduler)
    payload = b"p" * 120

    def send_deliver() -> None:
        transport.send("a", "b", "sink", payload)
        scheduler.run()

    star = guarded_rpc.GuardedRpc(7, True).build(
        {"key_store": ctx.key_store, "pool": []}
    ).network
    mail = ctx.scenario.psf.network

    def event() -> None:
        scheduler.schedule(0.001, _noop)
        scheduler.step()

    return {
        "net.send_deliver_us": median_ns(send_deliver, 1000) / 1e3,
        "net.route_us": median_ns(lambda: route_pair(star), 500) / 1e3 / 2,
        "net.route_mail_us":
            median_ns(lambda: mail.shortest_path("sd-pc1", "ny-server"), 500) / 1e3,
        "net.sched_event_us": batched_ns(event, 50, 100) / 1e3,
    }


def route_pair(star: Network) -> None:
    """A request's route and its reply's: the hub has every leaf to relax."""
    star.shortest_path("client-0", "server")
    star.shortest_path("server", "client-0")


def _noop() -> None:
    pass


def drbac(ctx: Context) -> dict[str, float]:
    signer = DrbacEngine(key_store=ctx.key_store)
    users = [f"user{i}" for i in range(50)]
    signed = [
        signer.delegate("Comp.NY", user, "Comp.NY.Member", publish=False)
        for user in users
    ]
    engine = DrbacEngine(key_store=ctx.key_store)
    publishes = []
    for delegation in signed:
        start = perf_counter_ns()
        engine.repository.publish(delegation)
        publishes.append(perf_counter_ns() - start)
    cache = CachedAuthorizer(engine, max_entries=64, shards=4)

    def denied() -> None:
        try:
            cache.authorize("mallory", "Comp.NY.Member")
        except AuthorizationError:
            pass

    cache.authorize(users[0], "Comp.NY.Member")
    denied()
    out = {
        "drbac.cache_hit_us":
            median_ns(lambda: cache.authorize(users[0], "Comp.NY.Member"), 1000) / 1e3,
        "drbac.cache_neg_hit_us": median_ns(denied, 1000) / 1e3,
        "drbac.publish_us": statistics.median(publishes) / 1e3,
    }
    misses = []
    for _ in range(4):
        cache.clear()
        for user in users:
            start = perf_counter_ns()
            cache.authorize(user, "Comp.NY.Member")
            misses.append(perf_counter_ns() - start)
    out["drbac.cache_miss_us"] = statistics.median(misses) / 1e3
    # Revocation with a live cache entry behind every credential: the
    # monitor fan-out and the eviction are part of the call.
    revokes = []
    for delegation in signed:
        start = perf_counter_ns()
        engine.revoke(delegation)
        revokes.append(perf_counter_ns() - start)
    out["drbac.revoke_us"] = statistics.median(revokes) / 1e3

    # Full proof search and chain verification on the Table 2 graph.
    table2 = ctx.scenario.engine
    out["drbac.proof_search_us"] = median_ns(
        lambda: table2.find_proof("Charlie", "Comp.NY.Partner"), 200
    ) / 1e3
    out["drbac.proof_search_deny_us"] = median_ns(
        lambda: table2.find_proof("Charlie", "Comp.NY.Member"), 200
    ) / 1e3
    proof = table2.find_proof("Charlie", "Comp.NY.Partner")
    assert proof is not None and len(proof.all_delegations()) == 3
    verifier = ProofVerifier({
        name: ctx.key_store.public(name) for name in ctx.key_store.known_names()
    })
    out["drbac.verify_chain_us"] = median_ns(lambda: verifier.verify(proof), 50) / 1e3
    return out


def views(ctx: Context) -> dict[str, float]:
    scenario = ctx.scenario
    interfaces = scenario.psf.registrar.interfaces
    out = {
        "views.vig_generate_ms": median_ns(
            lambda: Vig(interfaces).generate(VIEW_MAIL_CLIENT_MEMBER, MailClient), 30
        ) / 1e6,
    }

    class Granting:
        def authorize(self, subject, role):
            pass

    store = guarded_rpc.KVStore(Granting(), guarded_rpc.initial_data())
    view = guarded_rpc.read_only_view(store)
    direct = batched_ns(lambda: store.get("client-0", "c0-k0"), 50, 100)
    through = batched_ns(lambda: view.get("client-0", "c0-k0"), 50, 100)
    out["views.dispatch_overhead_us"] = (through - direct) / 1e3

    policy = scenario.psf.registrar.policy("MailClient")
    clients = [
        (name, scenario.wallets[name].credentials() if name in scenario.wallets else None)
        for name in ("Alice", "Bob", "Charlie", "Stranger")
    ]

    def resolve_all() -> None:
        for name, credentials in clients:
            policy.resolve(name, scenario.engine, credentials)

    out["views.acl_resolve_us"] = median_ns(resolve_all, 50) / 1e3 / len(clients)

    # A call through the ViewMailServer cache at a fixed 20-message mailbox.
    for n in range(20):
        scenario.server.sendMail({"sender": "Bob", "recipient": "Alice",
                                  "subject": f"p{n}", "body": mail_deploy.BODY})
    _client, node, qos = mail_deploy.REQUESTS[1]
    session = scenario.psf.request_service(
        ServiceRequest(client="Bob", client_node=node, interface="MailI", qos=qos)
    )
    assert session.plan.deployed_names() == ["ViewMailServer"]
    out["views.coherence_call_us"] = median_ns(
        lambda: session.access.fetchMail("Alice"), 50
    ) / 1e3
    image = ImageService(scenario.server).extract_image(
        list(VIEW_MAIL_SERVER_SPEC.replicated_fields)
    )
    out["views.image_bytes"] = len(json.dumps(image))
    return out


def psf(ctx: Context) -> dict[str, float]:
    scenario = ctx.build_scenario()
    requests = [
        ServiceRequest(client=client, client_node=node, interface="MailI", qos=qos)
        for client, node, qos in mail_deploy.REQUESTS
    ]
    planner = scenario.psf.planner()

    def plan_all() -> None:
        for request in requests:
            planner.plan(request)

    def deploy() -> None:
        scenario.psf.deployer.deploy(planner.plan(requests[1])).client_access()

    return {
        "psf.plan_us": median_ns(plan_all, 30) / 1e3 / len(requests),
        "psf.deploy_ms": median_ns(deploy, 5) / 1e6,
        "psf.scenario_build_ms": median_ns(ctx.build_scenario, 5) / 1e6,
    }


def mail(ctx: Context) -> dict[str, float]:
    chain = Decryptor(Encryptor(MailServer()))
    message = {"sender": "Bob", "recipient": "Alice", "subject": "s",
               "body": mail_deploy.BODY}
    return {"mail.encdec_us": median_ns(lambda: chain.sendMail(message), 200) / 1e3}


def flow(ctx: Context) -> dict[str, float]:
    # Imported here: no workload needs this layer, so losing it must cost
    # this probe alone.
    from repro.flow import FlowConfig, FlowController

    scheduler = EventScheduler()
    controller = FlowController(
        FlowConfig(bucket_rate=1e9, bucket_burst=1e9, max_backlog=10**6), scheduler
    )

    def admit() -> None:
        controller.submit("client-0", "KVStore", "get", _noop)
        scheduler.run()

    return {"flow.admit_us": median_ns(admit, 1000) / 1e3}


def durable(ctx: Context) -> dict[str, float]:
    from repro.durable import DurableNode, SimDisk, UpdateFeed, WriteAheadLog

    log = WriteAheadLog(SimDisk(), compact_every=10**9)
    record = {"seq": 1, "kind": "revoke", "payload": {"id": "cred-1", "home": "Comp.NY"}}
    out = {"durable.wal_append_us": median_ns(lambda: log.append(record), 1000) / 1e3}

    # A 500-record log.  Recovery never checks signatures, so the records
    # carry well-formed credentials with a dummy signature of the real
    # length instead of 500 RSA signs.
    engine = DrbacEngine(key_store=ctx.key_store)
    feed = UpdateFeed()
    node = DurableNode(
        engine=engine, cache=CachedAuthorizer(engine), feed=feed, compact_every=10**9
    )
    role = Role("Comp.NY", "Member")
    for n in range(500):
        feed.publish(Delegation(
            subject=EntityRef(f"user{n}"), role=role, issuer="Comp.NY",
            delegation_type=DelegationType.SELF_CERTIFYING,
            credential_id=f"probe-{n}", signature=bytes(KEY_BITS // 8),
        ))

    def recover() -> None:
        node.crash()
        node.restart()

    out["durable.recover_ms"] = median_ns(recover, 5) / 1e6
    return out


def observability(ctx: Context) -> dict[str, float]:
    def span() -> None:
        with obs.span("bench.probe"):
            pass

    with obs.scoped(enabled=True):
        out = {
            "obs.span_us": batched_ns(span, 50, 100) / 1e3,
            "obs.counter_inc_us":
                batched_ns(lambda: obs.counter("bench.probe").inc(), 50, 100) / 1e3,
        }
    # guarded_rpc's pipelined phase with observability off against on.
    workload = guarded_rpc.GuardedRpc(7, False)
    signer = DrbacEngine(key_store=ctx.key_store)
    prep = {
        "key_store": ctx.key_store,
        "pool": [
            signer.delegate("Load", name, guarded_rpc.ROLE, publish=False)
            for name in guarded_rpc.members()
        ],
    }
    walls: dict[bool, list[float]] = {True: [], False: []}
    for enabled in (True, False, True, False):
        rep = run_rep(workload, prep, Recorder(), obs_enabled=enabled)
        walls[enabled].append(rep.rec.window_ns)
    out["obs.overhead_frac"] = (
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    )
    return out


PROBES = (crypto, switchboard, net, drbac, views, psf, mail, flow, durable,
          observability)


def run_all() -> Metrics:
    """Every probe metric, name -> (value or None, unit)."""
    values: dict[str, float] = {}
    ctx = None
    for probe in PROBES:
        try:
            ctx = ctx or Context()
            values.update(probe(ctx))
        except Exception:  # noqa: BLE001 - one lost probe must not sink the run
            print(f"LAYER-COVERAGE-LOST probe:{probe.__name__}")
            traceback.print_exc()
    return {name: (values.get(name), unit) for name, unit in UNITS.items()}
