"""``secure_session`` — the paper's central mechanism, Switchboard channels.

Client principals each hold one signed ``Member`` credential; a service
listens behind a ``RoleAuthorizer``.  Every session is a full handshake
(mutual RSA authentication, credential exchange, proof, Diffie-Hellman),
a run of echo calls of mixed payload size, heartbeats, and either a close
or a revocation that must cut the channel at both ends.  ``crypto`` and
``switchboard.channel`` dominate; the authorization cache and proof search
are nearly idle.
"""

from __future__ import annotations

import random

from harness import KEY_BITS, Recorder, Workload, deck, now_ns, transport_counts
from repro.crypto import KeyStore
from repro.drbac import DrbacEngine
from repro.errors import ChannelClosedError
from repro.net import EventScheduler, Network, Transport
from repro.switchboard import (
    AuthorizationSuite,
    ChannelState,
    RoleAuthorizer,
    SwitchboardEndpoint,
)

DOMAIN = "Svc"
ROLE = "Svc.Member"
MEMBERS = tuple(f"member-{i}" for i in range(8))
ROSTER = (DOMAIN, "EchoSvc", "auditor", "mallory") + MEMBERS
SIZES = ((64, 0.70), (1024, 0.25), (16384, 0.05))
REVOKE_EVERY = 4


class Echo:
    def ping(self, payload: str) -> str:
        return payload


class World:
    def __init__(self, key_store: KeyStore) -> None:
        self.scheduler = EventScheduler()
        self.network = Network()
        self.transport = Transport(self.network, self.scheduler)
        self.engine = DrbacEngine(key_store=key_store, clock=self.scheduler)
        self.server: SwitchboardEndpoint
        self.clients: dict[str, SwitchboardEndpoint] = {}
        self.credentials: dict = {}
        self.heartbeats_answered = 0


class SecureSession(Workload):
    name = "secure_session"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        sessions = 4 if smoke else 8
        calls = 20 if smoke else 100
        rng = random.Random(f"secure_session-{seed}")
        sizes, weights = zip(*SIZES)
        self.sessions = [
            [sizes[card] for card in deck(rng, calls, weights)]
            for _ in range(sessions)
        ]
        self.warm_sizes = [
            sizes[card] for card in deck(rng, 30 if smoke else 300, weights)
        ]
        # One payload object per size: the echo is compared by value.
        self.payloads = {size: "x" * size for size in sizes}

    def prepare(self) -> dict:
        key_store = KeyStore(key_bits=KEY_BITS)
        for name in ROSTER:
            key_store.identity(name)
        signer = DrbacEngine(key_store=key_store)
        pool = {
            member: signer.delegate(DOMAIN, member, ROLE, publish=False)
            for member in MEMBERS
        }
        return {"key_store": key_store, "pool": pool}

    def build(self, prep: dict) -> World:
        world = World(prep["key_store"])
        world.network.add_node("s")
        world.server = SwitchboardEndpoint(world.transport, "s")
        world.server.export("echo", Echo())
        world.server.listen(
            "echo",
            AuthorizationSuite(
                identity=world.engine.identity("EchoSvc"),
                authorizer=RoleAuthorizer(world.engine, ROLE),
            ),
        )
        for index, member in enumerate(MEMBERS):
            node = f"c{index}"
            world.network.add_node(node)
            world.network.add_link(
                node, "s", latency_s=0.004, bandwidth_bps=8e6, secure=False
            )
            world.clients[member] = SwitchboardEndpoint(world.transport, node)
        world.credentials = dict(prep["pool"])
        return world

    def _connect(self, world: World, member: str):
        suite = AuthorizationSuite(
            identity=world.engine.identity(member),
            credentials=[world.credentials[member]],
        )
        return world.clients[member].connect("s", "echo", suite).wait()

    def warm_up(self, world: World) -> None:
        connection = self._connect(world, MEMBERS[0])
        for size in self.warm_sizes:
            connection.call_sync("echo", "ping", [self.payloads[size]])
        connection.close()

    def measure(self, world: World, rec: Recorder) -> None:
        scheduler = world.scheduler
        payloads = self.payloads
        virt_start = scheduler.now()
        wall_start = now_ns()
        for index, sizes in enumerate(self.sessions):
            member = MEMBERS[index % len(MEMBERS)]
            start = rec.begin()
            connection = self._connect(world, member)
            first = connection.call_sync("echo", "ping", [payloads[64]])
            rec.first_call(now_ns() - start)
            rec.check(first == payloads[64])
            connection.start_heartbeats(1.0)
            for size in sizes:
                payload = payloads[size]
                start = rec.begin()
                echoed = connection.call_sync("echo", "ping", [payload])
                rec.latencies_ns.append(now_ns() - start)
                rec.check(echoed == payload)
            if index % REVOKE_EVERY == REVOKE_EVERY - 1:
                self._revoke(world, rec, member, connection)
            world.heartbeats_answered += connection.stats.heartbeats_answered
            connection.close()
        rec.window(
            rec.attempted - rec.failed,
            now_ns() - wall_start,
            scheduler.now() - virt_start,
        )

    def _revoke(self, world: World, rec: Recorder, member: str, connection) -> None:
        """Revoke mid-session: both ends must read REVOKED and the next
        call must be refused; then the member is re-issued a credential."""
        rec.begin()
        peer = next(
            c for c in world.server.connections() if c.conn_id == connection.conn_id
        )
        world.engine.revoke(world.credentials[member])
        # One link crossing carries the revoked notice to the client.
        world.scheduler.run_until(world.scheduler.now() + 0.05)
        cut = (
            peer.state is ChannelState.REVOKED
            and connection.state is ChannelState.REVOKED
        )
        try:
            connection.call_sync("echo", "ping", ["after-revocation"])
            refused = False
        except ChannelClosedError:
            refused = True
        rec.check(cut and refused)
        world.credentials[member] = world.engine.delegate(
            DOMAIN, member, ROLE, publish=False
        )

    def counts(self, world: World, registry) -> dict[str, float]:
        out = transport_counts(world.transport)
        out["switchboard.heartbeats_answered"] = world.heartbeats_answered
        out["switchboard.calls_failed"] = registry.counter_value(
            "switchboard.rpc.failures"
        )
        out["drbac.search_edges"] = world.engine.search_work
        return out
