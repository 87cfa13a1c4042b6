"""``mail_deploy`` — the paper's case study, end to end.

Every repetition builds the three-site scenario on the real Table 2
credential set and serves client sessions rotating over four requests:
Bob at ``sd-pc1`` wanting privacy (Switchboard over the WAN), Bob at
``sd-pc2`` wanting bandwidth (the planner pulls a ``ViewMailServer`` cache
next to him: VIG + image coherence), Charlie at ``se-pc1`` wanting privacy
(a partner on an attribute-constrained node), and Alice at ``ny-pc1`` (LAN
rmi).  ``psf.planner``, ``psf.deployment``, ``views.vig``,
``views.coherence``, ``views.acl`` and ``mail`` do the work here and
nowhere else.  Deployments accumulate (there is no undeploy), so the
schedule and the initial state are fixed and every repetition starts from
a fresh scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from harness import KEY_BITS, Recorder, Workload, deck, now_ns, transport_counts
from repro.crypto import Identity, KeyStore, generate_keypair
from repro.mail import MailClient, MailScenario, build_scenario
from repro.psf import EdgeRequirement, ServiceRequest
from repro.switchboard import AuthorizationSuite, RoleAuthorizer, ServiceAddress
from repro.views import IMAGE_BINDING_PREFIX, ImageService, ViewRuntime

ROSTER = (
    "Comp.NY", "Comp.SD", "Inc.SE", "Mail", "Dell", "IBM",
    "Alice", "Bob", "Charlie", "MailServer", "MailClientSvc",
)
REQUESTS = (
    ("Bob", "sd-pc1", EdgeRequirement(privacy=True)),
    ("Bob", "sd-pc2", EdgeRequirement(min_bandwidth_bps=50e6)),
    ("Charlie", "se-pc1", EdgeRequirement(privacy=True)),
    ("Alice", "ny-pc1", EdgeRequirement()),
)
TABLE4 = {
    "Alice": "ViewMailClient_Member",
    "Bob": "ViewMailClient_Member",
    "Charlie": "ViewMailClient_Partner",
}
"""The oracle for the view each client must be served."""
CLIENT_HOST = "ny-pc1"
BODY = "m" * 512


class PooledKeyStore(KeyStore):
    """A key store over a prepared one that binds names it has not seen
    to pre-generated keys.

    The deployer mints an identity per deployed instance (``p1``, ``p2``,
    ...).  Drawing those from a pool generated in the preparation keeps
    RSA keygen — one sample has CV ~0.5 — in ``setup_s`` and out of
    ``first_call_ms``.
    """

    def __init__(self, base: KeyStore, pool: list) -> None:
        super().__init__(key_bits=base.key_bits)
        self._base = base
        self._pool = iter(pool)
        self._bound: dict[str, Identity] = {}

    def identity(self, name: str) -> Identity:
        if name in self._base:
            return self._base.identity(name)
        identity = self._bound.get(name)
        if identity is None:
            key = next(self._pool, None) or generate_keypair(self.key_bits)
            identity = self._bound[name] = Identity(name=name, private_key=key)
        return identity

    def known_names(self) -> list[str]:
        return sorted([*self._base.known_names(), *self._bound])

    def __contains__(self, name: str) -> bool:
        return name in self._base or name in self._bound

    def __len__(self) -> int:
        return len(self._base) + len(self._bound)


@dataclass
class World:
    scenario: MailScenario
    shared_client: MailClient
    """One MailClient in New York that every client-side view represents."""


@dataclass
class Session:
    client: str
    node: str
    qos: EdgeRequirement
    sends: list[dict]
    fetch: str


class MailDeploy(Workload):
    name = "mail_deploy"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        rotations = 1 if smoke else 2
        sends = 5 if smoke else 20
        rng = random.Random(f"mail_deploy-{seed}")
        users = sorted(TABLE4)
        count = rotations * len(REQUESTS)
        # Recipients are dealt evenly, so every seed grows the mailboxes —
        # and with them the coherence image — at the same rate.
        recipients = iter(deck(rng, count * (sends + 1), (1, 1, 1)))
        self.sessions: list[Session] = []
        for index in range(count):
            client, node, qos = REQUESTS[index % len(REQUESTS)]
            self.sessions.append(Session(
                client, node, qos,
                sends=[
                    {"sender": client, "recipient": users[next(recipients)],
                     "subject": f"s{index}-{n}", "body": BODY}
                    for n in range(sends)
                ],
                fetch=users[next(recipients)],
            ))
        self.instances = rotations

    def prepare(self) -> dict:
        key_store = KeyStore(key_bits=KEY_BITS)
        for name in ROSTER:
            key_store.identity(name)
        # One identity per ViewMailServer the planner will place.
        pool = [generate_keypair(KEY_BITS) for _ in range(self.instances)]
        return {"key_store": key_store, "pool": pool}

    def build(self, prep: dict) -> World:
        scenario = build_scenario(
            key_store=PooledKeyStore(prep["key_store"], prep["pool"])
        )
        original = MailClient(
            owner="shared",
            accounts={"alice": {"name": "alice", "phone": "212", "email": "a@x"}},
        )
        runtime = scenario.psf.deployer.node_runtime(CLIENT_HOST)
        image = ImageService(original)
        for exporter in (runtime.rpc.exporter, runtime.switchboard.exporter):
            exporter.export("mailclient", original)
            exporter.export("mailclient#image", image)
        runtime.switchboard.listen(
            "mailclient",
            AuthorizationSuite(
                identity=scenario.engine.identity("MailClientSvc"),
                authorizer=RoleAuthorizer(scenario.engine, "Comp.NY.Partner"),
            ),
        )
        return World(scenario, original)

    def warm_up(self, world: World) -> None:
        # One LAN session: import-time and first-use costs, no deployment
        # and no mail left behind.
        session = world.scenario.psf.request_service(
            ServiceRequest(client="Alice", client_node="ny-pc2", interface="MailI")
        )
        for _ in range(30 if self.smoke else 300):
            session.access.listAccounts()

    def measure(self, world: World, rec: Recorder) -> None:
        scenario = world.scenario
        psf = scenario.psf
        model: dict[str, list[str]] = {user: [] for user in TABLE4}
        virt_start = psf.scheduler.now()
        wall_start = now_ns()
        for session in self.sessions:
            client = session.client
            credentials = scenario.client_wallet(client).credentials()
            suite = AuthorizationSuite(
                identity=scenario.engine.identity(client), credentials=credentials
            )
            start = rec.begin()
            granted = psf.request_service(
                ServiceRequest(
                    client=client, client_node=session.node,
                    interface="MailI", qos=session.qos,
                ),
                client_suite=suite,
            )
            access = granted.access
            inbox = access.fetchMail(client)
            rec.first_call(now_ns() - start, session.node)
            rec.check(subjects(inbox) == model[client])

            rec.begin()
            runtime = view_runtime(scenario, session.node, suite)
            _view, decision = psf.serve_client_view(
                "MailClient", client, original=world.shared_client,
                credentials=credentials, runtime=runtime,
            )
            rec.check(decision.view_name == TABLE4[client])
            runtime.close()

            for message in session.sends:
                start = rec.begin()
                sent = access.sendMail(message)
                rec.latencies_ns.append(now_ns() - start)
                model[message["recipient"]].append(message["subject"])
                rec.check(sent is True)
            start = rec.begin()
            inbox = access.fetchMail(session.fetch)
            rec.latencies_ns.append(now_ns() - start)
            rec.check(subjects(inbox) == model[session.fetch])
        wall_ns = now_ns() - wall_start
        # The server's own mailboxes are the final word.
        rec.begin()
        rec.check(all(
            subjects(scenario.server.mailboxes[user]) == expected
            for user, expected in model.items()
        ))
        rec.window(
            rec.attempted - rec.failed, wall_ns, psf.scheduler.now() - virt_start
        )

    def counts(self, world: World, registry) -> dict[str, float]:
        scenario = world.scenario
        out = transport_counts(scenario.psf.transport)
        out["switchboard.calls_failed"] = registry.counter_value(
            "switchboard.rpc.failures"
        )
        out["drbac.search_edges"] = scenario.engine.search_work
        return out


def subjects(messages: list[dict]) -> list[str]:
    return [message["subject"] for message in messages]


def view_runtime(scenario: MailScenario, node: str, suite: AuthorizationSuite):
    """The runtime a client-side MailClient view needs: its node's
    endpoints and the bindings to the shared client in New York."""
    endpoints = scenario.psf.deployer.node_runtime(node)
    runtime = ViewRuntime(
        rpc=endpoints.rpc, switchboard=endpoints.switchboard, suite=suite
    )
    address = ServiceAddress(node=CLIENT_HOST, service="mailclient", target="mailclient")
    runtime.naming.bind("NotesI", address)
    runtime.naming.bind("AddressI", address)
    runtime.naming.bind(
        IMAGE_BINDING_PREFIX + "MailClient",
        ServiceAddress(node=CLIENT_HOST, service="mailclient", target="mailclient#image"),
    )
    return runtime
