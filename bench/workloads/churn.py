"""``churn_simple`` and ``churn_table2`` — the authorization engine under churn.

``DrbacEngine`` + ``CachedAuthorizer`` driven directly, no network: 92 %
authorize / 3 % publish / 3 % revoke / 2 % clock advances past TTLs.  Both
workloads run the same harness code and op mix; they differ only in the
credential graph.  ``churn_simple`` stays self-certifying and
attribute-free, so the incremental engine and its precise invalidation
serve every query.  ``churn_table2`` is a Table-2-shaped federation whose
assignment, third-party and attributed credentials drop the incremental
engine to the full-search path for good — the workload on which extending
the incremental engine must show, while ``churn_simple`` must not move.

Every credential is signed in the preparation, so RSA signing is in
``setup_s`` and a measured publish is ``repository.publish`` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from harness import KEY_BITS, Recorder, Workload, cache_counts, deck, now_ns
from repro.clock import ManualClock
from repro.crypto import KeyStore
from repro.drbac import (
    AttrRange,
    AttrScalar,
    AttrSet,
    CachedAuthorizer,
    DrbacEngine,
    EntityRef,
    Role,
)
from repro.errors import AuthorizationError

NEWCOMERS = 16
"""Principals never queried by the schedule: each one's first authorize
is a cold decision, the ``first_call_ms`` sample of these workloads."""
ORACLE_EVERY = 50
AUTH, PUBLISH, REVOKE, ADVANCE = range(4)
MIX = (92, 3, 3, 2)


@dataclass
class Cred:
    """A credential to pre-sign; ``expires_at`` is absolute virtual time."""

    issuer: str
    subject: Any
    role: Role
    assignment: bool = False
    attributes: dict | None = None
    expires_at: float | None = None


@dataclass
class Graph:
    """A seeded credential graph and the traffic that churns it."""

    roster: list[str]
    structural: list[Cred] = field(default_factory=list)
    """Published at build, never revoked."""
    pool: list[Cred] = field(default_factory=list)
    """Leaf credentials: the first ``initial`` are published at build, the
    rest by the schedule's publish ops, each at most once per repetition."""
    initial: int = 0
    newcomers: list[tuple[str, str]] = field(default_factory=list)
    schedule: list[tuple] = field(default_factory=list)
    warm: list[tuple] = field(default_factory=list)


def generate(graph: Graph, rng: random.Random, ops: int, warm_ops: int,
             new_leaf, query) -> None:
    """Fill in the schedule: ``("auth", subject, role, attrs)``,
    ``("publish", pool_index)``, ``("revoke", pool_index)`` and
    ``("advance", seconds)``, tracking virtual time so a published
    credential's TTL becomes an absolute expiry at generation time."""
    clock = 0.0
    live = list(range(graph.initial))
    graph.warm = [("auth", *query(rng)) for _ in range(warm_ops)]
    for kind in deck(rng, ops, MIX):
        if kind == AUTH:
            graph.schedule.append(("auth", *query(rng)))
        elif kind == PUBLISH or (kind == REVOKE and not live):
            graph.pool.append(new_leaf(rng, clock))
            live.append(len(graph.pool) - 1)
            graph.schedule.append(("publish", len(graph.pool) - 1))
        elif kind == REVOKE:
            graph.schedule.append(("revoke", live.pop(rng.randrange(len(live)))))
        else:
            step = round(rng.uniform(0.5, 4.0), 3)
            clock += step
            graph.schedule.append(("advance", step))


# -- the two graphs -----------------------------------------------------------

ORGS = {
    "OrgA": ("Reader", "Writer", "Auditor"),
    "OrgB": ("Member", "Partner", "Billing"),
    "OrgC": ("Guest", "Operator"),
}
SIMPLE_ROLES = [Role(org, name) for org, names in ORGS.items() for name in names]
SIMPLE_USERS = [f"user{i}" for i in range(24)]
HOT_PAIRS = 32


def simple_graph(seed: int, ops: int, warm_ops: int) -> Graph:
    """Three orgs, self-certifying attribute-free memberships and
    cross-org role chains (the ``bench-churn`` shape)."""
    rng = random.Random(f"churn_simple-{seed}")
    late = [f"late{i}" for i in range(NEWCOMERS)]
    graph = Graph(roster=list(ORGS) + SIMPLE_USERS[: 12 - len(ORGS)])
    pairs: list[tuple[str, str]] = []

    def member(user: str, role: Role, expires_at: float | None = None) -> Cred:
        return Cred(role.owner, EntityRef(user), role, expires_at=expires_at)

    for user in SIMPLE_USERS:
        role = rng.choice(SIMPLE_ROLES)
        graph.pool.append(member(user, role))
        pairs.append((user, str(role)))
    for _ in range(6):
        role = rng.choice(SIMPLE_ROLES)
        held_by = rng.choice([r for r in SIMPLE_ROLES if r.owner != role.owner])
        graph.pool.append(Cred(role.owner, held_by, role))
    graph.initial = len(graph.pool)
    for user in late:
        role = rng.choice(SIMPLE_ROLES)
        graph.structural.append(member(user, role))
        graph.newcomers.append((user, str(role)))

    def new_leaf(rng: random.Random, clock: float) -> Cred:
        role = rng.choice(SIMPLE_ROLES)
        expires_at = (
            round(clock + rng.uniform(3.0, 40.0), 3) if rng.random() < 0.35 else None
        )
        if rng.random() < 0.30:
            # Role-subject chaining: some other org's role holds this one.
            held_by = rng.choice([r for r in SIMPLE_ROLES if r.owner != role.owner])
            return Cred(role.owner, held_by, role, expires_at=expires_at)
        user = rng.choice(SIMPLE_USERS)
        pairs.append((user, str(role)))
        return member(user, role, expires_at)

    def query(rng: random.Random) -> tuple:
        if rng.random() < 0.80:
            # Mostly the recently delegated pairs: grants and post-revoke
            # re-checks are the interesting verdicts, and a hot set half
            # the cache's size keeps the hit ratio near 0.75 — at 0.5 the
            # median latency would flip between a hit's and a miss's cost.
            return (*rng.choice(pairs[-HOT_PAIRS:]), None)
        return (rng.choice(SIMPLE_USERS), str(rng.choice(SIMPLE_ROLES)), None)

    generate(graph, rng, ops, warm_ops, new_leaf, query)
    return graph


DOMAINS = [f"Corp.{letter}" for letter in "ABCDEF"]
VENDOR_OS = (("Dell", "Linux", True, 10), ("Dell", "SuSe", True, 7),
             ("IBM", "Windows", False, 1))
COMPONENTS = ("MailClient", "Encryptor", "Decryptor")
NODE_QUERIES = [
    {"Secure": AttrSet([True]), "Trust": AttrRange(0, trust)} for trust in (1, 5, 7, 10)
]


def table2_graph(seed: int, ops: int, warm_ops: int) -> Graph:
    """Six company domains carrying every credential kind of Table 2:
    member certificates, cross-domain role maps, assignment + third-party
    partner pairs (creds 3 + 12), vendor attribute chains onto
    ``Mail.Node`` (4-7/13/16) and CPU-scalar executables (8-10/14/17)."""
    rng = random.Random(f"churn_table2-{seed}")
    graph = Graph(roster=DOMAINS + ["Mail", "Dell", "IBM", "auditor", "mallory", "ops"])
    count = len(DOMAINS)
    users = {d: [f"{d[-1].lower()}{k}" for k in range(4)] for d in DOMAINS}
    nodes = {d: [f"{d[-1].lower()}-pc{k}" for k in range(2)] for d in DOMAINS}
    all_users = [u for d in DOMAINS for u in users[d]]
    all_nodes = [n for d in DOMAINS for n in nodes[d]]
    structural = graph.structural

    for local, foreign in ((0, 1), (2, 3), (4, 5), (0, 2)):
        structural.append(
            Cred(DOMAINS[local], Role(DOMAINS[foreign], "Member"),
                 Role(DOMAINS[local], "Member"))
        )
    for i, domain in enumerate(DOMAINS):
        assignee = DOMAINS[(i + 1) % count]
        partner = Role(domain, "Partner")
        structural.append(Cred(domain, EntityRef(assignee), partner, assignment=True))
        structural.append(
            Cred(assignee, Role(DOMAINS[(i + 2) % count], "Member"), partner)
        )
        vendor, system, _secure, _trust = VENDOR_OS[i % len(VENDOR_OS)]
        structural.append(Cred(vendor, Role(domain, "PC"), Role(vendor, system)))
        executable = Role(domain, "Executable")
        for component in COMPONENTS:
            structural.append(
                Cred(domain, Role("Mail", component), executable,
                     attributes={"CPU": AttrScalar(100)})
            )
        structural.append(
            Cred(assignee, executable, Role(assignee, "Executable"),
                 attributes={"CPU": AttrScalar(80 if i % 2 else 40)})
        )
    for vendor, system, secure, trust in VENDOR_OS:
        structural.append(
            Cred("Mail", Role(vendor, system), Role("Mail", "Node"),
                 attributes={"Secure": AttrSet([True, False] if secure else [False]),
                             "Trust": AttrRange(0, trust)})
        )

    def leaf(name: str, domain: str, expires_at: float | None = None) -> Cred:
        kind = "PC" if "-pc" in name else "Member"
        return Cred(domain, EntityRef(name), Role(domain, kind), expires_at=expires_at)

    for domain in DOMAINS:
        graph.pool += [leaf(name, domain) for name in users[domain] + nodes[domain]]
    graph.initial = len(graph.pool)
    for i in range(NEWCOMERS):
        domain = DOMAINS[i % count]
        structural.append(leaf(f"late{i}", domain))
        graph.newcomers.append((f"late{i}", f"{domain}.Member"))

    def new_leaf(rng: random.Random, clock: float) -> Cred:
        expires_at = (
            round(clock + rng.uniform(3.0, 40.0), 3) if rng.random() < 0.35 else None
        )
        if rng.random() < 0.10:
            # A fresh third-party partner certificate (the cred-12 kind).
            i = rng.randrange(count)
            return Cred(DOMAINS[(i + 1) % count],
                        Role(rng.choice(DOMAINS), "Member"),
                        Role(DOMAINS[i], "Partner"), expires_at=expires_at)
        domain = rng.choice(DOMAINS)
        return leaf(rng.choice(users[domain] + nodes[domain]), domain, expires_at)

    # 30 % attributed node queries, 40 % member, 15 % partner (third-party
    # chains), 15 % executable; dealt in exact proportion.
    kinds = iter(deck(rng, ops + warm_ops, (40, 30, 15, 15)))

    def query(rng: random.Random) -> tuple:
        kind = next(kinds)
        if kind == 0:
            return (rng.choice(all_users), f"{rng.choice(DOMAINS)}.Member", None)
        if kind == 1:
            return (rng.choice(all_nodes), "Mail.Node", rng.choice(NODE_QUERIES))
        if kind == 2:
            return (rng.choice(all_users), f"{rng.choice(DOMAINS)}.Partner", None)
        return (f"Mail.{rng.choice(COMPONENTS)}",
                f"{rng.choice(DOMAINS)}.Executable", None)

    generate(graph, rng, ops, warm_ops, new_leaf, query)
    return graph


# -- the shared harness ---------------------------------------------------------

class World:
    def __init__(self, key_store: KeyStore, pool: list) -> None:
        self.pool = pool
        self.clock = ManualClock()
        self.engine = DrbacEngine(key_store=key_store, clock=self.clock)
        self.cache = CachedAuthorizer(self.engine, max_entries=64, shards=4)
        # The oracle: an uncached full search over the same repository
        # and revocation state, at the same instant.
        self.oracle = DrbacEngine(
            key_store=key_store, clock=self.clock, incremental=False
        )
        self.oracle.repository = self.engine.repository
        self.oracle.revocations = self.engine.revocations


class Churn(Workload):
    """The harness both churn workloads share; a subclass names its graph."""

    deterministic = True
    graph_factory: Callable[[int, int, int], Graph]
    full_ops: int

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.graph: Graph = self.graph_factory(
            seed, 200 if smoke else self.full_ops, 30 if smoke else 300
        )

    def prepare(self) -> dict:
        key_store = KeyStore(key_bits=KEY_BITS)
        for name in self.graph.roster:
            key_store.identity(name)
        signer = DrbacEngine(key_store=key_store)

        def sign(cred: Cred):
            return signer.delegate(
                cred.issuer, cred.subject, cred.role, assignment=cred.assignment,
                attributes=cred.attributes, expires_at=cred.expires_at,
                publish=False,
            )

        return {
            "key_store": key_store,
            "structural": [sign(cred) for cred in self.graph.structural],
            "pool": [sign(cred) for cred in self.graph.pool],
        }

    def build(self, prep: dict) -> World:
        world = World(prep["key_store"], prep["pool"])
        publish = world.engine.repository.publish
        for delegation in prep["structural"]:
            publish(delegation)
        for delegation in prep["pool"][: self.graph.initial]:
            publish(delegation)
        return world

    def warm_up(self, world: World) -> None:
        for _op, subject, role, attrs in self.graph.warm:
            authorized(world.cache, subject, role, attrs)

    def measure(self, world: World, rec: Recorder) -> None:
        cache, engine, clock, pool = world.cache, world.engine, world.clock, world.pool
        stats = cache.stats
        for subject, role in self.graph.newcomers:
            start = rec.begin()
            verdict = authorized(cache, subject, role, None)
            rec.first_call(now_ns() - start)
            rec.check(verdict)

        authorizes = 0
        virt_start = clock.now()
        wall_start = now_ns()
        for op in self.graph.schedule:
            kind = op[0]
            if kind == "auth":
                _kind, subject, role, attrs = op
                misses = stats.misses
                start = rec.begin()
                verdict = authorized(cache, subject, role, attrs)
                elapsed = now_ns() - start
                rec.latencies_ns.append(elapsed)
                if stats.misses != misses:
                    rec.miss_ns.append(elapsed)
                authorizes += 1
                ok = True
                if authorizes % ORACLE_EVERY == 0:
                    with rec.oracle():
                        proof = world.oracle.find_proof(
                            subject, role, required_attributes=attrs
                        )
                    ok = verdict == (proof is not None)
                rec.check(ok, f"{subject}->{role}={int(verdict)}")
            elif kind == "publish":
                rec.begin()
                engine.repository.publish(pool[op[1]])
            elif kind == "revoke":
                rec.begin()
                engine.revoke(pool[op[1]])
            else:
                rec.begin()
                clock.advance(op[1])
        rec.window(
            rec.attempted - rec.failed,
            now_ns() - wall_start,
            clock.now() - virt_start,
        )

    def counts(self, world: World, registry) -> dict[str, float]:
        return cache_counts(world.cache, registry)


def authorized(cache: CachedAuthorizer, subject: str, role: str, attrs) -> bool:
    try:
        cache.authorize(subject, role, required_attributes=attrs)
        return True
    except AuthorizationError:
        return False


class ChurnSimple(Churn):
    name = "churn_simple"
    graph_factory = staticmethod(simple_graph)
    full_ops = 8000


class ChurnTable2(Churn):
    name = "churn_table2"
    graph_factory = staticmethod(table2_graph)
    full_ops = 600
