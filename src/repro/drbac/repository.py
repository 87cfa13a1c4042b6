"""Distributed credential repository with discovery tags (Section 3.1).

"dRBAC credentials are stored in a distributed repository.  To assist in
collecting dRBAC credentials that authorize a particular role, dRBAC
contains a mechanism that relies on *discovery tags* associated with
credential subjects and objects.  These tags identify an entity as
'searchable from subject' or 'searchable from object', permitting queries
about credentials involving the entity to be directed as appropriate to
its home node."

The repository is sharded per home entity.  A delegation published with
``SEARCHABLE_FROM_SUBJECT`` is indexed on the subject's home shard so a
forward walk starting at the subject can find it; one published with
``SEARCHABLE_FROM_OBJECT`` is indexed on the role owner's home shard for
backward walks from the goal role.  :meth:`DistributedRepository.collect`
performs the bidirectional harvest used by the proof engine, counting the
shard queries it issues so benchmarks can report discovery cost.
"""

from __future__ import annotations

import enum
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Callable

from .. import obs
from ..obs import names as metric_names
from .delegation import Delegation
from .model import EntityRef, Role, Subject, subject_key


class DiscoveryTag(enum.Enum):
    SEARCHABLE_FROM_SUBJECT = "subject"
    SEARCHABLE_FROM_OBJECT = "object"


BOTH_TAGS = frozenset(
    {DiscoveryTag.SEARCHABLE_FROM_SUBJECT, DiscoveryTag.SEARCHABLE_FROM_OBJECT}
)


def subject_home(subject: Subject) -> str:
    """The entity whose home shard indexes this subject."""
    if isinstance(subject, EntityRef):
        return subject.name
    return subject.owner


@dataclass
class RepositoryShard:
    """Credential index held by a single home node."""

    home: str
    by_subject: dict[str, list[Delegation]] = field(default_factory=lambda: defaultdict(list))
    by_role: dict[str, list[Delegation]] = field(default_factory=lambda: defaultdict(list))

    def index_subject(self, delegation: Delegation) -> None:
        self.by_subject[subject_key(delegation.subject)].append(delegation)

    def index_role(self, delegation: Delegation) -> None:
        self.by_role[str(delegation.role)].append(delegation)

    def credentials(self) -> list[Delegation]:
        seen: dict[str, Delegation] = {}
        for bucket in list(self.by_subject.values()) + list(self.by_role.values()):
            for delegation in bucket:
                seen[delegation.credential_id] = delegation
        return list(seen.values())


class DistributedRepository:
    """Shards keyed by home entity, with routed queries and hop counting.

    With ``replicated=True`` every publish is mirrored to a warm replica
    shard; :meth:`fail_shard` then models the home node crashing — routed
    queries transparently fail over to the replica (counted, so chaos runs
    can assert the recovery happened) until :meth:`recover_shard`.  An
    unreplicated repository answers queries for a failed shard with the
    empty set, which is the paper's degraded mode: proofs relying on that
    home's credentials become undiscoverable until the node returns.
    """

    def __init__(self, *, replicated: bool = False) -> None:
        self._shards: dict[str, RepositoryShard] = {}
        self._replicas: dict[str, RepositoryShard] = {}
        self._down: set[str] = set()
        self.replicated = replicated
        self.query_count = 0
        self.failover_count = 0
        self.version = 0
        """Monotonic publish counter.  A new credential can turn a past
        denial into a grant, so negative authorization caches key their
        entries to the version they were computed against and drop them
        when it moves (see :class:`~repro.drbac.cache.CachedAuthorizer`)."""
        self._publish_listeners: list[Callable[[Delegation], None]] = []

    def on_publish(self, callback: Callable[[Delegation], None]) -> None:
        """Register a listener notified once per :meth:`publish` call.

        This is the delta source the incremental proof engine and the
        precise-invalidation cache subscribe to; listeners fire after the
        credential is indexed, in registration order.
        """
        self._publish_listeners.append(callback)

    def shard(self, home: str) -> RepositoryShard:
        shard = self._shards.get(home)
        if shard is None:
            shard = RepositoryShard(home)
            self._shards[home] = shard
        return shard

    def _replica(self, home: str) -> RepositoryShard:
        replica = self._replicas.get(home)
        if replica is None:
            replica = RepositoryShard(home)
            self._replicas[home] = replica
        return replica

    # -- shard failure ---------------------------------------------------------

    def enable_replication(self) -> None:
        """Turn on warm replicas, mirroring everything already published.

        Lets a harness add fault tolerance to an engine whose repository
        was built unreplicated: subsequent publishes mirror automatically,
        and the existing shard contents are copied over right here.
        """
        if self.replicated:
            return
        self.replicated = True
        for home, shard in self._shards.items():
            replica = self._replica(home)
            for key, bucket in shard.by_subject.items():
                replica.by_subject[key].extend(bucket)
            for key, bucket in shard.by_role.items():
                replica.by_role[key].extend(bucket)

    def fail_shard(self, home: str) -> None:
        """Mark a home shard unreachable (its node crash-stopped)."""
        self._down.add(home)

    def recover_shard(self, home: str) -> None:
        """Bring a failed shard back by *rebuilding* it, not resurrecting it.

        The honest heal for a crash-stop: the primary's in-memory index
        died with the node, so its content is reconstructed from the warm
        replica (bucket order preserved — replicas mirror publish order).
        Without replication the rebuilt shard is empty, which is real
        data loss: proofs relying on that home's credentials stay
        undiscoverable until they are republished.
        """
        self._down.discard(home)
        rebuilt = RepositoryShard(home)
        replica = self._replicas.get(home) if self.replicated else None
        if replica is not None:
            for key, bucket in replica.by_subject.items():
                rebuilt.by_subject[key].extend(bucket)
            for key, bucket in replica.by_role.items():
                rebuilt.by_role[key].extend(bucket)
        self._shards[home] = rebuilt
        obs.counter(metric_names.RECOVER_SHARD_REBUILDS).inc()

    def reset_state(self) -> None:
        """Drop every shard and replica (node-wide crash recovery).

        Used by :class:`~repro.durable.node.DurableNode` before replaying
        durable history: listeners stay registered and ``version`` stays
        monotonic (a recovered node must never hand out version numbers
        that alias pre-crash ones, or version-keyed negative cache
        entries could survive wrongly), but all indexed content is gone
        until republished.
        """
        self._shards.clear()
        self._replicas.clear()
        self._down.clear()

    def shard_is_down(self, home: str) -> bool:
        return home in self._down

    def _route(self, home: str) -> RepositoryShard | None:
        """The shard that answers queries for ``home`` right now."""
        if home not in self._down:
            return self._shards.get(home)
        if self.replicated and home in self._replicas:
            self.failover_count += 1
            obs.counter(metric_names.REPO_FAILOVERS).inc()
            return self._replicas[home]
        return None

    def publish(
        self,
        delegation: Delegation,
        tags: frozenset[DiscoveryTag] | set[DiscoveryTag] = BOTH_TAGS,
    ) -> None:
        """Store a credential, indexing per its discovery tags."""
        self.version += 1
        if DiscoveryTag.SEARCHABLE_FROM_SUBJECT in tags:
            home = subject_home(delegation.subject)
            self.shard(home).index_subject(delegation)
            if self.replicated:
                self._replica(home).index_subject(delegation)
        if DiscoveryTag.SEARCHABLE_FROM_OBJECT in tags:
            home = delegation.role.owner
            self.shard(home).index_role(delegation)
            if self.replicated:
                self._replica(home).index_role(delegation)
        for callback in list(self._publish_listeners):
            callback(delegation)

    def publish_all(self, delegations: list[Delegation]) -> None:
        for delegation in delegations:
            self.publish(delegation)

    # -- routed point queries -------------------------------------------------

    def find_by_subject(self, subject: Subject) -> list[Delegation]:
        """Credentials whose subject is exactly ``subject`` (routed query)."""
        self.query_count += 1
        shard = self._route(subject_home(subject))
        if shard is None:
            return []
        return list(shard.by_subject.get(subject_key(subject), ()))

    def find_by_role(self, role: Role) -> list[Delegation]:
        """Credentials granting ``role`` (routed query to the owner's home)."""
        self.query_count += 1
        shard = self._route(role.owner)
        if shard is None:
            return []
        return list(shard.by_role.get(str(role), ()))

    # -- bidirectional harvest ------------------------------------------------

    def collect(
        self,
        subject: Subject,
        target: Role,
        *,
        max_depth: int = 16,
    ) -> list[Delegation]:
        """Harvest candidate credentials for proving ``subject -> target``.

        Runs a forward BFS from the subject (following delegation edges
        subject→role) and a backward BFS from the target role, bounded by
        ``max_depth`` hops each.  Assignment-right evidence for third-party
        issuers is pulled in by an extra backward pass over the roles seen,
        because third-party delegations are only usable with their issuer's
        ``Entity.Role'`` chain.
        """
        harvested: dict[str, Delegation] = {}

        # Forward: which roles can the subject reach?  The frontier carries
        # Subject objects (not string keys) because entity names may contain
        # dots and would otherwise be misparsed as roles.
        frontier: deque[tuple[Subject, int]] = deque([(subject, 0)])
        seen_forward: set[str] = {subject_key(subject)}
        while frontier:
            node, depth = frontier.popleft()
            if depth >= max_depth:
                continue
            for delegation in self.find_by_subject(node):
                harvested[delegation.credential_id] = delegation
                role_key = str(delegation.role)
                if role_key not in seen_forward:
                    seen_forward.add(role_key)
                    frontier.append((delegation.role, depth + 1))

        # Backward: which roles flow into the target?
        back: deque[tuple[Role, int]] = deque([(target, 0)])
        seen_back: set[str] = {str(target)}
        issuers_needing_rights: set[str] = set()
        while back:
            role, depth = back.popleft()
            if depth >= max_depth:
                continue
            for delegation in self.find_by_role(role):
                harvested[delegation.credential_id] = delegation
                if delegation.issuer != delegation.role.owner:
                    issuers_needing_rights.add(delegation.issuer)
                if isinstance(delegation.subject, Role):
                    key = str(delegation.subject)
                    if key not in seen_back:
                        seen_back.add(key)
                        back.append((delegation.subject, depth + 1))

        # Assignment-right evidence for third-party issuers found above.
        for issuer in issuers_needing_rights:
            for delegation in self.find_by_subject(EntityRef(issuer)):
                if delegation.grants_assignment_right:
                    harvested[delegation.credential_id] = delegation

        return list(harvested.values())

    @property
    def credential_count(self) -> int:
        ids: set[str] = set()
        for shard in self._shards.values():
            ids.update(d.credential_id for d in shard.credentials())
        return len(ids)

    @property
    def shard_count(self) -> int:
        return len(self._shards)


