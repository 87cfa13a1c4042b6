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

The shards hold no state of their own making: :meth:`publish` appends a
record to the engine's :class:`~repro.drbac.log.CredentialLog`, and the
repository is that log's first fold.  Crash recovery is a log restore,
which clears the shards and refolds them in sequence order.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Iterable

from .. import obs
from ..obs import names as metric_names
from .delegation import Delegation
from .log import BOTH_TAGS, CredentialLog, DiscoveryTag, LogRecord
from .model import EntityRef, Role, Subject, subject_key


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

    The shards are the first fold of a :class:`CredentialLog` (the
    engine's, or a private one for a standalone repository):
    :meth:`publish` appends a record and the fold indexes it.

    :meth:`fail_shard` models a home node crashing.  With
    ``replicated=True`` a warm replica holds exactly what the primary
    held, so routed queries for a down shard are answered from that
    content (counted as a failover, so chaos runs can assert the recovery
    happened) until :meth:`recover_shard`.  An unreplicated repository
    answers queries for a failed shard with the empty set, which is the
    paper's degraded mode: proofs relying on that home's credentials
    become undiscoverable until the node returns.
    """

    def __init__(
        self, log: CredentialLog | None = None, *, replicated: bool = False
    ) -> None:
        self._shards: dict[str, RepositoryShard] = {}
        self._down: set[str] = set()
        self.replicated = replicated
        self.query_count = 0
        self.failover_count = 0
        self.version = 0
        """Monotonic publish counter.  A new credential can turn a past
        denial into a grant, so negative authorization caches key their
        entries to the version they were computed against and drop them
        when it moves (see :class:`~repro.drbac.cache.CachedAuthorizer`).
        Clearing the fold for a log restore keeps it, so a recovered node
        never hands out version numbers that alias pre-crash ones."""
        self._log = log if log is not None else CredentialLog()
        self._log.subscribe(self._fold, clear=self._clear)

    def shard(self, home: str) -> RepositoryShard:
        shard = self._shards.get(home)
        if shard is None:
            shard = RepositoryShard(home)
            self._shards[home] = shard
        return shard

    # -- shard failure ---------------------------------------------------------

    def fail_shard(self, home: str) -> None:
        """Mark a home shard unreachable (its node crash-stopped)."""
        self._down.add(home)

    def recover_shard(self, home: str) -> None:
        """Bring a failed shard back by *rebuilding* it, not resurrecting it.

        The honest heal for a crash-stop: the primary's in-memory index
        died with the node.  A replicated shard is rebuilt from its
        replica, which held the same buckets in the same order.  Without
        replication the rebuilt shard is empty, which is real data loss:
        proofs relying on that home's credentials stay undiscoverable
        until they are republished.
        """
        self._down.discard(home)
        if not self.replicated:
            self._shards[home] = RepositoryShard(home)
        obs.counter(metric_names.RECOVER_SHARD_REBUILDS).inc()

    def shard_is_down(self, home: str) -> bool:
        return home in self._down

    def _route(self, home: str) -> RepositoryShard | None:
        """The shard that answers queries for ``home`` right now."""
        if home not in self._down:
            return self._shards.get(home)
        if self.replicated:
            self.failover_count += 1
            obs.counter(metric_names.REPO_FAILOVERS).inc()
            return self._shards.get(home)
        return None

    def publish(
        self,
        delegation: Delegation,
        tags: Iterable[DiscoveryTag] = BOTH_TAGS,
    ) -> None:
        """Store a credential, indexing per its discovery tags."""
        self._log.publish(delegation, tags)

    def publish_all(self, delegations: list[Delegation]) -> None:
        for delegation in delegations:
            self.publish(delegation)

    def _fold(self, record: LogRecord) -> None:
        if record.kind != "publish":
            return
        self.version += 1
        delegation = record.delegation
        if DiscoveryTag.SEARCHABLE_FROM_SUBJECT in record.tags:
            self.shard(subject_home(delegation.subject)).index_subject(delegation)
        if DiscoveryTag.SEARCHABLE_FROM_OBJECT in record.tags:
            self.shard(delegation.role.owner).index_role(delegation)

    def _clear(self) -> None:
        self._shards.clear()
        self._down.clear()

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


