"""Monitored proof caching, sharded for the hot path.

Authorization decisions in PSF recur — the same client hits the same
role check on every request in systems without single sign-on, and the
planner re-asks the same node/component queries per planning pass.  A
:class:`CachedAuthorizer` memoizes :class:`AuthorizationResult`s and uses
their live :class:`~repro.drbac.monitor.ProofMonitor`s for *sound*
invalidation: a cached proof is served only while every credential in it
is unrevoked and unexpired, so caching never extends access beyond what a
fresh search would grant.

The cache is **sharded**: keys spread across independent LRU shards by a
seed-stable hash, so capacity pressure in one hot shard cannot evict the
whole working set, and a revocation storm invalidates only the shards it
touches.  Invalidation is both *eager* (each cached proof's monitor
removes its own entry the instant any of its credentials is revoked —
revocation storms shrink the cache immediately instead of leaving
landmines for later lookups) and *lazy* (expiry is a clock condition and
is re-checked per hit).

**Negative caching**: denials are remembered too.  A denial can only be
upgraded by a *new* credential, never by a revocation or by time passing.
When the engine's :class:`~repro.drbac.incremental.IncrementalProofEngine`
covers the query, a cached denial is *delta-keyed*: it survives unrelated
publishes and is dropped precisely when a publish record newly reaches
its principal/role (the incremental engine says which).  Outside that
regime (attribute constraints, non-simple graphs, ``incremental=False``
engines) the denial falls back to version keying — valid exactly while
the repository's publish version is unchanged.

**Precise invalidation**: every positive entry records the credential ids
its proof traversed, indexed in a per-credential watch table.  The table
is the last fold of the engine's :class:`~repro.drbac.log.CredentialLog`:
a revoke or expire record evicts exactly the dependent entries instead
of sweeping the cache, before any proof monitor hears the revocation.

This is the middle ground between the paper's two poles (per-call proof
search vs authorize-once views); ``tests/paper/test_views.py`` counts
the proofs each of the three runs.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from .. import obs
from ..errors import AuthorizationError
from ..obs import names as metric_names
from .delegation import Delegation
from .engine import AuthorizationResult, DrbacEngine
from .log import LogRecord
from .model import Attributes, Role, Subject


@dataclass(slots=True)
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidated: int = 0
    evicted: int = 0
    negative_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.negative_hits

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        if lookups == 0:
            return 0.0
        return (self.hits + self.negative_hits) / lookups


@dataclass(slots=True)
class _Entry:
    """One cached decision: a live grant or a denial."""

    result: AuthorizationResult | None
    """``None`` marks a negative entry (the search found no proof)."""
    denial: str = ""
    repo_version: int = -1
    """Repository publish version a negative entry was computed at."""
    delta_keyed: bool = False
    """Negative entry invalidated by publish records instead of version."""
    cred_ids: tuple[str, ...] = ()
    """Exact credentials a positive entry's proof traversed (watch keys)."""


class _Shard:
    """One LRU shard; all mutation goes through the owning cache so the
    stats counters and the entries gauge can never drift from content."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: OrderedDict[tuple, _Entry] = OrderedDict()


class CachedAuthorizer:
    """Sharded memoizing façade over :meth:`DrbacEngine.authorize`.

    Calls that present an *explicit* credential set bypass the cache
    entirely: the memo key is (subject, role, attributes), and a result
    computed from one hand-picked credential set must not answer for a
    different one.
    """

    def __init__(
        self,
        engine: DrbacEngine,
        *,
        max_entries: int = 4096,
        shards: int = 8,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.engine = engine
        self.max_entries = max_entries
        # Clamp so per-shard capacities (floor division) sum to at most
        # max_entries: the global bound holds even for tiny caches.
        self.shards = min(shards, max_entries)
        self.stats = CacheStats()
        self._shards = [_Shard() for _ in range(self.shards)]
        self._per_shard = max_entries // self.shards
        # credential id -> the entries whose proofs traversed it
        self._watches: dict[str, dict[tuple, tuple[_Shard, _Entry]]] = {}
        engine.log.subscribe(self._fold, since=engine.log.seqno)

    # -- keying --------------------------------------------------------------

    def _key(
        self,
        subject: Subject | str,
        role: Role | str,
        required_attributes: Attributes | None,
    ) -> tuple:
        attrs_key = (
            tuple(sorted((k, str(v)) for k, v in required_attributes.items()))
            if required_attributes
            else ()
        )
        return (str(subject), str(role), attrs_key)

    def _shard_for(self, key: tuple) -> _Shard:
        # crc32, not hash(): stable across processes (PYTHONHASHSEED), so
        # shard placement — and thus eviction order — is deterministic.
        digest = zlib.crc32("|".join((key[0], key[1], repr(key[2]))).encode())
        return self._shards[digest % self.shards]

    # -- the memoized call ----------------------------------------------------

    def authorize(
        self,
        subject: Subject | str,
        role: Role | str,
        credentials: Iterable[Delegation] | None = None,
        *,
        required_attributes: Attributes | None = None,
    ) -> AuthorizationResult:
        """Serve from cache while the cached decision remains sound."""
        if credentials is not None:
            try:
                result = self.engine.authorize(
                    subject, role, credentials, required_attributes=required_attributes
                )
            except AuthorizationError:
                self._audit(subject, role, cache="bypass", verdict="deny")
                raise
            self._audit(
                subject, role, cache="bypass", verdict="grant",
                chain=len(result.proof.chain),
            )
            return result
        key = self._key(subject, role, required_attributes)
        shard = self._shard_for(key)
        entry = shard.entries.get(key)
        if entry is not None:
            served = self._serve(shard, key, entry, subject, role)
            if served is not None:
                return served
        self.stats.misses += 1
        obs.counter(metric_names.CACHE_MISSES).inc()
        repo_version = self.engine.repository.version
        try:
            result = self.engine.authorize(
                subject, role, required_attributes=required_attributes
            )
        except AuthorizationError as denial:
            self._audit(subject, role, cache="miss", verdict="deny")
            incremental = self.engine.incremental
            self._insert(
                shard,
                key,
                _Entry(
                    result=None,
                    denial=str(denial),
                    repo_version=repo_version,
                    delta_keyed=(
                        incremental is not None
                        and incremental.covers(required_attributes)
                    ),
                ),
            )
            raise
        self._audit(
            subject, role, cache="miss", verdict="grant",
            chain=len(result.proof.chain),
        )
        entry = _Entry(
            result=result,
            cred_ids=tuple(
                d.credential_id for d in result.proof.all_delegations()
            ),
        )
        self._insert(shard, key, entry)
        self._watch(shard, key, entry)
        return result

    @staticmethod
    def _audit(
        subject: Subject | str,
        role: Role | str,
        *,
        cache: str,
        verdict: str,
        chain: int = 0,
    ) -> None:
        """One audit-trail record per authorization decision: who asked
        for what, how it was answered, and how long the proof chain was
        (0 for denials) — the auditable-delegation trail the flight
        recorder replays after a failure."""
        obs.event(
            "auth.decision", principal=str(subject), target=str(role),
            cache=cache, verdict=verdict, chain=chain,
        )

    def _serve(
        self,
        shard: _Shard,
        key: tuple,
        entry: _Entry,
        subject: Subject | str,
        role: Role | str,
    ) -> AuthorizationResult | None:
        """Return the cached decision if still sound, else drop it."""
        if entry.result is None:
            # Negative entry: a delta-keyed denial is evicted precisely by
            # the publish record that upgrades it, so it is sound until
            # then; a version-keyed one is sound while nothing new has
            # been published at all.
            if entry.delta_keyed or entry.repo_version == self.engine.repository.version:
                shard.entries.move_to_end(key)
                self.stats.negative_hits += 1
                obs.counter(metric_names.CACHE_NEGATIVE_HITS).inc()
                self._audit(subject, role, cache="negative", verdict="deny")
                raise AuthorizationError(entry.denial)
            self._remove(shard, key, entry, why="invalidated")
            return None
        cached = entry.result
        if cached.valid and cached.monitor.check_expiry(self.engine.clock.now()):
            shard.entries.move_to_end(key)
            self.stats.hits += 1
            obs.counter(metric_names.CACHE_HITS).inc()
            self._audit(
                subject, role, cache="hit", verdict="grant",
                chain=len(cached.proof.chain),
            )
            return cached
        # Revoked or lapsed: drop it and fall through to a fresh search.
        self._remove(shard, key, entry, why="invalidated")
        return None

    # -- mutation (single path, so stats and gauge cannot drift) ---------------

    def _insert(self, shard: _Shard, key: tuple, entry: _Entry) -> None:
        """Store ``entry``, evicting LRU entries to stay within capacity.

        Eviction is atomic with respect to stats: the displaced entry is
        removed, closed, counted, and the gauge refreshed before the new
        entry lands — a concurrent revocation callback arriving between
        the pop and the insert sees a consistent cache (the regression in
        ``tests/drbac/test_cache.py::TestEvictionAtomicity`` pins this).
        """
        existing = shard.entries.get(key)
        if existing is not None:
            # A lookup raced a revocation/re-issue cycle: replace in place.
            self._remove(shard, key, existing, why="invalidated")
        while len(shard.entries) >= self._per_shard and shard.entries:
            oldest_key, oldest = next(iter(shard.entries.items()))
            self._remove(shard, oldest_key, oldest, why="evicted")
        shard.entries[key] = entry
        self._sync_gauge()

    def _remove(
        self, shard: _Shard, key: tuple, entry: _Entry, *, why: str, close: bool = True
    ) -> None:
        """Drop one entry and account for it — the only removal path.
        ``close=False`` (a revocation) leaves the proof monitor to fire for
        whoever holds the result; a fired monitor detaches itself."""
        current = shard.entries.get(key)
        if current is not entry:
            return  # already removed (eager invalidation raced a lookup)
        del shard.entries[key]
        if entry.result is not None and close:
            entry.result.close()
        for cred_id in entry.cred_ids:
            watch = self._watches.get(cred_id)
            if watch is None:
                continue
            watch.pop(key, None)
            if not watch:
                del self._watches[cred_id]
        if why == "evicted":
            self.stats.evicted += 1
            obs.counter(metric_names.CACHE_EVICTED).inc()
        else:
            self.stats.invalidated += 1
            obs.counter(metric_names.CACHE_INVALIDATED).inc()
        self._sync_gauge()

    def _watch(self, shard: _Shard, key: tuple, entry: _Entry) -> None:
        """Register the entry under each credential its proof traversed.

        Storm-safe: a revoke or expire record evicts exactly the dependent
        entries as it is folded — the entries gauge tracks reality
        *during* the storm, and no stale grant can be observed even
        before its next lookup.
        """
        for cred_id in entry.cred_ids:
            self._watches.setdefault(cred_id, {})[key] = (shard, entry)

    def _fold(self, record: LogRecord) -> None:
        """Precise invalidation: a revoke or expire record evicts the grants
        whose proofs used the credential; a publish record drops the
        delta-keyed denials it newly reached (all of them once the graph
        left the simple regime)."""
        if record.kind != "publish":
            watch = self._watches.get(record.credential_id, {})
            for key, (shard, entry) in list(watch.items()):
                self._remove(
                    shard, key, entry, why="invalidated",
                    close=record.kind != "revoke",
                )
            return
        incremental = self.engine.incremental
        if incremental is None:
            return
        reached = incremental.newly_reached(record.seq)
        if reached is None:
            stale = [
                (shard, key, entry)
                for shard in self._shards
                for key, entry in list(shard.entries.items())
                if entry.result is None and entry.delta_keyed
            ]
            for shard, key, entry in stale:
                self._remove(shard, key, entry, why="invalidated")
            return
        for principal, roles in reached.items():
            for role in roles:
                key = (principal, role, ())
                shard = self._shard_for(key)
                entry = shard.entries.get(key)
                if entry is not None and entry.result is None and entry.delta_keyed:
                    self._remove(shard, key, entry, why="invalidated")

    def _sync_gauge(self) -> None:
        obs.gauge(metric_names.CACHE_ENTRIES).set(len(self))

    # -- crash recovery --------------------------------------------------------

    def recover(self, *, published: frozenset[str]) -> tuple[int, int]:
        """Scrub the cache against recovered durable state.

        Called by :class:`~repro.durable.node.DurableNode` once, *after*
        the engine's log has been restored and caught up.  The rule is
        conservative: keep a positive entry only if every credential its
        proof traversed is provable from durable state — present in
        ``published``, unrevoked, and unexpired — and drop **every**
        negative entry (a publish that landed while the node was down may
        have upgraded any denial, and the pre-crash publish records that
        kept delta-keyed denials sound were never folded here).

        Surviving entries keep their proof monitors and watch-table rows:
        neither is fold state, so a post-recovery revocation evicts them.
        Returns ``(evicted, kept)``.
        """
        engine = self.engine
        now = engine.clock.now()
        evicted = kept = 0
        for shard in self._shards:
            for key, entry in list(shard.entries.items()):
                provable = entry.result is not None and all(
                    d.credential_id in published
                    and not engine.revocations.is_revoked(d)
                    and not d.is_expired(now)
                    for d in entry.result.proof.all_delegations()
                )
                if provable:
                    kept += 1
                else:
                    self._remove(shard, key, entry, why="invalidated")
                    evicted += 1
        self._sync_gauge()
        return evicted, kept

    # -- conveniences ---------------------------------------------------------

    def is_authorized(
        self,
        subject: Subject | str,
        role: Role | str,
        credentials: Iterable[Delegation] | None = None,
        *,
        required_attributes: Attributes | None = None,
    ) -> bool:
        try:
            self.authorize(
                subject, role, credentials, required_attributes=required_attributes
            )
            return True
        except AuthorizationError:
            return False

    def clear(self) -> None:
        for shard in self._shards:
            for entry in shard.entries.values():
                if entry.result is not None:
                    entry.result.close()
            shard.entries.clear()
        self._watches.clear()
        self._sync_gauge()

    def shard_sizes(self) -> list[int]:
        return [len(shard.entries) for shard in self._shards]

    def __len__(self) -> int:
        return sum(len(shard.entries) for shard in self._shards)
