"""The recoverable node: WAL + snapshot, restore, then catch up.

A :class:`DurableNode` makes the credential log of one
:class:`~repro.drbac.engine.DrbacEngine` durable, and node restart a
real, lossy event:

* while **up**, every record the :class:`UpdateFeed` delivers is written
  to the node's :class:`~repro.durable.wal.WriteAheadLog` in the log's
  wire form *before* it is applied by appending to the engine's log; the
  WAL periodically compacts into a snapshot of the engine log's
  published and revoked credentials;
* :meth:`crash` stops applying records and restores the engine's log to
  empty, so every structure that folds it is lost;
* :meth:`restart` runs the recovery protocol:

  1. load snapshot + WAL (a torn tail shortens the WAL to a valid prefix);
  2. ``engine.log.restore(snapshot + WAL records)`` clears every fold and
     refolds in sequence order — the same code as normal operation;
  3. catch up on exactly the missed gap ``feed.since(last_seqno)``
     through the live path;
  4. scrub the (optional) :class:`~repro.drbac.cache.CachedAuthorizer`
     once, evicting every entry not provable from the recovered state.

  Proof monitors are not fold state: one held across the crash hears
  the next revocation, whether it arrives live or by catch-up.

The recovery invariant the simulation tester checks end to end: after
``restart`` returns, the node's observable authorization behaviour is
identical to a node that never crashed — even when revocations landed
while it was down and the WAL tail was torn off.  ``mutation =
"skip-catchup"`` deliberately breaks the gap pull, which the
differential drill must detect as an oracle divergence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

from .. import obs
from ..drbac.log import CredentialLog, LogRecord
from ..obs import names as metric_names
from .disk import SimDisk
from .wal import WriteAheadLog, digest_state

MUTATIONS = ("skip-catchup",)

UpdateFeed = CredentialLog
"""The live-replica update stream: the credential log of the replica (or
org authority) that kept serving while the node was down, the
durability anchor *outside* the crashing node.  Its ``since`` is the gap
a recovering node missed.  The feed itself never crashes in this model —
quorum writes so *it* can fail too are an open item on the roadmap."""


@dataclass(slots=True)
class RecoveryReport:
    """Deterministic accounting for one recovery pass."""

    snapshot_creds: int
    wal_records_replayed: int
    torn_bytes: int
    catchup_updates: int
    cache_evicted: int
    cache_kept: int
    work_units: int
    """Records replayed + catch-up updates + incremental re-fold edges:
    the deterministic "recovery time" the bench reports instead of wall
    seconds."""

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


class DurableNode:
    """One crash-recoverable authorization node.

    ``engine`` is the node's :class:`~repro.drbac.engine.DrbacEngine`;
    ``cache`` its (optional) :class:`~repro.drbac.cache.CachedAuthorizer`
    — passed in so recovery can scrub it; ``feed`` the
    :class:`UpdateFeed` this node consumes (optional for WAL-only
    setups, required for catch-up after a torn tail).
    """

    def __init__(
        self,
        *,
        engine,
        cache=None,
        feed: UpdateFeed | None = None,
        disk: SimDisk | None = None,
        compact_every: int = 64,
        mutation: str | None = None,
    ) -> None:
        if mutation is not None and mutation not in MUTATIONS:
            raise ValueError(
                f"unknown recovery mutation {mutation!r}; pick from {MUTATIONS}"
            )
        self.engine = engine
        self.cache = cache
        self.feed = feed
        self.mutation = mutation
        self.disk = disk or SimDisk()
        self.wal = WriteAheadLog(self.disk, compact_every=compact_every)
        self.up = True
        self.last_seqno = 0
        self.recoveries = 0
        if feed is not None:
            feed.subscribe(self._on_record)

    # -- live path ----------------------------------------------------------

    def _on_record(self, record: LogRecord) -> None:
        if self.up:
            self._log(record)
        # else: missed while down; catch-up pulls it on restart

    def _log(self, record: LogRecord) -> None:
        """Write ahead, apply, then compact once enough has accumulated."""
        self.wal.append(record.to_wire())
        self.last_seqno = record.seq
        if record.kind == "publish":
            self.engine.repository.publish(record.delegation, record.tags)
        elif record.kind == "revoke":
            self.engine.revocations.revoke_id(record.home, record.credential_id)
        self.wal.maybe_compact(self._snapshot_payload)

    def _durable_state(self) -> tuple[dict[str, LogRecord], dict[str, LogRecord]]:
        """First publish and first revoke record per credential id, in
        log order (bucket order and incremental folds are order-sensitive)."""
        creds: dict[str, LogRecord] = {}
        revoked: dict[str, LogRecord] = {}
        for record in self.engine.log.since(0):
            if record.kind == "publish":
                creds.setdefault(record.credential_id, record)
            elif record.kind == "revoke":
                revoked.setdefault(record.credential_id, record)
        return creds, revoked

    def _snapshot_payload(self) -> dict:
        creds, revoked = self._durable_state()
        return {
            "seq": self.last_seqno,
            "creds": [record.to_wire()["payload"] for record in creds.values()],
            "revoked": [[record.home, cred_id] for cred_id, record in revoked.items()],
        }

    # -- crash / restart ----------------------------------------------------

    def crash(self) -> None:
        """Crash-stop: volatile state is dead; only the disk survives."""
        self.up = False
        self.engine.log.restore([])

    def restart(self, *, torn_tail_bytes: int = 0) -> RecoveryReport:
        """Come back from a crash, optionally with a torn WAL tail."""
        if torn_tail_bytes:
            self.wal.truncate_tail(torn_tail_bytes)
        return self.recover()

    def recover(self) -> RecoveryReport:
        """The recovery protocol; safe to run again on a live node.

        Replay is idempotent: recovering twice from the same durable
        state produces the identical engine state, because the restore
        refolds from the disk image rather than mutating leftovers.
        """
        engine = self.engine
        incr = engine.incremental
        work_before = incr.work if incr is not None else 0

        snapshot, records, torn_bytes = self.wal.load()
        wires = list(records)
        self.last_seqno = 0
        if snapshot is not None:
            self.last_seqno = int(snapshot["seq"])
            wires[:0] = [
                {"seq": 0, "kind": "publish", "payload": payload}
                for payload in snapshot["creds"]
            ] + [
                {"seq": 0, "kind": "revoke", "payload": {"id": cred_id, "home": home}}
                for home, cred_id in snapshot["revoked"]
            ]
        durable = [LogRecord.from_wire(wire) for wire in wires]
        self.last_seqno = max([self.last_seqno] + [r.seq for r in durable])
        engine.log.restore(durable)
        obs.counter(metric_names.RECOVER_REPLAYED).inc(len(records))

        # Catch-up: pull exactly the gap the node missed while down (or
        # lost to the torn tail) from the live replica.
        catchup = 0
        if self.feed is not None and self.mutation != "skip-catchup":
            for record in self.feed.since(self.last_seqno):
                self._log(record)
                catchup += 1
        obs.counter(metric_names.RECOVER_CATCHUP).inc(catchup)

        evicted = kept = 0
        if self.cache is not None:
            evicted, kept = self.cache.recover(published=self.published_ids())
        obs.counter(metric_names.RECOVER_CACHE_EVICTED).inc(evicted)
        obs.counter(metric_names.RECOVER_CACHE_KEPT).inc(kept)

        self.up = True
        self.recoveries += 1
        work_units = (
            len(records)
            + catchup
            + ((incr.work - work_before) if incr is not None else 0)
        )
        obs.counter(metric_names.RECOVER_RESTARTS).inc()
        obs.histogram(
            metric_names.RECOVER_WORK, metric_names.COUNT_BUCKETS
        ).observe(work_units)
        report = RecoveryReport(
            snapshot_creds=len(snapshot["creds"]) if snapshot is not None else 0,
            wal_records_replayed=len(records),
            torn_bytes=torn_bytes,
            catchup_updates=catchup,
            cache_evicted=evicted,
            cache_kept=kept,
            work_units=work_units,
        )
        obs.event(
            "durable.recovered", seq=self.last_seqno,
            replayed=report.wal_records_replayed, catchup=catchup,
            torn_bytes=torn_bytes,
        )
        return report

    # -- introspection ------------------------------------------------------

    def published_ids(self) -> frozenset[str]:
        """Credential ids the node currently holds as published."""
        return frozenset(self._durable_state()[0])

    def state_payload(self) -> dict[str, Any]:
        """JSON-compatible view of the durable state (order-sensitive)."""
        creds, revoked = self._durable_state()
        return {
            "seq": self.last_seqno,
            "creds": list(creds),
            "revoked": sorted(revoked),
        }

    def state_digest(self) -> str:
        return digest_state(self.state_payload())
