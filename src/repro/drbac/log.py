"""The credential log: one sequence-numbered record stream per engine (§3.1).

dRBAC credential state has one source: credentials are published to the
repository and revoked at their home.  A :class:`CredentialLog` is the
append-only list of those events — plus the ``expire`` records the
incremental engine derives from the clock — numbered ``1, 2, 3, ...``.
Publishing and revoking only append; every structure holding credential
state *folds* the log, in subscription order: the repository shards, the
per-home revoked sets, the signatures checked at publish, the incremental
engine, the cache's watch table.

A record is delivered synchronously to every fold before the call that
appended it returns.  A fold may itself append (the expiry drain does);
the nested record reaches every fold before the outer one reaches the
folds after it.  :meth:`CredentialLog.restore` is crash recovery: clear
every fold through the hook it subscribed with, then refold the given
records through the same delivery code.

One wire form, ``{"seq", "kind", "payload"}``, serves the durable feed,
WAL and snapshot; :meth:`LogRecord.from_wire` is its only decoder and
refuses malformed input with :class:`~repro.errors.LogRecordError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from ..errors import CredentialError, LogRecordError
from .delegation import Delegation
from .wire import delegation_from_wire, delegation_to_wire


class DiscoveryTag(enum.Enum):
    SEARCHABLE_FROM_SUBJECT = "subject"
    SEARCHABLE_FROM_OBJECT = "object"


BOTH_TAGS = frozenset(
    {DiscoveryTag.SEARCHABLE_FROM_SUBJECT, DiscoveryTag.SEARCHABLE_FROM_OBJECT}
)

KINDS = ("publish", "revoke", "expire")


@dataclass(frozen=True, slots=True)
class LogRecord:
    """One credential-state event.  ``delegation`` is set for publish and
    expire records; a revoke names its credential by id and home only,
    since a home can revoke what it never saw published."""

    seq: int
    kind: str
    credential_id: str
    home: str
    delegation: Optional[Delegation] = None
    tags: frozenset[DiscoveryTag] = frozenset()

    def to_wire(self) -> dict[str, Any]:
        if self.kind == "publish":
            payload: dict[str, Any] = {
                "cred": delegation_to_wire(self.delegation),
                "tags": sorted(tag.value for tag in self.tags),
            }
        else:
            payload = {"id": self.credential_id, "home": self.home}
        return {"seq": self.seq, "kind": self.kind, "payload": payload}

    @classmethod
    def from_wire(cls, data: Any) -> "LogRecord":
        """Decode one record, refusing malformed input with a typed error."""
        if not isinstance(data, dict):
            raise LogRecordError(f"log record is not an object: {data!r}")
        seq, kind, payload = data.get("seq"), data.get("kind"), data.get("payload")
        if type(seq) is not int or seq < 0:
            raise LogRecordError(f"bad log record seq {seq!r}")
        if kind not in KINDS:
            raise LogRecordError(f"unknown log record kind {kind!r}")
        if not isinstance(payload, dict):
            raise LogRecordError(f"log record payload is not an object: {payload!r}")
        delegation, tags = None, frozenset()
        if kind == "publish":
            if not isinstance(payload.get("tags"), list):
                raise LogRecordError(f"publish record tags: {payload.get('tags')!r}")
            try:
                tags = frozenset(DiscoveryTag(value) for value in payload["tags"])
                delegation = delegation_from_wire(payload.get("cred"))
            except (CredentialError, ValueError, TypeError) as exc:
                raise LogRecordError(f"bad publish record: {exc}") from exc
            cred_id, home = delegation.credential_id, delegation.home_entity
        else:
            cred_id, home = payload.get("id"), payload.get("home")
        if not isinstance(cred_id, str) or not isinstance(home, str):
            raise LogRecordError(f"bad {kind} record id/home: {cred_id!r}, {home!r}")
        return cls(seq, kind, cred_id, home, delegation, tags)


Fold = Callable[[LogRecord], None]


class CredentialLog:
    """Append-only credential-state log with one ordered fold list."""

    def __init__(self) -> None:
        self._records: list[LogRecord] = []
        self._subscribers: list[tuple[Fold, Optional[Callable[[], None]]]] = []
        self._published: dict[str, Delegation] = {}  # id -> its one value

    @property
    def seqno(self) -> int:
        """The sequence number of the newest record (0 when empty)."""
        return len(self._records)

    def subscribe(
        self, fold: Fold, *, clear: Optional[Callable[[], None]] = None, since: int = 0
    ) -> None:
        """Fold every record after ``since``, then every later one;
        :meth:`restore` calls ``clear`` to empty the folded state."""
        for record in self._records[since:]:
            fold(record)
        self._subscribers.append((fold, clear))

    def since(self, seqno: int) -> list[LogRecord]:
        """Every record with sequence number strictly greater than ``seqno``."""
        return self._records[seqno:]

    def publish(
        self, delegation: Delegation, tags: Iterable[DiscoveryTag] = BOTH_TAGS
    ) -> LogRecord:
        """Append a publish record.  One credential id names one value: a
        publish reusing an id for another credential (a renewal, say)
        raises :class:`CredentialError`; an equal republish appends."""
        held = self._published.get(delegation.credential_id, delegation)
        if held is not delegation and held != delegation:
            raise CredentialError(f"{delegation.credential_id!r} names another credential")
        return self._append(LogRecord(
            self.seqno + 1, "publish", delegation.credential_id,
            delegation.home_entity, delegation, frozenset(tags),
        ))

    def revoke(self, delegation: Delegation) -> LogRecord:
        return self.revoke_id(delegation.home_entity, delegation.credential_id)

    def revoke_id(self, home: str, credential_id: str) -> LogRecord:
        return self._append(LogRecord(self.seqno + 1, "revoke", credential_id, home))

    def expire(self, delegation: Delegation) -> LogRecord:
        return self._append(LogRecord(
            self.seqno + 1, "expire", delegation.credential_id,
            delegation.home_entity, delegation,
        ))

    def _append(self, record: LogRecord) -> LogRecord:
        """Add the next record and deliver it to every fold."""
        self._records.append(record)
        if record.kind == "publish":
            self._published.setdefault(record.credential_id, record.delegation)
        for fold, _clear in list(self._subscribers):
            fold(record)
        return record

    def restore(self, records: Iterable[LogRecord]) -> None:
        """Replace the log with ``records``, renumbered from 1: clear every
        fold, then deliver each record exactly as a live append is."""
        records = list(records)
        for _fold, clear in self._subscribers:
            if clear is not None:
                clear()
        self._records = []
        self._published = {}
        for r in records:
            self._append(LogRecord(
                self.seqno + 1, r.kind, r.credential_id, r.home, r.delegation, r.tags
            ))
