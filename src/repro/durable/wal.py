"""Length+CRC framed write-ahead log with snapshot + compaction.

Frame layout, one record::

    +----------------+----------------+------------------------+
    | length (4B BE) | crc32 (4B BE)  | payload (JSON, length) |
    +----------------+----------------+------------------------+

The payload is ``json.dumps(record, sort_keys=True)`` so identical
records produce identical bytes.  Decoding walks frames front to back
and stops at the first one that is short, fails its checksum, or does
not parse — everything before it is a **valid prefix** of history,
everything after is discarded as the torn tail.  That prefix property is
what makes torn-tail truncation safe: recovery can only lose the newest
suffix of updates, never see a corrupted or reordered one, and the
sequence-numbered catch-up pulls the lost suffix back from a live
replica.

Compaction: every ``compact_every`` appended records the log asks its
owner for a snapshot payload, installs it atomically in the snapshot
area, and truncates the WAL area to empty.  The snapshot is itself one
framed record, so a damaged snapshot is *detected* (checksum) rather
than trusted.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from .. import obs
from ..obs import names as metric_names
from .disk import SimDisk

_HEADER = struct.Struct(">II")

WalRecord = dict
"""One logged update: a JSON-compatible dict."""


def encode_record(payload: WalRecord) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_records(data: bytes) -> tuple[list[WalRecord], int, int]:
    """Decode the longest valid frame prefix of ``data``.

    Returns ``(records, consumed_bytes, torn_bytes)``: ``consumed_bytes``
    is where the valid prefix ends and ``torn_bytes`` is whatever trailed
    it (0 for a cleanly closed log).  Never raises on damaged input —
    damage terminates the walk, it does not poison the prefix.
    """
    records: list[WalRecord] = []
    offset = 0
    total = len(data)
    while total - offset >= _HEADER.size:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn mid-payload
        body = data[start:end]
        if zlib.crc32(body) != crc:
            break  # torn or corrupted frame
        try:
            record = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = end
    return records, offset, total - offset


class WriteAheadLog:
    """Append-only framed log over one :class:`SimDisk`, with snapshots.

    The owner drives it: :meth:`append` after every durable update, then
    :meth:`maybe_compact` with a callable producing the full-state
    snapshot payload.  :meth:`load` is the recovery entry point.
    """

    def __init__(
        self,
        disk: SimDisk,
        *,
        area: str = "wal",
        snapshot_area: str = "snapshot",
        compact_every: int = 64,
    ) -> None:
        if compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.disk = disk
        self.area = area
        self.snapshot_area = snapshot_area
        self.compact_every = compact_every
        # Derived, not authoritative: recomputed from disk on load, so a
        # crash cannot leave it out of sync with the bytes.
        self._records_since_snapshot = len(decode_records(disk.read(area))[0])

    def append(self, payload: WalRecord) -> None:
        frame = encode_record(payload)
        self.disk.append(self.area, frame)
        self._records_since_snapshot += 1
        obs.counter(metric_names.DURABLE_WAL_APPENDS).inc()
        obs.counter(metric_names.DURABLE_WAL_BYTES).inc(len(frame))
        obs.gauge(metric_names.DURABLE_WAL_RECORDS).set(
            self._records_since_snapshot
        )

    def maybe_compact(self, snapshot_payload: Callable[[], WalRecord]) -> bool:
        """Snapshot + truncate once ``compact_every`` records accumulated."""
        if self._records_since_snapshot < self.compact_every:
            return False
        self.disk.replace(self.snapshot_area, encode_record(snapshot_payload()))
        self.disk.replace(self.area, b"")
        self._records_since_snapshot = 0
        obs.counter(metric_names.DURABLE_SNAPSHOTS).inc()
        obs.gauge(metric_names.DURABLE_WAL_RECORDS).set(0)
        return True

    def truncate_tail(self, nbytes: int) -> int:
        """Inject a torn tail: drop ``nbytes`` off the WAL area's end."""
        return self.disk.truncate_tail(self.area, nbytes)

    def load(self) -> tuple[WalRecord | None, list[WalRecord], int]:
        """Recover ``(snapshot, records, torn_records_dropped)`` from disk.

        ``snapshot`` is ``None`` when no (valid) snapshot exists.  The
        returned records are the valid WAL prefix; any torn suffix is
        counted against the log's byte length and reported as the number
        of *whole records* known lost only indirectly — the caller learns
        the byte damage and the catch-up protocol repairs the difference
        regardless of how many records it spanned.
        """
        snapshot: WalRecord | None = None
        snap_records, _, _ = decode_records(self.disk.read(self.snapshot_area))
        if snap_records:
            snapshot = snap_records[0]
        records, consumed, torn_bytes = decode_records(self.disk.read(self.area))
        if torn_bytes:
            # Discard the unusable suffix so future appends start on a
            # frame boundary instead of extending garbage.
            self.disk.truncate_tail(self.area, torn_bytes)
            obs.counter(metric_names.DURABLE_TORN_TAILS).inc()
            obs.counter(metric_names.DURABLE_TORN_BYTES).inc(torn_bytes)
        self._records_since_snapshot = len(records)
        obs.gauge(metric_names.DURABLE_WAL_RECORDS).set(len(records))
        return snapshot, records, torn_bytes


def digest_state(payload: Any) -> str:
    """Stable digest of a JSON-compatible state (test/bench helper)."""
    import hashlib

    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
