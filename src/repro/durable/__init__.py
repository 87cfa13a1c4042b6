"""Durable crash-recovery for the dRBAC repository (log + snapshot + catch-up).

The paper's repository and monitors assume long-lived nodes; the chaos
harness originally modelled ``NODE_CRASH`` as a crash-stop whose heal
magically restored every piece of volatile state.  This package makes
restart a *real, lossy, replayable* event, in the standard shape used by
ARIES-style engines and Bayou-style anti-entropy:

* :class:`SimDisk` — the in-memory "disk": named byte areas that survive
  a node crash, with seeded torn-tail truncation as the only fault mode.
* :class:`WriteAheadLog` — append-only, length+CRC framed JSON records
  over a disk area, with periodic snapshot + compaction.  Decoding stops
  at the first damaged frame, so a torn tail recovers a valid *prefix*
  of history, never a corrupt record.
* :class:`UpdateFeed` — the live-replica side, itself a
  :class:`~repro.drbac.log.CredentialLog`: every publish/revoke gets a
  monotonic sequence number, so a recovering node can pull exactly the
  gap ``(last_durable_seqno, peer_seqno]`` it missed while down.
* :class:`DurableNode` — bundles an engine (and optionally its cache)
  with a WAL and a feed; :meth:`DurableNode.crash` drops volatile state,
  :meth:`DurableNode.restart` restores the engine's credential log from
  snapshot+WAL (every structure refolds it), catches up from the feed,
  and evicts every cache entry not provable from durable state before
  serving.

``DurableNode(mutation="skip-catchup")`` deliberately breaks the
catch-up rule — the documented hook the differential drill uses to prove
the simulation tester notices a broken recovery path.
"""

from .disk import SimDisk
from .node import MUTATIONS, DurableNode, RecoveryReport, UpdateFeed
from .wal import WalRecord, WriteAheadLog, decode_records, encode_record

__all__ = [
    "SimDisk",
    "WriteAheadLog",
    "WalRecord",
    "encode_record",
    "decode_records",
    "UpdateFeed",
    "DurableNode",
    "RecoveryReport",
    "MUTATIONS",
]
