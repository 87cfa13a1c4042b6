"""Seeded crash-recovery benchmark: WAL replay + delta catch-up cost.

``python -m repro bench-recovery`` replays one seeded schedule of
delegation publishes, revocations, clock advances, and authorizations
through **two arms** that share a single :class:`~repro.durable.node.UpdateFeed`
and differ only in fate: the *crashy* arm's :class:`~repro.durable.node.DurableNode`
is crashed several times mid-run — losing its repository shards,
incremental indexes, revocation listeners, and cache to volatility —
while the *control* arm never goes down.  While the crashy arm is dead,
delegations keep publishing and revocations keep landing on the feed;
each restart tears a seeded number of bytes off the WAL tail before the
recovery protocol replays snapshot+log and pulls the missed gap from
the feed.

After every recovery the bench runs a **verdict battery**: every
(subject, role) pair in the universe is authorized on both arms and
checked against :class:`~repro.check.oracles.DrbacOracle`.  The report
gates on three facts — the arms' verdict transcripts match byte for
byte, every verdict agrees with the oracle, and the recovered node's
durable-state digest equals the never-crashed node's — and the CLI
exits non-zero if any fails.  Recovery cost is reported in
**deterministic work units** (WAL records replayed + catch-up updates +
incremental re-fold edges), not wall time, so the JSON report is
byte-identical per seed.

``mutation="skip-catchup"`` disables the gap pull in the crashy arm,
which the gates must flag — the bench's own built-in differential test.
"""

from __future__ import annotations

import random
from typing import Any

from ..check.oracles import DrbacOracle
from ..clock import ManualClock
from ..crypto import KeyStore
from ..drbac import CachedAuthorizer, DrbacEngine
from ..durable import DurableNode, UpdateFeed
from ..errors import AuthorizationError
from ..hermetic import hermetic_counters

REPORT_SCHEMA = "bench-recovery/v1"

ORGS = ("OrgA", "OrgB")
ROLES = {
    "OrgA": ("OrgA.Reader", "OrgA.Writer"),
    "OrgB": ("OrgB.Member", "OrgB.Partner"),
}
ALL_ROLES = ROLES["OrgA"] + ROLES["OrgB"]
SUBJECTS = tuple(f"user{i}" for i in range(6))

#: WAL tail bytes torn per restart are drawn from [0, MAX_TORN_TAIL].
MAX_TORN_TAIL = 48


def generate_schedule(seed: int, ops: int, crashes: int) -> list[tuple]:
    """One seeded op schedule with embedded crash/restart cycles.

    Ops: ``("delegate", issuer, subject, role, ttl|None)``,
    ``("revoke", issue_index)``, ``("authorize", subject, role)``,
    ``("advance", seconds)``, ``("crash",)``, ``("restart", torn_bytes)``,
    ``("battery",)``.  Each crash cycle is: crash, a downtime segment of
    delegations/revocations/advances (no authorizations — the node is
    unreachable), restart with a seeded torn tail, then a full
    (subject, role) verdict battery.
    """
    rng = random.Random(f"recovery-{seed}")
    schedule: list[tuple] = []
    issued = 0
    revocable: list[int] = []

    def delegate_op() -> tuple:
        nonlocal issued
        role = rng.choice(ALL_ROLES)
        issuer = role.split(".", 1)[0]
        if rng.random() < 0.25:
            # Cross-org role chaining keeps multi-hop proofs in play.
            subject = rng.choice(
                [r for r in ALL_ROLES if not r.startswith(issuer)]
            )
        else:
            subject = rng.choice(SUBJECTS)
        ttl = round(rng.uniform(4.0, 30.0), 3) if rng.random() < 0.3 else None
        revocable.append(issued)
        issued += 1
        return ("delegate", issuer, subject, role, ttl)

    # Warm-up: every subject holds something before the first crash.
    for subject in SUBJECTS:
        role = rng.choice(ALL_ROLES)
        revocable.append(issued)
        issued += 1
        schedule.append(("delegate", role.split(".", 1)[0], subject, role, None))

    live = max(1, ops // (crashes + 1))
    for cycle in range(crashes + 1):
        for _ in range(live):
            draw = rng.random()
            if draw < 0.25:
                schedule.append(delegate_op())
            elif draw < 0.40 and revocable:
                target = revocable.pop(rng.randrange(len(revocable)))
                schedule.append(("revoke", target))
            elif draw < 0.85:
                schedule.append(
                    ("authorize", rng.choice(SUBJECTS), rng.choice(ALL_ROLES))
                )
            else:
                schedule.append(("advance", round(rng.uniform(0.5, 3.0), 3)))
        if cycle < crashes:
            schedule.append(("crash",))
            for _ in range(max(2, live // 4)):
                draw = rng.random()
                if draw < 0.45:
                    schedule.append(delegate_op())
                elif draw < 0.80 and revocable:
                    target = revocable.pop(rng.randrange(len(revocable)))
                    schedule.append(("revoke", target))
                else:
                    schedule.append(("advance", round(rng.uniform(0.5, 3.0), 3)))
            schedule.append(("restart", rng.randrange(MAX_TORN_TAIL + 1)))
            schedule.append(("battery",))
    return schedule


class RecoveryBench:
    """Replays one schedule through the crashy and control arms."""

    def __init__(
        self,
        *,
        seed: int = 7,
        ops: int = 360,
        crashes: int = 4,
        key_store: KeyStore | None = None,
        mutation: str | None = None,
    ) -> None:
        self.seed = seed
        self.ops = ops
        self.crashes = crashes
        self.key_store = key_store or KeyStore(key_bits=512)
        self.mutation = mutation
        self.schedule = generate_schedule(seed, ops, crashes)

    def run(self) -> dict[str, Any]:
        with hermetic_counters():
            return self._run()

    def _run(self) -> dict[str, Any]:
        clock = ManualClock()
        # One signer issues credentials; both arms receive them over the
        # shared feed, exactly like replicas of one authority.
        signer = DrbacEngine(
            key_store=self.key_store, clock=clock, incremental=False
        )
        feed = UpdateFeed()
        oracle = DrbacOracle()

        def build_arm(mutation: str | None):
            engine = DrbacEngine(
                key_store=self.key_store, clock=clock, incremental=True
            )
            cache = CachedAuthorizer(engine, max_entries=256, shards=4)
            node = DurableNode(
                engine=engine, cache=cache, feed=feed,
                compact_every=32, mutation=mutation,
            )
            return cache, node

        cache_crashy, node_crashy = build_arm(self.mutation)
        cache_control, node_control = build_arm(None)

        creds: list = []
        transcripts: dict[str, list[str]] = {"crashy": [], "control": []}
        grants = denials = oracle_mismatches = 0
        recoveries: list[dict[str, int]] = []
        digests_match = True
        mix = {"delegate": 0, "revoke": 0, "authorize": 0, "advance": 0}
        pending_torn = 0

        def verdict(cache: CachedAuthorizer, subject: str, role: str) -> bool:
            try:
                cache.authorize(subject, role)
                return True
            except AuthorizationError:
                return False

        def check_pair(index: int, subject: str, role: str) -> tuple[bool, bool]:
            nonlocal grants, denials, oracle_mismatches
            expected = oracle.holds(subject, role, clock.now())
            for name, cache in (
                ("crashy", cache_crashy), ("control", cache_control)
            ):
                got = verdict(cache, subject, role)
                transcripts[name].append(f"{index}:{subject}->{role}={int(got)}")
                if got != expected:
                    oracle_mismatches += 1
            if expected:
                grants += 1
            else:
                denials += 1
            return expected, expected

        for index, op in enumerate(self.schedule):
            kind = op[0]
            if kind == "delegate":
                _, issuer, subject, role, ttl = op
                expires_at = clock.now() + ttl if ttl is not None else None
                delegation = signer.delegate(
                    issuer, subject, role, expires_at=expires_at, publish=False
                )
                creds.append(delegation)
                feed.publish(delegation)
                oracle.delegate(
                    delegation.credential_id, subject, role, expires_at=expires_at
                )
                mix["delegate"] += 1
            elif kind == "revoke":
                delegation = creds[op[1]]
                feed.revoke(delegation)
                oracle.revoke(delegation.credential_id)
                mix["revoke"] += 1
            elif kind == "authorize":
                if node_crashy.up:
                    check_pair(index, op[1], op[2])
                mix["authorize"] += 1
            elif kind == "advance":
                clock.advance(op[1])
                mix["advance"] += 1
            elif kind == "crash":
                node_crashy.crash()
            elif kind == "restart":
                pending_torn = op[1]
                report = node_crashy.restart(torn_tail_bytes=pending_torn)
                recoveries.append(report.to_dict())
            elif kind == "battery":
                for subject in SUBJECTS:
                    for role in ALL_ROLES:
                        check_pair(index, subject, role)
                if node_crashy.state_digest() != node_control.state_digest():
                    digests_match = False

        total = {
            "restarts": len(recoveries),
            "work_units": sum(r["work_units"] for r in recoveries),
            "wal_records_replayed": sum(
                r["wal_records_replayed"] for r in recoveries
            ),
            "catchup_updates": sum(r["catchup_updates"] for r in recoveries),
            "torn_bytes": sum(r["torn_bytes"] for r in recoveries),
            "cache_evicted": sum(r["cache_evicted"] for r in recoveries),
            "cache_kept": sum(r["cache_kept"] for r in recoveries),
        }
        verdicts_match = transcripts["crashy"] == transcripts["control"]
        oracle_agrees = oracle_mismatches == 0
        ok = verdicts_match and oracle_agrees and digests_match
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "ops": self.ops,
            "crashes": self.crashes,
            "mutation": self.mutation,
            "mix": mix,
            "feed_seqno": feed.seqno,
            "verdicts": {
                "checked": len(transcripts["control"]),
                "grants": grants,
                "denials": denials,
                "oracle_mismatches": oracle_mismatches,
            },
            "recoveries": recoveries,
            "recovery": total,
            "verdicts_match": verdicts_match,
            "oracle_agrees": oracle_agrees,
            "digests_match": digests_match,
            "ok": ok,
        }


def passed(report: dict[str, Any]) -> bool:
    """Every recovery gate held."""
    return report["ok"]


def summarize(report: dict[str, Any], elapsed_s: float) -> str:
    """The human-readable ``repro bench-recovery`` summary."""
    mix, rec, verdicts = report["mix"], report["recovery"], report["verdicts"]
    lines = [
        f"bench-recovery seed={report['seed']} ops={report['ops']} "
        f"crashes={report['crashes']} "
        f"(delegate {mix['delegate']}, revoke {mix['revoke']}, "
        f"authorize {mix['authorize']}, advance {mix['advance']}) "
        f"wall {elapsed_s:.2f}s"
    ]
    for n, r in enumerate(report["recoveries"]):
        lines.append(
            f"  restart {n}: replayed {r['wal_records_replayed']:>3} wal "
            f"records (snapshot {r['snapshot_creds']} creds, "
            f"{r['torn_bytes']} torn bytes), caught up "
            f"{r['catchup_updates']} updates, cache kept "
            f"{r['cache_kept']}/evicted {r['cache_evicted']} = "
            f"{r['work_units']} work units"
        )
    lines.append(
        f"  verdicts: {verdicts['checked']} checked, "
        f"{verdicts['grants']} grants, {verdicts['denials']} denials  "
        f"total recovery work {rec['work_units']}"
    )
    for gate in ("verdicts_match", "oracle_agrees", "digests_match"):
        lines.append(f"  [{'PASS' if report[gate] else 'FAIL'}] {gate}")
    return "\n".join(lines)
