"""Seeded credential-churn benchmark: full search vs incremental engine.

``python -m repro bench-churn`` replays one seeded schedule of
delegation publishes, revocations, expiries (clock advances past TTLs),
and authorization queries through **two arms** that differ only in the
authorization engine: the full-search arm re-harvests and re-searches on
every cache miss, the incremental arm maintains reachability under
deltas (:mod:`repro.drbac.incremental`).  Both arms run the same sharded
:class:`~repro.drbac.cache.CachedAuthorizer` in front.

Costs are **deterministic work units**, not wall time: credential edges
inspected by full searches (``DrbacEngine.search_work``) + routed
repository queries (``query_count``) + incremental maintenance edges
(``IncrementalProofEngine.work``).  Virtual clocks and seeded schedules
make the JSON report byte-identical per seed; wall time is printed only
in the human-readable summary.

The headline metric is **authorize-after-revoke throughput**: for each
authorize op preceded by at least one revocation since the previous
authorize, the work spent since that previous authorize (revocation
fallout + the query itself) is attributed to it.  Every verdict is also
checked against :class:`~repro.check.oracles.DrbacOracle`, and the two
arms' transcripts must match byte for byte — the report carries both
verdicts and the CLI exits non-zero if either fails.
"""

from __future__ import annotations

import random
from typing import Any

from ..check.oracles import DrbacOracle
from ..clock import ManualClock
from ..crypto import KeyStore
from ..drbac import CachedAuthorizer, DrbacEngine
from ..errors import AuthorizationError
from ..hermetic import hermetic_counters

REPORT_SCHEMA = "bench-churn/v1"

ORGS = ("OrgA", "OrgB", "OrgC")
ROLES = {
    "OrgA": ("OrgA.Reader", "OrgA.Writer", "OrgA.Auditor"),
    "OrgB": ("OrgB.Member", "OrgB.Partner", "OrgB.Billing"),
    "OrgC": ("OrgC.Guest", "OrgC.Operator"),
}
ALL_ROLES = tuple(role for org in ORGS for role in ROLES[org])
SUBJECTS = tuple(f"user{i}" for i in range(10))

# Op mix: authorize-heavy (it is the hot path being defended), with
# enough revocation/expiry churn that invalidation dominates the cost.
P_DELEGATE = 0.18
P_REVOKE = 0.36
P_AUTHORIZE = 0.90
TTL_RATE = 0.35


def generate_schedule(seed: int, ops: int) -> list[tuple]:
    """One seeded op schedule, replayed identically by both arms.

    Ops: ``("delegate", issuer, subject, role, ttl|None)``,
    ``("revoke", issue_index)``, ``("authorize", subject, role)``,
    ``("advance", seconds)``.  Revocations reference delegations by their
    issue order so the replay needs no generation-time credential ids.
    """
    rng = random.Random(f"churn-{seed}")
    schedule: list[tuple] = []
    issued = 0
    revocable: list[int] = []
    pairs: list[tuple[str, str]] = []

    def delegate_op() -> tuple:
        nonlocal issued
        role = rng.choice(ALL_ROLES)
        issuer = role.split(".", 1)[0]
        if rng.random() < 0.30:
            # Role-subject chaining: some other org's role holds this one.
            subject = rng.choice(
                [r for r in ALL_ROLES if not r.startswith(issuer)]
            )
        else:
            subject = rng.choice(SUBJECTS)
            pairs.append((subject, role))
        ttl = round(rng.uniform(3.0, 40.0), 3) if rng.random() < TTL_RATE else None
        revocable.append(issued)
        issued += 1
        return ("delegate", issuer, subject, role, ttl)

    # Warm-up: every subject gets one live credential so the authorize
    # stream has substance from the first op.
    for subject in SUBJECTS:
        role = rng.choice(ALL_ROLES)
        revocable.append(issued)
        issued += 1
        pairs.append((subject, role))
        schedule.append(("delegate", role.split(".", 1)[0], subject, role, None))

    while len(schedule) < ops:
        draw = rng.random()
        if draw < P_DELEGATE:
            schedule.append(delegate_op())
        elif draw < P_REVOKE:
            if not revocable:
                schedule.append(delegate_op())
                continue
            target = revocable.pop(rng.randrange(len(revocable)))
            schedule.append(("revoke", target))
        elif draw < P_AUTHORIZE:
            if pairs and rng.random() < 0.65:
                # Bias toward pairs that were actually delegated at some
                # point: grants (and post-revoke re-checks of them) are
                # the interesting half of the verdict space.
                subject, role = rng.choice(pairs)
            else:
                subject, role = rng.choice(SUBJECTS), rng.choice(ALL_ROLES)
            schedule.append(("authorize", subject, role))
        else:
            schedule.append(("advance", round(rng.uniform(0.5, 4.0), 3)))
    return schedule


class ChurnBench:
    """Replays one schedule through the full and incremental arms."""

    def __init__(
        self,
        *,
        seed: int = 7,
        ops: int = 600,
        key_store: KeyStore | None = None,
    ) -> None:
        self.seed = seed
        self.ops = ops
        self.key_store = key_store or KeyStore(key_bits=512)
        self.schedule = generate_schedule(seed, ops)

    # -- one arm ---------------------------------------------------------

    def run_arm(self, *, incremental: bool) -> tuple[dict[str, Any], list[str]]:
        with hermetic_counters():
            return self._run_arm(incremental)

    def _run_arm(self, incremental: bool) -> tuple[dict[str, Any], list[str]]:
        clock = ManualClock()
        engine = DrbacEngine(
            key_store=self.key_store, clock=clock, incremental=incremental
        )
        cache = CachedAuthorizer(engine, max_entries=512, shards=8)
        oracle = DrbacOracle()
        creds: list = []
        transcript: list[str] = []
        grants = denials = oracle_mismatches = 0
        post_revoke_count = post_revoke_work = 0
        revoked_since_authorize = False
        work_at_last_authorize = 0

        def work() -> int:
            total = engine.search_work + engine.repository.query_count
            if engine.incremental is not None:
                total += engine.incremental.work
            return total

        for index, op in enumerate(self.schedule):
            if op[0] == "delegate":
                _, issuer, subject, role, ttl = op
                expires_at = clock.now() + ttl if ttl is not None else None
                delegation = engine.delegate(
                    issuer, subject, role, expires_at=expires_at
                )
                creds.append(delegation)
                oracle.delegate(
                    delegation.credential_id, subject, role, expires_at=expires_at
                )
            elif op[0] == "revoke":
                delegation = creds[op[1]]
                engine.revoke(delegation)
                oracle.revoke(delegation.credential_id)
                revoked_since_authorize = True
            elif op[0] == "authorize":
                _, subject, role = op
                try:
                    cache.authorize(subject, role)
                    verdict = True
                    grants += 1
                except AuthorizationError:
                    verdict = False
                    denials += 1
                if verdict != oracle.holds(subject, role, clock.now()):
                    oracle_mismatches += 1
                transcript.append(f"{index}:{subject}->{role}={int(verdict)}")
                spent = work() - work_at_last_authorize
                if revoked_since_authorize:
                    post_revoke_count += 1
                    post_revoke_work += spent
                work_at_last_authorize = work()
                revoked_since_authorize = False
            else:
                clock.advance(op[1])

        incr = engine.incremental
        arm = {
            "engine": "incremental" if incremental else "full",
            "work_units": work(),
            "search_edges": engine.search_work,
            "repo_queries": engine.repository.query_count,
            "incr_work": incr.work if incr is not None else 0,
            "grants": grants,
            "denials": denials,
            "oracle_mismatches": oracle_mismatches,
            "cache": {
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "negative_hits": cache.stats.negative_hits,
                "invalidated": cache.stats.invalidated,
                "evicted": cache.stats.evicted,
            },
            "post_revoke": {
                "count": post_revoke_count,
                "work_units": post_revoke_work,
                # Queries answered per thousand work units: the
                # authorize-after-revoke throughput the issue's
                # acceptance criterion compares across arms.
                "throughput_per_kwork": round(
                    post_revoke_count / max(post_revoke_work, 1) * 1000, 3
                ),
            },
        }
        return arm, transcript

    # -- the comparison -----------------------------------------------------

    def run(self) -> dict[str, Any]:
        full_arm, full_transcript = self.run_arm(incremental=False)
        incr_arm, incr_transcript = self.run_arm(incremental=True)
        mix: dict[str, int] = {"delegate": 0, "revoke": 0, "authorize": 0, "advance": 0}
        for op in self.schedule:
            mix[op[0]] += 1
        full_tp = full_arm["post_revoke"]["throughput_per_kwork"]
        incr_tp = incr_arm["post_revoke"]["throughput_per_kwork"]
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "ops": self.ops,
            "mix": mix,
            "arms": {"full": full_arm, "incremental": incr_arm},
            "speedup": {
                "authorize_after_revoke": round(incr_tp / max(full_tp, 1e-9), 2),
                "overall_work": round(
                    full_arm["work_units"] / max(incr_arm["work_units"], 1), 2
                ),
            },
            "transcripts_match": full_transcript == incr_transcript,
            "oracle_agrees": (
                full_arm["oracle_mismatches"] == 0
                and incr_arm["oracle_mismatches"] == 0
            ),
        }


def passed(report: dict[str, Any]) -> bool:
    """Both arms produced one transcript and the oracle agrees with it."""
    return report["transcripts_match"] and report["oracle_agrees"]


def summarize(report: dict[str, Any], elapsed_s: float) -> str:
    """The human-readable ``repro bench-churn`` summary."""
    mix = report["mix"]
    lines = [
        f"bench-churn seed={report['seed']} ops={report['ops']} "
        f"(delegate {mix['delegate']}, revoke {mix['revoke']}, "
        f"authorize {mix['authorize']}, advance {mix['advance']}) "
        f"wall {elapsed_s:.2f}s"
    ]
    for name in ("full", "incremental"):
        arm = report["arms"][name]
        pr = arm["post_revoke"]
        lines.append(
            f"  {name:>11}: work {arm['work_units']:>6}  "
            f"grants {arm['grants']}  denials {arm['denials']}  "
            f"post-revoke {pr['count']} queries / {pr['work_units']} work "
            f"= {pr['throughput_per_kwork']:.1f} per kwork"
        )
    lines.append(
        f"  speedup: authorize-after-revoke "
        f"{report['speedup']['authorize_after_revoke']:.2f}x  "
        f"overall work {report['speedup']['overall_work']:.2f}x  "
        f"transcripts match: {'yes' if report['transcripts_match'] else 'NO'}  "
        f"oracle agrees: {'yes' if report['oracle_agrees'] else 'NO'}"
    )
    return "\n".join(lines)
