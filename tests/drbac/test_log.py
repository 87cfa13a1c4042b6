"""The credential log: fold equivalence, fold/monitor ordering, and the
one wire decoder.

The fold-equivalence class is the log's recovery contract: restoring an
engine from any prefix of another engine's records and catching up on the
rest must leave every fold — repository buckets, revoked sets,
incremental reach sets and dependents index, cached verdicts — exactly
where the never-crashed engine is.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import ManualClock
from repro.drbac import CachedAuthorizer, DrbacEngine, EntityRef, ProofEngine, Role
from repro.drbac.log import BOTH_TAGS, KINDS, CredentialLog, DiscoveryTag, LogRecord
from repro.errors import LogRecordError

USERS = ("u0", "u1", "u2", "u3")
ROLES = ("Org.R0", "Org.R1", "Org.R2", "Org.R3")
_DROPPED = object()


def _schedule(seed: int, ops: int = 30) -> list[tuple]:
    """Seeded publish/revoke/advance ops over a pool of simple
    (self-certifying, attribute-free) credentials, some with a TTL."""
    rng = random.Random(seed)
    pool = []
    for _ in range(12):
        subject = rng.choice(USERS + ROLES)
        role = rng.choice([r for r in ROLES if r != subject])
        pool.append((subject, role, rng.choice((None, None, 2.0, 5.0))))
    schedule: list[tuple] = [("sign", pool)]
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.55:
            schedule.append(("publish", rng.randrange(len(pool))))
        elif roll < 0.8:
            schedule.append(("revoke", rng.randrange(len(pool))))
        else:
            schedule.append(("advance", rng.choice((0.5, 1.5, 3.0))))
    return schedule


def _catch_up(engine: DrbacEngine, records: list[LogRecord]) -> None:
    """Apply another engine's records through this engine's entry points;
    expiry is derived from this engine's own clock."""
    for record in records:
        if record.kind == "publish":
            engine.repository.publish(record.delegation, record.tags)
        elif record.kind == "revoke":
            engine.revocations.revoke_id(record.home, record.credential_id)


def _battery(cache: CachedAuthorizer) -> list[bool]:
    return [cache.is_authorized(user, role) for user in USERS for role in ROLES]


def _folds(engine: DrbacEngine) -> dict:
    """Every fold's state, after tracking every user in the incremental
    engine (cache hits answer without touching it)."""
    incr = engine.incremental
    for user in USERS:
        incr.try_prove(EntityRef(user), Role.parse(ROLES[0]))
    return {
        "buckets": {
            home: (
                {k: [d.credential_id for d in v] for k, v in shard.by_subject.items()},
                {k: [d.credential_id for d in v] for k, v in shard.by_role.items()},
            )
            for home, shard in engine.repository._shards.items()
        },
        "revoked": engine.revocations._revoked,
        "adjacency": {k: v for k, v in incr._out.items() if v},
        "reach": {pk: state.roles for pk, state in incr._reach.items()},
        "dependents": incr.dependents_index(),
        "simple": incr.simple,
    }


class TestFoldEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_restore_any_prefix_then_catch_up(self, key_store, seed):
        clock = ManualClock()
        first = DrbacEngine(key_store=key_store, clock=clock)
        schedule = _schedule(seed)
        pool = [
            first.delegate(
                "Org", subject, role, publish=False,
                expires_at=None if ttl is None else clock.now() + ttl,
            )
            for subject, role, ttl in schedule[0][1]
        ]
        for op in schedule[1:]:
            if op[0] == "publish":
                first.repository.publish(pool[op[1]])
            elif op[0] == "revoke":
                first.revoke(pool[op[1]])
            else:
                clock.advance(op[1])
                first.incremental.refresh()  # expire records land in the log
        records = first.log.since(0)
        assert {r.kind for r in records} <= set(KINDS)
        expected_verdicts = _battery(CachedAuthorizer(first))
        expected = _folds(first)

        second = DrbacEngine(key_store=key_store, clock=clock)
        cache = CachedAuthorizer(second)
        _catch_up(second, records)
        for prefix in range(len(records) + 1):
            version = second.repository.version
            second.log.restore(records[:prefix])
            _catch_up(second, first.log.since(prefix))
            published = frozenset(
                r.credential_id for r in second.log.since(0) if r.kind == "publish"
            )
            cache.recover(published=published)
            assert second.repository.version >= version
            assert _battery(cache) == expected_verdicts, f"prefix {prefix}"
            assert _folds(second) == expected, f"prefix {prefix}"


class TestFoldOrdering:
    def test_monitor_callback_reauthorizing_is_denied(self, key_store):
        """Monitors fire after every fold applied the revocation: a
        callback that re-authorizes synchronously sees it everywhere —
        the incremental engine and every dependent cache entry."""
        engine = DrbacEngine(key_store=key_store)
        mid = engine.delegate("Org", "Org.Mid", "Org.Goal")
        engine.delegate("Org", "Alice", "Org.Mid")
        engine.delegate("Org", "Bob", "Org.Mid")
        cache = CachedAuthorizer(engine)
        held = cache.authorize("Alice", "Org.Goal")
        assert cache.is_authorized("Bob", "Org.Goal")
        seen = []
        held.monitor.on_invalidated(
            lambda _cid: seen.append((
                cache.is_authorized("Bob", "Org.Goal"),
                cache.is_authorized("Alice", "Org.Goal"),
                engine.prove("Alice", "Org.Goal") is not None,
            ))
        )
        engine.revoke(mid)
        assert seen == [(False, False, False)]
        assert not held.valid

    def test_subscribe_replays_then_delivers_live(self, key_store):
        engine = DrbacEngine(key_store=key_store)
        cred = engine.delegate("Org", "Alice", "Org.R0")
        log = engine.log
        seen: list[tuple[int, str]] = []
        log.subscribe(lambda r: seen.append((r.seq, r.kind)))
        engine.revoke(cred)
        assert seen == [(1, "publish"), (2, "revoke")]
        late: list[int] = []
        log.subscribe(lambda r: late.append(r.seq), since=1)
        assert late == [2]
        assert [r.seq for r in log.since(1)] == [2]

    def test_duplicate_revoke_appends_once(self, key_store):
        engine = DrbacEngine(key_store=key_store)
        cred = engine.delegate("Org", "Alice", "Org.R0")
        engine.revoke(cred)
        engine.revoke(cred)
        assert [r.kind for r in engine.log.since(0)] == ["publish", "revoke"]


# -- the wire decoder --------------------------------------------------------


@pytest.fixture(scope="module")
def publish_wire(key_store):
    engine = DrbacEngine(key_store=key_store)
    cred = engine.delegate("Org", "Alice", "Org.R0", publish=False)
    return CredentialLog().publish(cred, {DiscoveryTag.SEARCHABLE_FROM_SUBJECT}).to_wire()


REVOKE_WIRE = {"seq": 3, "kind": "revoke", "payload": {"id": "cred-9", "home": "Org"}}


class TestWire:
    def test_round_trip(self, publish_wire):
        for wire in (publish_wire, REVOKE_WIRE):
            record = LogRecord.from_wire(wire)
            assert record.to_wire() == wire
            assert LogRecord.from_wire(record.to_wire()) == record

    def test_default_tags_round_trip(self, key_store):
        engine = DrbacEngine(key_store=key_store)
        cred = engine.delegate("Org", "Alice", "Org.R0", publish=False)
        record = CredentialLog().publish(cred)
        assert LogRecord.from_wire(record.to_wire()).tags == BOTH_TAGS

    @pytest.mark.parametrize(
        "path,value",
        [
            (("kind",), "forget"),
            (("kind",), None),
            (("seq",), "1"),
            (("seq",), True),
            (("seq",), -1),
            (("payload",), []),
            (("payload", "tags"), ["sideways"]),
            (("payload", "tags"), "subject"),
            (("payload", "cred"), None),
            (("payload", "cred"), "cred"),
            (("payload", "cred", "id"), 7),
            (("payload", "cred", "home"), ["Org"]),
        ],
    )
    def test_bad_publish_record_is_typed(self, publish_wire, path, value):
        with pytest.raises(LogRecordError):
            LogRecord.from_wire(_mutate(publish_wire, path, value))

    @pytest.mark.parametrize(
        "path,value",
        [
            (("payload", "id"), None),
            (("payload", "id"), 12),
            (("payload", "home"), _DROPPED),
            (("payload", "home"), {"Org": 1}),
        ],
    )
    def test_bad_revoke_record_is_typed(self, path, value):
        with pytest.raises(LogRecordError):
            LogRecord.from_wire(_mutate(REVOKE_WIRE, path, value))

    @pytest.mark.parametrize("data", [None, [], "record", 3])
    def test_non_object_record_is_typed(self, data):
        with pytest.raises(LogRecordError):
            LogRecord.from_wire(data)


def _mutate(wire: dict, path: tuple, value) -> dict:
    wire = copy.deepcopy(wire)
    parent = wire
    for step in path[:-1]:
        parent = parent[step]
    if value is _DROPPED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return wire


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(KINDS + ("subject", "object")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)

_PATHS = {
    "publish": [("seq",), ("kind",), ("payload",), ("payload", "cred"),
                ("payload", "tags")]
    + [
        ("payload", "cred", key)
        for key in (
            "id", "home", "subject", "role", "type", "issuer", "expires_at",
            "requires_monitoring", "attributes", "signature",
        )
    ],
    "revoke": [("seq",), ("kind",), ("payload",), ("payload", "id"),
               ("payload", "home")],
}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(_PATHS)), data=st.data())
def test_mutated_record_is_refused_or_valid(publish_wire, kind, data):
    """Replace or drop one field of a record with arbitrary JSON: decoding
    either raises the typed error or yields a well-formed record that
    round-trips and whose credential a search takes — never any other
    exception."""
    path = data.draw(st.sampled_from(_PATHS[kind]), label="path")
    value = data.draw(st.just(_DROPPED) | _JSON, label="value")
    wire = _mutate(publish_wire if kind == "publish" else REVOKE_WIRE, path, value)
    try:
        record = LogRecord.from_wire(wire)
    except LogRecordError:
        return
    assert type(record.seq) is int and record.kind in KINDS
    assert isinstance(record.credential_id, str) and isinstance(record.home, str)
    assert LogRecord.from_wire(record.to_wire()) == record
    if record.delegation is not None:
        d = record.delegation
        ProofEngine({}, verify_signatures=False).find_proof(d.subject, d.role, [d])
