"""DurableNode recovery protocol tests: replay, catch-up, cache scrub.

The end-to-end invariant: after ``restart`` the node's observable
authorization behaviour is identical to a node that never crashed —
including when revocations landed while it was down and the WAL tail
was torn off.  The cache regression class pins the exact rebuild of the
:class:`~repro.drbac.cache.CachedAuthorizer` watch table and entries
gauge, since a leaked watch or stale positive there is invisible to
coarser tests until a revocation goes unheard.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.clock import ManualClock
from repro.drbac import CachedAuthorizer, DrbacEngine
from repro.durable import DurableNode, UpdateFeed
from repro.errors import AuthorizationError
from repro.obs import names as metric_names


class World:
    """One engine + cache + durable node fed by a shared update stream."""

    def __init__(self, key_store, feed, *, mutation=None, compact_every=64):
        self.clock = ManualClock()
        self.engine = DrbacEngine(
            key_store=key_store, clock=self.clock, incremental=True
        )
        self.cache = CachedAuthorizer(self.engine, max_entries=64, shards=2)
        self.node = DurableNode(
            engine=self.engine, cache=self.cache, feed=feed,
            compact_every=compact_every, mutation=mutation,
        )

    def sign(self, issuer, subject, role, *, ttl=None):
        expires_at = self.clock.now() + ttl if ttl is not None else None
        return self.engine.delegate(
            issuer, subject, role, expires_at=expires_at, publish=False
        )

    def holds(self, subject, role) -> bool:
        try:
            self.cache.authorize(subject, role)
            return True
        except AuthorizationError:
            return False


@pytest.fixture()
def feed():
    return UpdateFeed()


@pytest.fixture()
def world(key_store, feed):
    return World(key_store, feed)


class TestLivePath:
    def test_feed_updates_reach_engine_and_wal(self, world, feed):
        cred = world.sign("OrgA", "Alice", "OrgA.Reader")
        feed.publish(cred)
        assert world.holds("Alice", "OrgA.Reader")
        assert world.node.last_seqno == feed.seqno == 1
        assert world.node.published_ids() == {cred.credential_id}
        feed.revoke(cred)
        assert not world.holds("Alice", "OrgA.Reader")
        assert world.node.last_seqno == 2

    def test_rejects_unknown_mutation(self, key_store, feed):
        with pytest.raises(ValueError, match="unknown recovery mutation"):
            DurableNode(
                engine=DrbacEngine(key_store=key_store, clock=ManualClock()),
                feed=feed, mutation="made-up",
            )


class TestRecovery:
    def test_restart_restores_pre_crash_verdicts(self, world, feed):
        reader = world.sign("OrgA", "Alice", "OrgA.Reader")
        member = world.sign("OrgB", "Bob", "OrgB.Member")
        feed.publish(reader)
        feed.publish(member)
        feed.revoke(member)
        digest = world.node.state_digest()
        world.node.crash()
        assert not world.node.up
        report = world.node.restart()
        assert world.node.up
        assert world.node.state_digest() == digest
        assert report.wal_records_replayed == 3
        assert world.holds("Alice", "OrgA.Reader")
        assert not world.holds("Bob", "OrgB.Member")

    def test_revocation_during_downtime_is_caught_up(self, world, feed):
        cred = world.sign("OrgA", "Alice", "OrgA.Reader")
        feed.publish(cred)
        assert world.holds("Alice", "OrgA.Reader")
        world.node.crash()
        feed.revoke(cred)  # lands on the feed while the node is dead
        report = world.node.restart()
        assert report.catchup_updates == 1
        assert not world.holds("Alice", "OrgA.Reader")

    def test_torn_tail_is_repaired_by_catchup(self, world, feed):
        creds = [
            world.sign("OrgA", name, "OrgA.Reader")
            for name in ("Alice", "Bob", "Carol")
        ]
        for cred in creds:
            feed.publish(cred)
        digest = world.node.state_digest()
        world.node.crash()
        # A one-byte tear invalidates the whole final frame; catch-up
        # must re-pull it from the feed by sequence number.
        report = world.node.restart(torn_tail_bytes=1)
        assert report.torn_bytes > 1
        assert report.catchup_updates >= 1
        assert world.node.state_digest() == digest
        for name in ("Alice", "Bob", "Carol"):
            assert world.holds(name, "OrgA.Reader")

    def test_recover_is_idempotent(self, world, feed):
        cred = world.sign("OrgA", "Alice", "OrgA.Reader")
        feed.publish(cred)
        feed.revoke(world.sign("OrgB", "Bob", "OrgB.Member"))
        world.node.crash()
        world.node.restart()
        digest = world.node.state_digest()
        world.node.recover()  # second pass over identical durable state
        assert world.node.state_digest() == digest
        assert world.holds("Alice", "OrgA.Reader")
        assert world.node.recoveries == 2

    def test_compaction_bounds_replay(self, key_store, feed):
        world = World(key_store, feed, compact_every=4)
        for i in range(10):
            feed.publish(world.sign("OrgA", f"user{i}", "OrgA.Reader"))
        world.node.crash()
        report = world.node.restart()
        assert report.snapshot_creds == 8  # two compactions folded 8 in
        assert report.wal_records_replayed == 2
        assert world.holds("user0", "OrgA.Reader")
        assert world.holds("user9", "OrgA.Reader")

    def test_version_stays_monotonic_across_recovery(self, world, feed):
        feed.publish(world.sign("OrgA", "Alice", "OrgA.Reader"))
        version = world.engine.repository.version
        world.node.crash()
        world.node.restart()
        assert world.engine.repository.version >= version


class TestSkipCatchupMutation:
    def test_mutant_serves_stale_grants(self, key_store):
        feed = UpdateFeed()
        mutant = World(key_store, feed, mutation="skip-catchup")
        control = World(key_store, feed)
        cred = mutant.sign("OrgA", "Alice", "OrgA.Reader")
        feed.publish(cred)
        mutant.node.crash()
        control.node.crash()
        feed.revoke(cred)
        mutant.node.restart()
        control.node.restart()
        # The mutant missed the downtime revocation and wrongly grants;
        # the honest node caught up and denies.  Exactly the divergence
        # the differential drill must flag.
        assert mutant.holds("Alice", "OrgA.Reader")
        assert not control.holds("Alice", "OrgA.Reader")
        assert mutant.node.state_digest() != control.node.state_digest()


class TestCacheRebuild:
    """Satellite regression: entries gauge and watch table after recovery."""

    def _watch_table_invariant(self, cache):
        """_watches must hold exactly the live entries' proof credentials."""
        expected = set()
        entries = 0
        for shard in cache._shards:
            for entry in shard.entries.values():
                entries += 1
                if entry.result is not None:
                    expected.update(
                        d.credential_id
                        for d in entry.result.proof.all_delegations()
                    )
        assert set(cache._watches) == expected
        return entries

    def test_gauge_and_watch_table_exactly_rebuilt(self, key_store, feed):
        with obs.scoped() as registry:
            world = World(key_store, feed)
            alice = world.sign("OrgA", "Alice", "OrgA.Reader")
            bob = world.sign("OrgB", "Bob", "OrgB.Member")
            feed.publish(alice)
            feed.publish(bob)
            assert world.holds("Alice", "OrgA.Reader")
            assert world.holds("Bob", "OrgB.Member")
            assert not world.holds("mallory", "OrgA.Reader")  # negative entry
            world.node.crash()
            feed.revoke(bob)  # revoked while down: no stale positive allowed
            report = world.node.restart()
            assert report.cache_kept >= 1
            entries = self._watch_table_invariant(world.cache)
            assert len(world.cache) == entries
            assert registry.gauge(metric_names.CACHE_ENTRIES).value == entries
            assert not world.holds("Bob", "OrgB.Member")

    def test_recovered_watches_still_hear_revocations(self, key_store, feed):
        world = World(key_store, feed)
        cred = world.sign("OrgA", "Alice", "OrgA.Reader")
        feed.publish(cred)
        assert world.holds("Alice", "OrgA.Reader")
        world.node.crash()
        world.node.restart()
        assert world.holds("Alice", "OrgA.Reader")  # kept across recovery
        feed.revoke(cred)  # post-recovery revocation through fresh watches
        assert not world.holds("Alice", "OrgA.Reader")

    def test_no_watches_leak_across_repeated_recoveries(self, key_store, feed):
        world = World(key_store, feed)
        for i in range(6):
            feed.publish(world.sign("OrgA", f"user{i}", "OrgA.Reader"))
            world.holds(f"user{i}", "OrgA.Reader")
        revocations = world.engine.revocations
        for _ in range(3):
            world.node.crash()
            world.node.restart()
            for i in range(6):
                assert world.holds(f"user{i}", "OrgA.Reader")
        self._watch_table_invariant(world.cache)
        # Each credential has exactly one listener-table row feeding cache
        # watch, proof monitors, and incremental engine — recoveries must
        # not stack rows for credentials nothing watches any more.
        assert revocations.watched_credential_count() <= 6 + len(
            world.cache._watches
        )
