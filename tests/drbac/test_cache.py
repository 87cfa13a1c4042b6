"""Monitored proof-cache tests: hits, sound invalidation, eviction."""

from __future__ import annotations

import pytest

from repro import obs
from repro.drbac.cache import CachedAuthorizer
from repro.errors import AuthorizationError
from repro.obs import names as metric_names


class TestCaching:
    def test_second_lookup_hits(self, engine):
        engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        cache = CachedAuthorizer(engine)
        first = cache.authorize("Alice", "Comp.NY.Member")
        second = cache.authorize("Alice", "Comp.NY.Member")
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_distinct_goals_distinct_entries(self, engine):
        engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        engine.delegate("Comp.NY", "Alice", "Comp.NY.Partner")
        cache = CachedAuthorizer(engine)
        cache.authorize("Alice", "Comp.NY.Member")
        cache.authorize("Alice", "Comp.NY.Partner")
        assert len(cache) == 2

    def test_denial_served_from_negative_cache(self, engine):
        cache = CachedAuthorizer(engine)
        with pytest.raises(AuthorizationError):
            cache.authorize("Nobody", "Comp.NY.Member")
        assert len(cache) == 1
        with pytest.raises(AuthorizationError):
            cache.authorize("Nobody", "Comp.NY.Member")
        assert cache.stats.negative_hits == 1
        assert cache.stats.misses == 1

    def test_negative_entry_dropped_on_publish(self, engine):
        cache = CachedAuthorizer(engine)
        assert not cache.is_authorized("Late", "Comp.NY.Member")
        # A new credential can upgrade a denial: the cached denial must
        # not outlive the publish that makes the subject authorized.
        engine.delegate("Comp.NY", "Late", "Comp.NY.Member")
        assert cache.is_authorized("Late", "Comp.NY.Member")
        assert cache.stats.invalidated == 1

    def test_explicit_credentials_bypass_cache(self, engine):
        cred = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member", publish=False)
        cache = CachedAuthorizer(engine)
        result = cache.authorize("Alice", "Comp.NY.Member", [cred])
        assert result.valid
        assert len(cache) == 0 and cache.stats.lookups == 0

    def test_attribute_requirements_distinguish_entries(self, engine):
        from repro.drbac.model import AttrSet

        engine.delegate(
            "Mail", "node1", "Mail.Node", attributes={"Secure": AttrSet([True])}
        )
        cache = CachedAuthorizer(engine)
        cache.authorize("node1", "Mail.Node")
        cache.authorize(
            "node1", "Mail.Node", required_attributes={"Secure": AttrSet([True])}
        )
        assert cache.stats.misses == 2


class TestSoundInvalidation:
    def test_revocation_forces_fresh_search(self, engine):
        cred = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        backup = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        cache = CachedAuthorizer(engine)
        cache.authorize("Alice", "Comp.NY.Member")
        engine.revoke(cred)
        # The backup credential still authorizes, but through a new proof.
        result = cache.authorize("Alice", "Comp.NY.Member")
        assert result.valid
        assert cache.stats.invalidated == 1
        assert cred.credential_id not in {
            d.credential_id for d in result.proof.all_delegations()
        }

    def test_revocation_without_backup_denies(self, engine):
        cred = engine.delegate("Comp.NY", "Bobby", "Comp.NY.Member")
        cache = CachedAuthorizer(engine)
        cache.authorize("Bobby", "Comp.NY.Member")
        engine.revoke(cred)
        with pytest.raises(AuthorizationError):
            cache.authorize("Bobby", "Comp.NY.Member")

    def test_expiry_forces_fresh_search(self, engine, clock):
        engine.delegate("Comp.NY", "Cleo", "Comp.NY.Member", expires_at=10.0)
        cache = CachedAuthorizer(engine)
        cache.authorize("Cleo", "Comp.NY.Member")
        clock.advance(20.0)
        with pytest.raises(AuthorizationError):
            cache.authorize("Cleo", "Comp.NY.Member")
        assert cache.stats.invalidated == 1


class TestEviction:
    def test_bounded_size(self, engine):
        for i in range(6):
            engine.delegate("Comp.NY", f"user{i}", "Comp.NY.Member")
        cache = CachedAuthorizer(engine, max_entries=4)
        for i in range(6):
            cache.authorize(f"user{i}", "Comp.NY.Member")
        assert len(cache) <= 4

    def test_clear(self, engine):
        engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        cache = CachedAuthorizer(engine)
        cache.authorize("Alice", "Comp.NY.Member")
        cache.clear()
        assert len(cache) == 0

    def test_is_authorized_bool_form(self, engine):
        engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        cache = CachedAuthorizer(engine)
        assert cache.is_authorized("Alice", "Comp.NY.Member")
        assert not cache.is_authorized("Nobody", "Comp.NY.Member")


class TestEvictionAtomicity:
    """Eviction must remove-close-count in one step.

    An evicted entry's monitor callback stays subscribed until the proof
    is garbage collected, so a later revocation fires it against a cache
    that no longer holds the entry — or holds a *different* entry under
    the same key.  The identity check in ``_remove`` is what keeps the
    stats counters and the entries gauge from drifting here; these tests
    pin that regression.
    """

    def test_revoking_evicted_entry_does_not_double_count(self, engine):
        creds = [engine.delegate("Org", f"u{i}", "Org.Member") for i in range(3)]
        with obs.scoped() as registry:
            cache = CachedAuthorizer(engine, max_entries=2, shards=1)
            for i in range(3):
                cache.authorize(f"u{i}", "Org.Member")  # u0's entry evicted
            assert cache.stats.evicted == 1
            assert len(cache) == 2
            # The evicted proof's monitor callback is still registered;
            # revoking its credential now targets an entry already gone.
            engine.revoke(creds[0])
            assert cache.stats.invalidated == 0
            assert cache.stats.evicted == 1
            assert len(cache) == 2
            assert registry.gauge(metric_names.CACHE_ENTRIES).value == len(cache)

    def test_stale_callback_cannot_remove_key_reusing_entry(self, engine):
        old = engine.delegate("Org", "Alice", "Org.Member")
        cache = CachedAuthorizer(engine, max_entries=1, shards=1)
        stale = cache.authorize("Alice", "Org.Member")
        engine.delegate("Org", "Bob", "Org.Member")
        cache.authorize("Bob", "Org.Member")  # evicts Alice's entry
        fresh = cache.authorize("Alice", "Org.Member")  # reuses Alice's key
        assert fresh is not stale
        assert cache.stats.evicted == 2
        # Both proofs watch `old`, so revoking it fires the stale entry's
        # callback as well as the live one's.  Only the live entry may be
        # removed, and the removal must be counted exactly once.
        engine.revoke(old)
        assert cache.stats.invalidated == 1
        assert len(cache) == 0


class TestWatchDedup:
    """Regression for O(entries) callback accumulation: the cache keeps
    one watch-table row per credential id, however many cached entries
    share it; only each entry's proof monitor listens in the directory."""

    def test_hot_credential_registers_one_authority_callback(self, engine):
        hot = engine.delegate("Org", "Org.Mid", "Org.Goal")
        for i in range(10):
            engine.delegate("Org", f"u{i}", "Org.Mid")
        cache = CachedAuthorizer(engine, max_entries=64, shards=1)
        for i in range(10):
            assert cache.is_authorized(f"u{i}", "Org.Goal")
        # Ten entries all depend on `hot`: only their 10 proof monitors
        # listen for it; the cache and the incremental engine fold the
        # log, and the cache's watch table holds one row for it.
        assert engine.revocations.listener_count(hot.credential_id) == 10
        assert len(cache._watches[hot.credential_id]) == 10

    def test_one_revocation_evicts_every_dependent_entry(self, engine):
        hot = engine.delegate("Org", "Org.Mid", "Org.Goal")
        for i in range(10):
            engine.delegate("Org", f"u{i}", "Org.Mid")
        cache = CachedAuthorizer(engine, max_entries=64, shards=4)
        for i in range(10):
            assert cache.is_authorized(f"u{i}", "Org.Goal")
        assert len(cache) == 10
        engine.revoke(hot)
        assert cache.stats.invalidated == 10
        assert len(cache) == 0
        # All dependents gone: every listener for it was detached too.
        assert engine.revocations.listener_count(hot.credential_id) == 0
