"""Regression tests: revocation must invalidate CachedAuthorizer entries.

The cache's soundness claim is that serving a memoized proof never
extends access beyond what a fresh search would grant.  These tests pin
that down against :meth:`DrbacEngine.revoke` — for the direct credential,
for a mid-chain link, and for clock-driven expiry — and check the cache
reports what happened through both its stats and the obs metrics.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.drbac.cache import CachedAuthorizer
from repro.errors import AuthorizationError
from repro.obs import names as metric_names


@pytest.fixture()
def cache(engine):
    return CachedAuthorizer(engine)


class TestRevocationInvalidatesCache:
    def test_direct_credential_revoked(self, engine, cache):
        cred = engine.delegate("Org", "Alice", "Org.Member")
        result = cache.authorize("Alice", "Org.Member")
        assert cache.authorize("Alice", "Org.Member") is result  # served hot
        engine.revoke(cred)
        assert not result.valid
        with pytest.raises(AuthorizationError):
            cache.authorize("Alice", "Org.Member")
        assert cache.stats.invalidated == 1
        # The stale grant is gone; what remains is the negatively cached
        # denial from the fresh (failed) search.
        assert len(cache) == 1
        with pytest.raises(AuthorizationError):
            cache.authorize("Alice", "Org.Member")
        assert cache.stats.negative_hits == 1

    def test_mid_chain_link_revoked(self, engine, cache):
        # Bob -> Dept.Staff -> Org.Member: revoking the *middle* link must
        # kill the cached proof even though Bob's own credential is fine.
        engine.delegate("Org", "Dept.Staff", "Org.Member")
        middle = engine.delegate("Dept", "Bob", "Dept.Staff")
        result = cache.authorize("Bob", "Org.Member")
        assert len(result.proof.chain) == 2
        engine.revoke(middle)
        assert not result.valid
        with pytest.raises(AuthorizationError):
            cache.authorize("Bob", "Org.Member")
        assert cache.stats.invalidated == 1

    def test_unrelated_revocation_keeps_entry_live(self, engine, cache):
        engine.delegate("Org", "Alice", "Org.Member")
        bystander = engine.delegate("Org", "Carol", "Org.Member")
        result = cache.authorize("Alice", "Org.Member")
        engine.revoke(bystander)
        assert result.valid
        assert cache.authorize("Alice", "Org.Member") is result
        assert cache.stats.invalidated == 0
        assert cache.stats.hits == 1

    def test_expired_credential_invalidated_on_lookup(self, engine, cache, clock):
        engine.delegate("Org", "Alice", "Org.Member", expires_at=10.0)
        result = cache.authorize("Alice", "Org.Member")
        clock.advance(20.0)
        assert result.monitor.check_expiry(clock.now()) is False
        with pytest.raises(AuthorizationError):
            cache.authorize("Alice", "Org.Member")
        assert cache.stats.invalidated == 1

    def test_regrant_after_revocation_caches_fresh_proof(self, engine, cache):
        old = engine.delegate("Org", "Alice", "Org.Member")
        stale = cache.authorize("Alice", "Org.Member")
        engine.revoke(old)
        fresh_cred = engine.delegate("Org", "Alice", "Org.Member")
        fresh = cache.authorize("Alice", "Org.Member")
        assert fresh is not stale
        assert fresh.valid
        assert fresh_cred.credential_id in fresh.monitor.watched_credentials
        assert cache.stats.misses == 2
        assert cache.stats.invalidated == 1


class TestObsAccounting:
    def test_invalidation_counts_and_gauge_stays_honest(self, engine):
        with obs.scoped() as registry:
            cache = CachedAuthorizer(engine)
            cred = engine.delegate("Org", "Alice", "Org.Member")
            cache.authorize("Alice", "Org.Member")
            cache.authorize("Alice", "Org.Member")
            assert registry.counter_value(metric_names.CACHE_MISSES) == 1
            assert registry.counter_value(metric_names.CACHE_HITS) == 1
            assert registry.gauge(metric_names.CACHE_ENTRIES).value == 1
            engine.revoke(cred)
            with pytest.raises(AuthorizationError):
                cache.authorize("Alice", "Org.Member")
            assert registry.counter_value(metric_names.CACHE_INVALIDATED) == 1
            # The stale grant is gone and the fresh search's denial took its
            # place: the gauge counts the one entry the cache holds, so a
            # removal the gauge missed would read 2.
            assert len(cache) == 1
            assert registry.gauge(metric_names.CACHE_ENTRIES).value == 1
