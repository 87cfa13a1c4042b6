"""Property tests: the cached authorizer agrees with the bare engine.

Hypothesis drives random interleavings of delegate / revoke /
clock-advance / authorize over a small universe of subjects and roles,
holding one :class:`CachedAuthorizer` — with eviction pressure and
negative caching both on — against the uncached engine it wraps.  Two
invariants survive every interleaving:

* **Agreement** — at every authorize step the cached decision
  (grant or deny) matches what a fresh, uncached proof search returns
  at that same instant.
* **No stale grants** — every result served from the cache is still
  live: its monitor is valid and none of its credentials has expired.

Together these subsume the soundness claims the unit tests pin one at a
time: a revocation can never be masked by a cached proof, and a publish
can never be masked by a cached denial.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import ManualClock
from repro.drbac import DrbacEngine
from repro.drbac.cache import CachedAuthorizer
from repro.errors import AuthorizationError

SUBJECTS = ["Alice", "Bob", "Carol"]
ROLES = ["Org.Member", "Org.Admin"]

_delegate = st.tuples(
    st.just("delegate"),
    st.sampled_from(SUBJECTS),
    st.sampled_from(ROLES),
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=50.0)),
)
_revoke = st.tuples(st.just("revoke"), st.integers(min_value=0, max_value=63))
_advance = st.tuples(st.just("advance"), st.floats(min_value=0.5, max_value=20.0))
_authorize = st.tuples(
    st.just("authorize"), st.sampled_from(SUBJECTS), st.sampled_from(ROLES)
)

op_sequences = st.lists(
    st.one_of(_delegate, _revoke, _advance, _authorize), max_size=24
)


def _uncached_outcome(engine, subject, role):
    try:
        result = engine.authorize(subject, role)
    except AuthorizationError:
        return False
    result.close()
    return True


@settings(max_examples=30, deadline=None)
@given(ops=op_sequences)
def test_cache_agrees_with_uncached_engine(key_store, ops):
    clock = ManualClock()
    engine = DrbacEngine(key_store=key_store, clock=clock)
    # Tiny capacity + few shards so eviction churns during the run.
    cache = CachedAuthorizer(engine, max_entries=3, shards=2)
    issued = []
    revoked = set()
    for op in ops:
        if op[0] == "delegate":
            _, subject, role, lifetime = op
            expires = None if lifetime is None else clock.now() + lifetime
            issued.append(engine.delegate("Org", subject, role, expires_at=expires))
        elif op[0] == "revoke":
            if issued:
                cred = issued[op[1] % len(issued)]
                if cred.credential_id not in revoked:
                    revoked.add(cred.credential_id)
                    engine.revoke(cred)
        elif op[0] == "advance":
            clock.advance(op[1])
        else:
            _, subject, role = op
            try:
                result = cache.authorize(subject, role)
                cached_grant = True
            except AuthorizationError:
                cached_grant = False
            if cached_grant:
                # A served grant must itself still be live.
                assert result.valid
                assert result.monitor.check_expiry(clock.now())
                assert not (set(result.monitor.watched_credentials) & revoked)
            assert cached_grant == _uncached_outcome(engine, subject, role), (
                f"cache and engine disagree on {subject} -> {role}"
            )
        # Capacity is a hard bound at every step, not just at the end.
        assert len(cache) <= 3
    cache.clear()


@settings(max_examples=15, deadline=None)
@given(ops=op_sequences)
def test_shard_placement_is_deterministic(key_store, ops):
    """Replaying one interleaving lands every key on the same shard."""
    clock = ManualClock()
    engine = DrbacEngine(key_store=key_store, clock=clock)
    sizes = []
    for _ in range(2):
        cache = CachedAuthorizer(engine, max_entries=8, shards=4)
        for op in ops:
            if op[0] == "authorize":
                cache.is_authorized(op[1], op[2])
        sizes.append(cache.shard_sizes())
        cache.clear()
    assert sizes[0] == sizes[1]


# -- model-based state machine -------------------------------------------
#
# The simulation checker's naive dRBAC oracle (repro.check.oracles) is an
# independent executable model of role membership.  Here Hypothesis
# drives the cached authorizer and the oracle through one interleaving of
# delegate / publish / revoke / advance and demands they agree at every
# authorization, including across cross-namespace role chains
# (Alice -> OrgA.Reader -> OrgB.Member) that the list-based strategies
# above never build.

from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.check.oracles import DrbacOracle
from repro.crypto import KeyStore
from repro.drbac.model import subject_key

_MACHINE_ROLES = ["OrgA.Reader", "OrgB.Member"]
_MACHINE_KEYS = KeyStore(key_bits=512)


class CacheVsOracleMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = ManualClock()
        self.engine = DrbacEngine(key_store=_MACHINE_KEYS, clock=self.clock)
        self.cache = CachedAuthorizer(self.engine, max_entries=4, shards=2)
        self.oracle = DrbacOracle()
        self.creds = {}
        self.published = set()
        self.revoked = set()

    @rule(
        subject=st.sampled_from(SUBJECTS + _MACHINE_ROLES),
        role=st.sampled_from(_MACHINE_ROLES),
        ttl=st.one_of(st.none(), st.floats(min_value=1.0, max_value=40.0)),
        publish=st.booleans(),
    )
    def delegate(self, subject, role, ttl, publish):
        if subject == role:
            return  # self-edges prove nothing
        ref = f"m{len(self.creds)}"
        expires = None if ttl is None else self.clock.now() + ttl
        cred = self.engine.delegate(
            role.split(".")[0], subject, role, expires_at=expires, publish=publish
        )
        self.creds[ref] = cred
        if publish:
            self.published.add(ref)
        self.oracle.delegate(
            ref, subject, role, expires_at=expires, published=publish
        )

    @rule(pick=st.integers(min_value=0, max_value=63))
    def publish(self, pick):
        if not self.creds:
            return
        ref = sorted(self.creds)[pick % len(self.creds)]
        if ref in self.published:
            return  # re-publishing duplicates repository entries
        self.published.add(ref)
        self.engine.repository.publish(self.creds[ref])
        self.oracle.publish(ref)

    @rule(pick=st.integers(min_value=0, max_value=63))
    def revoke(self, pick):
        if not self.creds:
            return
        ref = sorted(self.creds)[pick % len(self.creds)]
        self.engine.revoke(self.creds[ref])
        self.oracle.revoke(ref)
        self.revoked.add(ref)

    @rule(seconds=st.floats(min_value=0.5, max_value=25.0))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule()
    def expire(self):
        """Step the clock just past the *earliest* pending expiry — a
        targeted expiry event, not merely random time passing."""
        pending = [
            cred.expires_at
            for cred in self.creds.values()
            if cred.expires_at is not None and cred.expires_at > self.clock.now()
        ]
        if not pending:
            return
        self.clock.advance(min(pending) - self.clock.now() + 0.25)

    @rule(pick=st.integers(min_value=0, max_value=63))
    def republish(self, pick):
        """Re-grant a dead (revoked or expired) edge with a *fresh*
        credential: the deny -> grant transition that delta-keyed
        negative entries must honor."""
        now = self.clock.now()
        dead = sorted(
            ref
            for ref, cred in self.creds.items()
            if ref in self.revoked or cred.is_expired(now)
        )
        if not dead:
            return
        old = self.creds[dead[pick % len(dead)]]
        ref = f"m{len(self.creds)}"
        cred = self.engine.delegate(
            str(old.role).split(".")[0], subject_key(old.subject), str(old.role)
        )
        self.creds[ref] = cred
        self.published.add(ref)
        self.oracle.delegate(ref, subject_key(old.subject), str(old.role))

    @rule(
        subject=st.sampled_from(SUBJECTS + ["mallory"]),
        role=st.sampled_from(_MACHINE_ROLES),
    )
    def authorize(self, subject, role):
        observed = self.cache.is_authorized(subject, role)
        expected = self.oracle.holds(subject, role, self.clock.now())
        assert observed == expected, (
            f"cache says {observed}, oracle says {expected} "
            f"for {subject} -> {role} at t={self.clock.now()}"
        )

    @invariant()
    def capacity(self):
        assert len(self.cache) <= 4

    @invariant()
    def watch_table_is_precise(self):
        """The per-credential dependents index never retains ids for
        evicted entries, and never drops ids for live ones: watches and
        shard contents mirror each other exactly, in both directions."""
        for cred_id, watch in self.cache._watches.items():
            assert watch, f"empty watch retained for {cred_id}"
            for key, (shard, entry) in watch.items():
                assert shard.entries.get(key) is entry, (
                    f"watch on {cred_id} references an evicted entry {key}"
                )
                assert cred_id in entry.cred_ids
        for shard in self.cache._shards:
            for key, entry in shard.entries.items():
                for cred_id in entry.cred_ids:
                    watch = self.cache._watches.get(cred_id)
                    assert watch is not None, f"live entry {key} unwatched"
                    assert watch.get(key, (None, None))[1] is entry

    def teardown(self):
        self.cache.clear()


CacheVsOracleMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestCacheVsOracle = CacheVsOracleMachine.TestCase
