"""Verify once, at publish: the engine checks a credential's signature when
it folds the publish record, and a search trusts that verdict for that
credential and for every copy equal to it.  A credential is a value (its
attributes are read-only) and a key store binds each name once, so the
verdict cannot go stale; ``prove`` and ``find_proof`` read the same one.
A credential equal to no published one — presented and never published,
or altered — is verified on every use.

RSA verifies are counted per credential by wrapping
:meth:`RsaPublicKey.verify` and matching the signed message against each
credential's canonical bytes.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import KeyStore
from repro.crypto.keys import Identity
from repro.crypto.rsa import RsaPublicKey
from repro.drbac import DrbacEngine, ProofEngine
from repro.drbac.delegation import Delegation, issue
from repro.drbac.log import LogRecord
from repro.drbac.model import AttrRange, AttrScalar, AttrSet, EntityRef, Role
from repro.drbac.wire import delegation_from_wire, delegation_to_wire
from repro.errors import KeyBindingError
from repro.net import EventScheduler, Network, Transport
from repro.switchboard import AuthorizationSuite, RoleAuthorizer, SwitchboardEndpoint

KEY_BITS = 512  # a private store for the tests that bind names into one


class Verifies:
    """RSA verifies so far, keyed by the message that was checked."""

    def __init__(self) -> None:
        self.messages: Counter[bytes] = Counter()

    def of(self, *credentials: Delegation) -> int:
        return sum(self.messages[c.signing_bytes()] for c in credentials)

    @property
    def total(self) -> int:
        return sum(self.messages.values())


@pytest.fixture()
def verifies(monkeypatch) -> Verifies:
    seen = Verifies()
    real = RsaPublicKey.verify

    def counting(self, message: bytes, signature: bytes) -> bool:
        seen.messages[message] += 1
        return real(self, message, signature)

    monkeypatch.setattr(RsaPublicKey, "verify", counting)
    return seen


def _federation(engine: DrbacEngine) -> list[Delegation]:
    """A Table-2-shaped graph: a self-certifying chain, an assignment, a
    third-party grant and an attributed node credential."""
    return [
        engine.delegate("Comp.NY", "Alice", "Comp.NY.Member"),
        engine.delegate("Comp.SE", "Comp.NY.Member", "Comp.SE.Member"),
        engine.delegate("Comp.SE", "Comp.NY", "Comp.SE.Partner", assignment=True),
        engine.delegate("Comp.NY", "Comp.NY.Member", "Comp.SE.Partner"),
        engine.delegate(
            "Mail", "ny-pc", "Mail.Node", attributes={"Secure": AttrSet([True])}
        ),
    ]


QUERIES = [
    ("Alice", "Comp.SE.Member", None),
    ("Alice", "Comp.SE.Partner", None),
    ("ny-pc", "Mail.Node", {"Secure": AttrSet([True])}),
    ("Bob", "Comp.SE.Member", None),
]


def _search_all(engine: DrbacEngine) -> list:
    return [
        engine.find_proof(subject, role, required_attributes=attrs)
        for subject, role, attrs in QUERIES
    ]


class TestOneVerifyPerPublish:
    @pytest.mark.parametrize("incremental", [True, False])
    def test_searches_cost_no_verify_after_publish(
        self, key_store, clock, verifies, incremental
    ):
        engine = DrbacEngine(key_store=key_store, clock=clock, incremental=incremental)
        credentials = _federation(engine)
        assert verifies.total == len(credentials)
        for _ in range(5):
            proofs = _search_all(engine)
            engine.prove("Alice", "Comp.SE.Partner")
        assert [p is not None for p in proofs] == [True, True, True, False]
        assert verifies.total == len(credentials)
        assert all(verifies.of(c) == 1 for c in credentials)

    def test_incremental_fold_reads_the_publish_verdict(self, key_store, clock, verifies):
        engine = DrbacEngine(key_store=key_store, clock=clock)
        leaf = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        assert engine.incremental.simple
        assert engine.prove("Alice", "Comp.NY.Member").chain == [leaf]
        assert verifies.of(leaf) == 1


class TestEverythingElseIsVerified:
    """A credential equal to no published one costs a verify on every
    search, and the forged ones are refused.  What used to slip past the
    publish verdict (an in-place edit, a re-key) is now refused outright."""

    def test_replace_copy_with_the_same_id_and_signature(self, engine, verifies):
        guest = engine.delegate("Comp.NY", "Mallory", "Comp.NY.Guest")
        forged = dataclasses.replace(guest, role=Role.parse("Comp.NY.Admin"))
        assert forged.credential_id == guest.credential_id
        assert forged.signature == guest.signature
        for searches in (1, 2):
            assert engine.find_proof("Mallory", "Comp.NY.Admin", [forged]) is None
            assert verifies.of(forged) == searches

    def test_same_id_with_different_signature_bytes(self, engine, verifies):
        leaf = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        other = engine.delegate("Comp.NY", "Bob", "Comp.NY.Member", publish=False)
        swapped = dataclasses.replace(leaf, signature=other.signature)
        assert engine.find_proof("Alice", "Comp.NY.Member", [swapped]) is None
        assert engine.find_proof("Alice", "Comp.NY.Member", [swapped]) is None
        assert verifies.of(leaf) == 1 + 2

    def test_attributes_edited_in_place_after_publish(self, engine, verifies):
        node = engine.delegate(
            "Mail", "ny-pc", "Mail.Node", attributes={"Secure": AttrSet([False])}
        )
        secure = {"Secure": AttrSet([True])}
        with pytest.raises(TypeError):
            node.attributes["Secure"] = AttrSet([True])
        assert node.attributes == {"Secure": AttrSet([False])}
        assert engine.find_proof("ny-pc", "Mail.Node", required_attributes=secure) is None
        assert engine.find_proof("ny-pc", "Mail.Node").chain == [node]
        assert verifies.total == 1

    def test_reissued_issuer_key(self, verifies):
        store = KeyStore(key_bits=KEY_BITS)
        engine = DrbacEngine(key_store=store)
        leaf = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        with pytest.raises(KeyBindingError):
            store.bind(Identity.generate("Comp.NY", KEY_BITS))
        for _ in range(2):
            assert engine.find_proof("Alice", "Comp.NY.Member").chain == [leaf]
            assert engine.prove("Alice", "Comp.NY.Member").chain == [leaf]
        assert verifies.of(leaf) == 1

    def test_issuer_unknown_at_publish(self, key_store, verifies):
        store = KeyStore(key_bits=KEY_BITS)
        store.identity("Alice")
        engine = DrbacEngine(key_store=store)
        stranger = key_store.identity("Comp.NY")
        leaf = issue(stranger, EntityRef("Alice"), Role.parse("Comp.NY.Member"))
        engine.repository.publish(leaf)
        store.bind(stranger)
        # The publish verdict failed for want of a key, and it follows the
        # value: both paths refuse it, and neither spends a verify on it.
        for _ in range(2):
            assert engine.find_proof("Alice", "Comp.NY.Member") is None
            assert engine.find_proof("Alice", "Comp.NY.Member", [leaf]) is None
            assert engine.prove("Alice", "Comp.NY.Member") is None
        assert verifies.of(leaf) == 0

    def test_proof_engine_without_the_engines_verdicts(self, engine, verifies):
        leaf = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        plain = ProofEngine({"Comp.NY": engine.public_identity("Comp.NY")})
        for searches in (1, 2):
            proof = plain.find_proof(
                EntityRef("Alice"), Role.parse("Comp.NY.Member"), [leaf]
            )
            assert proof is not None
            assert verifies.of(leaf) == 1 + searches

    def test_engine_sharing_the_repository_but_not_the_log(self, key_store, clock, verifies):
        # The churn benchmark's oracle: an uncached full search over the
        # same repository and revocation state.
        engine = DrbacEngine(key_store=key_store, clock=clock)
        oracle = DrbacEngine(key_store=key_store, clock=clock, incremental=False)
        oracle.repository = engine.repository
        oracle.revocations = engine.revocations
        credentials = _federation(engine)
        assert _search_all(oracle) == _search_all(engine)
        after_one = verifies.total
        assert after_one > len(credentials)
        _search_all(oracle)
        assert verifies.total - after_one == after_one - len(credentials)
        _search_all(engine)
        assert verifies.total == 2 * after_one - len(credentials)


class TestPresentedCredentials:
    def test_find_proof_presenting_verifies_on_every_use(self, engine, verifies):
        engine.delegate("Comp.SE", "Comp.NY.Member", "Comp.SE.Member")
        leaf = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member", publish=False)
        for uses in (1, 2, 3):
            proof = engine.find_proof_presenting(
                EntityRef("Alice"), Role.parse("Comp.SE.Member"), [leaf]
            )
            assert proof is not None
            assert verifies.of(leaf) == uses

    @staticmethod
    def _dial_twice(key_store, verifies, *, publish: bool) -> None:
        net = Network()
        net.add_node("c")
        net.add_node("s")
        net.add_link("c", "s", latency_s=0.001)
        scheduler = EventScheduler()
        transport = Transport(net, scheduler)
        engine = DrbacEngine(key_store=key_store, clock=scheduler)
        leaf = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member", publish=publish)
        client_ep = SwitchboardEndpoint(transport, "c")
        server_ep = SwitchboardEndpoint(transport, "s")
        server_ep.export("svc", object())
        server_ep.listen(
            "svc",
            AuthorizationSuite(
                identity=engine.identity("Svc"),
                authorizer=RoleAuthorizer(engine, "Comp.NY.Member"),
            ),
        )
        suite = AuthorizationSuite(identity=engine.identity("Alice"), credentials=[leaf])
        for dials in (1, 2):
            connection = client_ep.connect("s", "svc", suite).wait()
            connection.close()
            # The wire-decoded copy equals the published credential and
            # shares its verdict; a copy of an unpublished one is verified.
            assert verifies.of(leaf) == (1 if publish else dials)

    def test_role_authorizer_handshake_verifies_on_every_dial(self, key_store, verifies):
        self._dial_twice(key_store, verifies, publish=False)

    def test_role_authorizer_handshake_shares_the_published_verdict(
        self, key_store, verifies
    ):
        self._dial_twice(key_store, verifies, publish=True)


class TestRestore:
    def test_restore_from_wire_records_reverifies(self, engine, verifies):
        credentials = _federation(engine)
        wire = [record.to_wire() for record in engine.log.since(0)]
        engine.log.restore(LogRecord.from_wire(data) for data in wire)
        assert verifies.total == 2 * len(credentials)
        proofs = _search_all(engine)
        assert proofs[0] is not None
        assert verifies.total == 2 * len(credentials)

    def test_restore_clears_the_verdicts(self, engine, verifies):
        credentials = _federation(engine)
        engine.log.restore(engine.log.since(0))
        assert all(verifies.of(c) == 2 for c in credentials)

    def test_revoke_and_expire_drop_the_verdict(self, engine, clock, verifies):
        leaf = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        short = engine.delegate(
            "Comp.NY", "Bob", "Comp.NY.Member", expires_at=5.0
        )
        engine.revoke(leaf)
        clock.set(10.0)
        engine.prove("Bob", "Comp.NY.Member")  # drains the expiry
        assert engine._authentic == {}
        assert verifies.of(leaf, short) == 2


class TestForgedPublish:
    """A publish whose signature fails keeps its failed verdict: the fold
    spends the one verify, and every later use refuses that credential
    without RSA."""

    @staticmethod
    def _publish_forgery(engine: DrbacEngine) -> Delegation:
        guest = engine.delegate("Comp.NY", "Mallory", "Comp.NY.Guest", publish=False)
        forged = dataclasses.replace(guest, role=Role.parse("Comp.NY.Admin"))
        engine.repository.publish(forged)
        return forged

    @pytest.mark.parametrize("incremental", [True, False])
    def test_one_verify_and_never_usable(self, key_store, clock, verifies, incremental):
        engine = DrbacEngine(key_store=key_store, clock=clock, incremental=incremental)
        forged = self._publish_forgery(engine)
        for _ in range(3):
            assert engine.find_proof("Mallory", "Comp.NY.Admin") is None
        assert engine.prove("Mallory", "Comp.NY.Admin") is None
        assert not engine.proof_engine().usable(forged)
        assert verifies.total == verifies.of(forged) == 1

    def test_forgery_reusing_an_id_keeps_the_authentic_verdict(self, engine, verifies):
        guest = engine.delegate("Comp.NY", "Mallory", "Comp.NY.Guest")
        forged = dataclasses.replace(guest, role=Role.parse("Comp.NY.Admin"))
        engine.repository.publish(forged)
        for _ in range(3):
            assert engine.find_proof("Mallory", "Comp.NY.Guest").chain == [guest]
        assert verifies.of(guest) == 1
        assert not engine.proof_engine().usable(forged)


class TestCredentialsAreValues:
    """``prove`` (the incremental engine) and ``find_proof`` (the full
    search) read one verdict per credential value, so nothing done after a
    publish can make them disagree."""

    def test_attribute_edit_raises(self, engine):
        attributes = {"Secure": AttrSet([False])}
        leaf = engine.delegate(
            "Comp.NY", "Alice", "Comp.NY.Member", attributes=attributes
        )
        attributes["Secure"] = AttrSet([True])
        with pytest.raises(TypeError):
            leaf.attributes["Secure"] = AttrSet([True])
        with pytest.raises(TypeError):
            del leaf.attributes["Secure"]
        assert leaf.attributes == {"Secure": AttrSet([False])}
        plain = engine.delegate("Comp.NY", "Bob", "Comp.NY.Member")
        with pytest.raises(TypeError):
            plain.attributes["Secure"] = AttrSet([True])
        assert engine.prove("Bob", "Comp.NY.Member").chain == [plain]
        assert engine.find_proof("Bob", "Comp.NY.Member").chain == [plain]

    def test_rekey_raises(self):
        store = KeyStore(key_bits=KEY_BITS)
        bound = store.identity("Comp.NY")
        with pytest.raises(KeyBindingError):
            store.bind(Identity.generate("Comp.NY", KEY_BITS))
        store.bind(bound)  # binding the same identity again is a no-op
        assert store.identity("Comp.NY") is bound
        assert len(store) == 1

    @pytest.mark.parametrize("incremental", [True, False])
    def test_issuer_bound_after_publish_is_refused_by_both_paths(
        self, key_store, incremental
    ):
        store = KeyStore(key_bits=KEY_BITS)
        store.identity("Alice")
        engine = DrbacEngine(key_store=store, incremental=incremental)
        stranger = key_store.identity("Comp.NY")
        engine.repository.publish(
            issue(stranger, EntityRef("Alice"), Role.parse("Comp.NY.Member"))
        )
        store.bind(stranger)
        assert engine.prove("Alice", "Comp.NY.Member") is None
        assert engine.find_proof("Alice", "Comp.NY.Member") is None


_PROPERTY_STORE = KeyStore(key_bits=KEY_BITS)
_ISSUERS = ["Comp.NY", "Comp.SD", "Mail"]
_NUMBERS = st.integers(-100, 100) | st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _attribute_values(draw):
    kind = draw(st.sampled_from(["set", "range", "scalar"]))
    if kind == "set":
        items = st.booleans() | st.integers(-5, 5) | st.text(max_size=3)
        return AttrSet(draw(st.lists(items, min_size=1, max_size=3)))
    if kind == "range":
        return AttrRange(*sorted(draw(st.lists(_NUMBERS, min_size=2, max_size=2))))
    return AttrScalar(draw(_NUMBERS))


@settings(max_examples=40, deadline=None)
@given(
    issuer=st.sampled_from(_ISSUERS),
    subject=st.sampled_from(["Alice", "Bob", "Comp.SD.Member"]),
    attributes=st.dictionaries(
        st.sampled_from(["Secure", "Trust", "CPU"]), _attribute_values(), max_size=3
    ),
    expires_at=st.none() | st.integers(1, 10**6) | st.floats(1, 1e6),
    requires_monitoring=st.booleans(),
    home=st.none() | st.sampled_from(_ISSUERS),
)
def test_wire_copy_equals_the_credential_and_shares_its_verdict(
    issuer, subject, attributes, expires_at, requires_monitoring, home
):
    engine = DrbacEngine(key_store=_PROPERTY_STORE)
    subject_ref = Role.parse(subject) if "." in subject else EntityRef(subject)
    original = issue(
        engine.identity(issuer), subject_ref, Role(issuer, "Member"),
        attributes=attributes, expires_at=expires_at,
        requires_monitoring=requires_monitoring, home=home,
    )
    engine.repository.publish(original)
    copy = delegation_from_wire(json.loads(json.dumps(delegation_to_wire(original))))
    assert copy is not original
    assert copy == original and hash(copy) == hash(original)
    assert copy.signing_bytes() == original.signing_bytes()
    with mock.patch.object(
        RsaPublicKey, "verify", autospec=True, side_effect=RsaPublicKey.verify
    ) as verify:
        assert engine.proof_engine().usable(copy)
    assert verify.call_count == 0
