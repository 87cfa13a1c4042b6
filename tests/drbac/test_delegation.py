"""Delegation tests: Table 1 types, signing, tamper-proofing, wire codec."""

from __future__ import annotations

import pytest

from repro.crypto import KeyStore
from repro.drbac.delegation import Delegation, DelegationType, classify, issue
from repro.drbac.log import LogRecord
from repro.drbac.model import AttrScalar, AttrSet, EntityRef, Role
from repro.drbac.wire import delegation_from_wire, delegation_to_wire
from repro.errors import CredentialError, LogRecordError


@pytest.fixture(scope="module")
def store():
    return KeyStore(key_bits=512)


class TestClassification:
    """Table 1: the three delegation types derive from shape."""

    def test_self_certifying(self):
        kind = classify(
            EntityRef("Alice"), Role("Comp.NY", "Member"), "Comp.NY", assignment=False
        )
        assert kind is DelegationType.SELF_CERTIFYING

    def test_third_party(self):
        kind = classify(
            Role("Inc.SE", "Member"), Role("Comp.NY", "Partner"), "Comp.SD", assignment=False
        )
        assert kind is DelegationType.THIRD_PARTY

    def test_assignment(self):
        kind = classify(
            EntityRef("Comp.SD"), Role("Comp.NY", "Partner"), "Comp.NY", assignment=True
        )
        assert kind is DelegationType.ASSIGNMENT


class TestIssueAndVerify:
    def test_signature_verifies(self, store):
        d = issue(store.identity("Comp.NY"), EntityRef("Alice"), Role("Comp.NY", "Member"))
        assert d.verify_signature(store.public("Comp.NY"))

    def test_wrong_issuer_identity_rejected(self, store):
        d = issue(store.identity("Comp.NY"), EntityRef("Alice"), Role("Comp.NY", "Member"))
        assert not d.verify_signature(store.public("Comp.SD"))

    def test_tampered_subject_invalidates(self, store):
        d = issue(store.identity("Comp.NY"), EntityRef("Alice"), Role("Comp.NY", "Member"))
        forged = Delegation(
            subject=EntityRef("Mallory"),
            role=d.role,
            issuer=d.issuer,
            delegation_type=d.delegation_type,
            attributes=d.attributes,
            expires_at=d.expires_at,
            requires_monitoring=d.requires_monitoring,
            home=d.home,
            credential_id=d.credential_id,
            signature=d.signature,
        )
        assert not forged.verify_signature(store.public("Comp.NY"))

    def test_tampered_attributes_invalidate(self, store):
        d = issue(
            store.identity("Comp.SD"),
            Role("Comp.NY", "Executable"),
            Role("Comp.SD", "Executable"),
            attributes={"CPU": AttrScalar(80)},
        )
        forged = Delegation(
            subject=d.subject,
            role=d.role,
            issuer=d.issuer,
            delegation_type=d.delegation_type,
            attributes={"CPU": AttrScalar(100)},  # escalation attempt
            expires_at=d.expires_at,
            requires_monitoring=d.requires_monitoring,
            home=d.home,
            credential_id=d.credential_id,
            signature=d.signature,
        )
        assert not forged.verify_signature(store.public("Comp.SD"))

    def test_unique_credential_ids(self, store):
        a = issue(store.identity("X"), EntityRef("u"), Role("X", "R"))
        b = issue(store.identity("X"), EntityRef("u"), Role("X", "R"))
        assert a.credential_id != b.credential_id

    def test_expiry(self, store):
        d = issue(
            store.identity("X"), EntityRef("u"), Role("X", "R"), expires_at=10.0
        )
        assert not d.is_expired(5.0)
        assert d.is_expired(10.5)

    def test_home_defaults_to_issuer(self, store):
        d = issue(store.identity("X"), EntityRef("u"), Role("X", "R"))
        assert d.home_entity == "X"

    def test_explicit_home(self, store):
        d = issue(store.identity("X"), EntityRef("u"), Role("X", "R"), home="HomeSvc")
        assert d.home_entity == "HomeSvc"


class TestDisplay:
    """String form mirrors the paper's bracket notation."""

    def test_plain(self, store):
        d = issue(store.identity("Comp.NY"), EntityRef("Alice"), Role("Comp.NY", "Member"))
        assert str(d) == "[ Alice -> Comp.NY.Member ] Comp.NY"

    def test_assignment_prime_mark(self, store):
        d = issue(
            store.identity("Comp.NY"),
            EntityRef("Comp.SD"),
            Role("Comp.NY", "Partner"),
            assignment=True,
        )
        assert str(d) == "[ Comp.SD -> Comp.NY.Partner' ] Comp.NY"

    def test_attributes_shown(self, store):
        d = issue(
            store.identity("Mail"),
            Role("Dell", "Linux"),
            Role("Mail", "Node"),
            attributes={"Trust": __import__("repro.drbac.model", fromlist=["AttrRange"]).AttrRange(0, 10)},
        )
        assert "with Trust=(0,10)" in str(d)


class TestWireCodec:
    def test_roundtrip_preserves_signature_validity(self, store):
        d = issue(
            store.identity("Comp.SD"),
            Role("Inc.SE", "Member"),
            Role("Comp.NY", "Partner"),
            attributes={"Secure": AttrSet([True]), "CPU": AttrScalar(40)},
            expires_at=99.0,
            requires_monitoring=True,
        )
        restored = delegation_from_wire(delegation_to_wire(d))
        assert restored.verify_signature(store.public("Comp.SD"))
        assert restored.credential_id == d.credential_id
        assert restored.delegation_type is d.delegation_type
        assert restored.attributes == d.attributes
        assert restored.expires_at == 99.0
        assert restored.requires_monitoring is True

    def test_malformed_wire_rejected(self):
        with pytest.raises(CredentialError):
            delegation_from_wire({"bogus": True})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("issuer", 7),
            ("id", None),
            ("home", ["x"]),
            ("expires_at", "soon"),
            ("expires_at", True),
            ("expires_at", float("nan")),
            ("requires_monitoring", "false"),
            ("requires_monitoring", 1),
            ("role", {"owner": ["Comp"], "name": "Member"}),
            ("attributes", {"CPU": {"kind": "scalar", "value": "lots"}}),
            ("attributes", {"CPU": {"kind": "scalar", "value": False}}),
            ("attributes", {"Trust": {"kind": "range", "low": "a", "high": "b"}}),
        ],
    )
    def test_ill_typed_field_refused_when_decoded(self, store, key, value):
        """Each of these decoded at one time and failed later, inside a
        search (``'>' not supported``, ``unhashable type``)."""
        d = issue(store.identity("Comp.NY"), EntityRef("Alice"), Role("Comp.NY", "Member"))
        wire = {**delegation_to_wire(d), key: value}
        with pytest.raises(CredentialError):
            delegation_from_wire(wire)
        record = {"seq": 1, "kind": "publish", "payload": {"cred": wire, "tags": []}}
        with pytest.raises(LogRecordError):
            LogRecord.from_wire(record)

    def test_roundtrip_entity_subject(self, store):
        d = issue(store.identity("X"), EntityRef("u"), Role("X", "R"))
        restored = delegation_from_wire(delegation_to_wire(d))
        assert restored.subject == EntityRef("u")
