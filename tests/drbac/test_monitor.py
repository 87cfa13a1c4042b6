"""Revocation and validity-monitor tests (the continuous-authorization
substrate Switchboard builds on)."""

from __future__ import annotations

import pytest

from repro.crypto import KeyStore
from repro.drbac.delegation import issue
from repro.drbac.log import CredentialLog
from repro.drbac.model import EntityRef, Role
from repro.drbac.monitor import ProofMonitor, RevocationDirectory


@pytest.fixture(scope="module")
def store():
    return KeyStore(key_bits=512)


def cred(store, issuer="A", subject="u", role="R", **kwargs):
    return issue(store.identity(issuer), EntityRef(subject), Role(issuer, role), **kwargs)


class TestRevocationListeners:
    def test_revoke_id_and_query(self, store):
        directory = RevocationDirectory()
        c = cred(store)
        directory.revoke_id(c.home_entity, c.credential_id)
        assert directory.is_revoked(c)
        assert not directory.is_revoked(cred(store))

    def test_listeners_notified(self, store):
        directory = RevocationDirectory()
        c = cred(store)
        fired = []
        directory.attach(c, lambda cid: fired.append(("first", cid)))
        directory.attach(c, lambda cid: fired.append(("second", cid)))
        directory.revoke(c)
        assert fired == [("first", c.credential_id), ("second", c.credential_id)]

    def test_late_attach_notified_immediately(self, store):
        directory = RevocationDirectory()
        c = cred(store)
        directory.revoke(c)
        fired = []
        directory.attach(c, fired.append)
        assert fired == [c.credential_id]

    def test_double_revoke_notifies_once(self, store):
        directory = RevocationDirectory()
        c = cred(store)
        fired = []
        directory.attach(c, fired.append)
        directory.revoke(c)
        directory.revoke(c)
        assert fired == [c.credential_id]

    def test_detach(self, store):
        directory = RevocationDirectory()
        c = cred(store)
        fired = []
        detach = directory.attach(c, fired.append)
        assert directory.listener_count(c.credential_id) == 1
        detach()
        assert directory.listener_count(c.credential_id) == 0
        assert directory.watched_credential_count() == 0
        directory.revoke(c)
        assert fired == []

    def test_log_restore_keeps_listeners(self, store):
        log = CredentialLog()
        directory = RevocationDirectory(log)
        c = cred(store)
        fired = []
        directory.attach(c, fired.append)
        directory.revoke(c)
        log.restore([])  # crash: the revoked set is fold state, listeners are not
        assert not directory.is_revoked(c)
        assert directory.listener_count(c.credential_id) == 1
        directory.revoke(c)
        assert fired == [c.credential_id, c.credential_id]


class TestRevocationDirectory:
    def test_routes_by_home(self, store):
        directory = RevocationDirectory()
        c = cred(store)
        directory.revoke(c)
        assert directory.is_revoked(c)

    def test_unrevoked_default(self, store):
        directory = RevocationDirectory()
        assert not directory.is_revoked(cred(store))

    def test_separate_homes_are_independent(self, store):
        directory = RevocationDirectory()
        c1 = cred(store, issuer="A")
        c2 = cred(store, issuer="B")
        directory.revoke(c1)
        assert directory.is_revoked(c1)
        assert not directory.is_revoked(c2)


class TestProofMonitor:
    def test_valid_until_revocation(self, store):
        directory = RevocationDirectory()
        c = cred(store)
        monitor = ProofMonitor([c], directory)
        assert monitor.valid
        directory.revoke(c)
        assert not monitor.valid
        assert monitor.invalidated_by == c.credential_id

    def test_callback_fires_once(self, store):
        directory = RevocationDirectory()
        c1, c2 = cred(store), cred(store)
        monitor = ProofMonitor([c1, c2], directory)
        fired = []
        monitor.on_invalidated(fired.append)
        directory.revoke(c1)
        directory.revoke(c2)
        assert fired == [c1.credential_id]

    def test_late_callback_gets_invalidation(self, store):
        directory = RevocationDirectory()
        c = cred(store)
        monitor = ProofMonitor([c], directory)
        directory.revoke(c)
        fired = []
        monitor.on_invalidated(fired.append)
        assert fired == [c.credential_id]

    def test_any_credential_in_proof_invalidates(self, store):
        directory = RevocationDirectory()
        creds = [cred(store, issuer=f"I{i}") for i in range(4)]
        monitor = ProofMonitor(creds, directory)
        directory.revoke(creds[2])
        assert not monitor.valid

    def test_expiry_check(self, store):
        directory = RevocationDirectory()
        c = cred(store, expires_at=10.0)
        monitor = ProofMonitor([c], directory)
        assert monitor.check_expiry(5.0)
        assert not monitor.check_expiry(11.0)
        assert not monitor.valid

    def test_expiry_names_the_credential_that_lapsed_first(self, store):
        directory = RevocationDirectory()
        late = cred(store, issuer="A", expires_at=20.0)
        early = cred(store, issuer="B", expires_at=10.0)
        monitor = ProofMonitor([late, cred(store, issuer="C"), early], directory)
        assert monitor.expires_at == 10.0
        fired = []
        monitor.on_invalidated(fired.append)
        assert not monitor.check_expiry(30.0)
        assert monitor.invalidated_by == early.credential_id
        assert fired == [early.credential_id]

    def test_no_deadline_without_expiring_credentials(self, store):
        monitor = ProofMonitor([cred(store)], RevocationDirectory())
        assert monitor.expires_at is None
        assert monitor.check_expiry(1e18)

    def test_closed_monitor_ignores_revocation(self, store):
        directory = RevocationDirectory()
        c = cred(store)
        monitor = ProofMonitor([c], directory)
        monitor.close()
        directory.revoke(c)
        assert monitor.valid  # detached before the event

    def test_watched_credentials(self, store):
        directory = RevocationDirectory()
        creds = [cred(store), cred(store)]
        monitor = ProofMonitor(creds, directory)
        assert monitor.watched_credentials == [c.credential_id for c in creds]
