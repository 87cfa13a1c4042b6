"""Authorizer / AuthorizationMonitor tests."""

from __future__ import annotations

import pytest

from repro.drbac import DrbacEngine
from repro.errors import HandshakeError
from repro.switchboard.authorizer import (
    AcceptAllAuthorizer,
    AuthorizationSuite,
    RoleAuthorizer,
)


class TestAcceptAll:
    def test_accepts_anyone(self, engine):
        monitor = AcceptAllAuthorizer().authorize(engine.public_identity("X"), [])
        assert monitor.valid
        assert monitor.proof is None

    def test_never_fires(self, engine):
        monitor = AcceptAllAuthorizer().authorize(engine.public_identity("X"), [])
        fired = []
        monitor.on_change(fired.append)
        assert fired == []


class TestRoleAuthorizer:
    def test_authorizes_with_repository_chain(self, engine):
        engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        authorizer = RoleAuthorizer(engine, "Comp.NY.Member")
        monitor = authorizer.authorize(engine.public_identity("Alice"), [])
        assert monitor.valid
        assert monitor.proof is not None

    def test_presented_credentials_merge_with_repository(self, engine):
        # Leaf credential only presented, mapping lives in the repository.
        engine.delegate("Comp.NY", "Comp.SD.Member", "Comp.NY.Member")
        leaf = engine.delegate("Comp.SD", "Bob", "Comp.SD.Member", publish=False)
        authorizer = RoleAuthorizer(engine, "Comp.NY.Member")
        monitor = authorizer.authorize(engine.public_identity("Bob"), [leaf])
        assert monitor.valid

    def test_rejects_unprovable_partner(self, engine):
        authorizer = RoleAuthorizer(engine, "Comp.NY.Member")
        with pytest.raises(HandshakeError):
            authorizer.authorize(engine.public_identity("Nobody"), [])

    def test_monitor_fires_on_revocation(self, engine):
        cred = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        authorizer = RoleAuthorizer(engine, "Comp.NY.Member")
        monitor = authorizer.authorize(engine.public_identity("Alice"), [])
        fired = []
        monitor.on_change(fired.append)
        engine.revoke(cred)
        assert fired == [cred.credential_id]
        assert not monitor.valid

    def test_late_listener_informed(self, engine):
        cred = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        monitor = RoleAuthorizer(engine, "Comp.NY.Member").authorize(
            engine.public_identity("Alice"), []
        )
        engine.revoke(cred)
        fired = []
        monitor.on_change(fired.append)
        assert fired == [cred.credential_id]

    def test_monitors_share_one_authority_subscription(self, engine):
        cred = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        authorizer = RoleAuthorizer(engine, "Comp.NY.Member")
        alice = engine.public_identity("Alice")
        hub = engine.monitor_hub
        before = hub.listener_count(cred.credential_id)
        monitors = [authorizer.authorize(alice, []) for _ in range(3)]
        authority = engine.revocations.authority(cred.home_entity)
        assert hub.listener_count(cred.credential_id) == before + 3
        assert len(authority._subscribers[cred.credential_id]) == 1
        for monitor in monitors:
            monitor.close()
        assert hub.listener_count(cred.credential_id) == before

    def test_required_attributes(self, engine):
        from repro.drbac.model import AttrSet

        engine.delegate(
            "Mail", "Worker", "Mail.Node", attributes={"Secure": AttrSet([False])}
        )
        authorizer = RoleAuthorizer(
            engine, "Mail.Node", required_attributes={"Secure": AttrSet([True])}
        )
        with pytest.raises(HandshakeError):
            authorizer.authorize(engine.public_identity("Worker"), [])


class TestSuite:
    def test_default_authorizer_accepts_all(self, engine):
        suite = AuthorizationSuite(identity=engine.identity("S"))
        assert isinstance(suite.authorizer, AcceptAllAuthorizer)
