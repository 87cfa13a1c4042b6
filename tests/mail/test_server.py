"""MailServer and cache-view spec tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro.mail.server import MailServer
from repro.views import Vig, ViewRuntime


@pytest.fixture()
def server():
    server = MailServer()
    server.create_account("alice", phone="1", email="a@x")
    server.create_account("bob", phone="2", email="b@x")
    return server


class TestMailServer:
    def test_send_and_fetch(self, server):
        assert server.sendMail({"recipient": "alice", "body": "hi"})
        assert server.fetchMail("alice") == [{"recipient": "alice", "body": "hi"}]

    def test_fetch_does_not_drain(self, server):
        server.sendMail({"recipient": "alice", "body": "hi"})
        server.fetchMail("alice")
        assert server.fetchMail("alice")

    def test_reject_without_recipient(self, server):
        assert not server.sendMail({"body": "hi"})

    def test_list_accounts_sorted(self, server):
        assert server.listAccounts() == ["alice", "bob"]

    def test_delivered_counter(self, server):
        server.sendMail({"recipient": "alice", "body": "x"})
        assert server.delivered == 1


class TestCacheView:
    """The ``ViewMailServer`` cache ``build_scenario`` registers."""

    @pytest.fixture()
    def registrar(self, shared_scenario):
        return shared_scenario.psf.registrar

    def test_cache_reads_and_writes_through(self, server, registrar):
        vig = Vig(registrar.interfaces)
        view_cls = vig.generate(registrar.view_spec("ViewMailServer"), MailServer)
        cache = view_cls(ViewRuntime(local_objects={"MailServer": server}))
        # Read through the cache.
        assert cache.listAccounts() == ["alice", "bob"]
        # Write through the cache reaches the origin.
        cache.sendMail({"recipient": "bob", "body": "cached"})
        assert server.fetchMail("bob") == [{"recipient": "bob", "body": "cached"}]
        # External writes to the origin become visible on next call.
        server.sendMail({"recipient": "alice", "body": "direct"})
        assert cache.fetchMail("alice") == [{"recipient": "alice", "body": "direct"}]

    def test_spec_replicates_server_state(self, registrar):
        assert set(registrar.view_spec("ViewMailServer").replicated_fields) == {
            "mailboxes",
            "directory",
            "delivered",
        }

    def test_analysis_finds_delivered_without_its_declaration(self, server, registrar):
        """``sendMail`` runs ``self.delivered += 1``: VIG replicates the
        counter even when the spec does not declare it."""
        spec = dataclasses.replace(
            registrar.view_spec("ViewMailServer"),
            replicated_fields=("mailboxes", "directory"),
        )
        view_cls = Vig(registrar.interfaces).generate(spec, MailServer)
        assert "delivered" in view_cls.__replicated_fields__
        cache = view_cls(ViewRuntime(local_objects={"MailServer": server}))
        cache.sendMail({"recipient": "bob", "body": "cached"})
        assert server.delivered == 1
