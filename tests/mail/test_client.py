"""MailClient component tests (Table 3a behaviour)."""

from __future__ import annotations

import pytest

from repro.mail.client import MailClient


@pytest.fixture()
def client():
    return MailClient(
        owner="alice",
        accounts={
            "bob": {"name": "bob", "phone": "619", "email": "bob@x"},
        },
    )


class TestMessageI:
    def test_send_queues_outbox(self, client):
        assert client.sendMessage({"recipient": "bob", "body": "hi"})
        assert len(client.outbox) == 1

    def test_receive_drains_inbox(self, client):
        client.inbox.append({"body": "m"})
        assert client.receiveMessages() == [{"body": "m"}]
        assert client.receiveMessages() == []


class TestAddressI:
    def test_get_phone_via_helper(self, client):
        assert client.getPhone("bob") == "619"

    def test_get_email(self, client):
        assert client.getEmail("bob") == "bob@x"

    def test_unknown_account(self, client):
        with pytest.raises(KeyError):
            client.getPhone("ghost")


class TestNotesI:
    def test_add_note(self, client):
        client.addNote("remember")
        assert client.notes == ["remember"]

    def test_add_meeting(self, client):
        assert client.addMeeting("standup") is True
        assert client.meetings == ["standup"]


class TestInterfaceDeclarations:
    """The interfaces ``build_scenario`` registers from the document."""

    @pytest.fixture()
    def registrar(self, shared_scenario):
        return shared_scenario.psf.registrar

    def test_three_interfaces(self, registrar):
        assert [p.interface for p in registrar.component("MailClient").implements] == [
            "MessageI",
            "AddressI",
            "NotesI",
        ]

    def test_methods_match_table_3a(self, registrar):
        interfaces = registrar.interfaces
        assert interfaces.get("MessageI").method_names() == ("sendMessage", "receiveMessages")
        assert interfaces.get("AddressI").method_names() == ("getPhone", "getEmail")
        assert interfaces.get("NotesI").method_names() == ("addNote", "addMeeting")

    def test_interfaces_cover_client_methods(self, registrar):
        for port in registrar.component("MailClient").implements:
            for sig in registrar.interfaces.get(port.interface).methods:
                assert callable(getattr(MailClient, sig.name))
