"""Tests for the three mail-client view specs (Tables 3b & 4), as
``build_scenario`` registers them, generated against the real MailClient,
locally wired."""

from __future__ import annotations

import pytest

from repro.mail.client import MailClient
from repro.views import InterfaceMode, Vig, ViewRuntime


@pytest.fixture()
def registrar(shared_scenario):
    return shared_scenario.psf.registrar


@pytest.fixture()
def vig(registrar):
    return Vig(registrar.interfaces)


@pytest.fixture()
def original():
    return MailClient(
        owner="shared",
        accounts={"alice": {"name": "alice", "phone": "212", "email": "a@x"}},
    )


class TestPartnerSpecStructure:
    """Table 3(b) faithfully: modes per interface + accountCopy field."""

    @pytest.fixture()
    def partner(self, registrar):
        return registrar.view_spec("ViewMailClient_Partner")

    def test_modes(self, partner):
        modes = {r.name: r.mode for r in partner.interfaces}
        assert modes == {
            "MessageI": InterfaceMode.LOCAL,
            "NotesI": InterfaceMode.RMI,
            "AddressI": InterfaceMode.SWITCHBOARD,
        }

    def test_account_copy_field(self, partner):
        assert [f.name for f in partner.added_fields] == [
            "accountCopy"
        ]

    def test_add_meeting_customized(self, partner):
        assert [m.name for m in partner.customized_methods] == [
            "addMeeting"
        ]


class TestMemberView:
    def test_full_functionality(self, vig, registrar, original):
        view_cls = vig.generate(registrar.view_spec("ViewMailClient_Member"), MailClient)
        view = view_cls(ViewRuntime(local_objects={"MailClient": original}))
        assert view.sendMessage({"recipient": "bob"}) is True
        assert view.getPhone("alice") == "212"
        view.addNote("n")
        assert view.addMeeting("standup") is True
        assert original.meetings == ["standup"]

    def test_table5_structure_local_methods_wrapped(self, vig, registrar):
        view_cls = vig.generate(registrar.view_spec("ViewMailClient_Member"), MailClient)
        assert getattr(view_cls.sendMessage, "__coherence_wrapped__", False)


class TestAnonymousView:
    @pytest.fixture()
    def view(self, vig, registrar, original):
        spec = registrar.view_spec("ViewMailClient_Anonymous")
        view_cls = vig.generate(spec, MailClient)
        # For a unit-level check, wire the switchboard interface locally by
        # customizing the runtime: the anonymous spec routes AddressI over
        # switchboard in deployment; locally we bind the original directly.
        runtime = ViewRuntime(local_objects={"MailClient": original})
        runtime.switchboard_stub = lambda binding: original  # type: ignore[assignment]
        return view_cls(runtime)

    def test_email_browsing_allowed(self, view):
        assert view.getEmail("alice") == "a@x"

    def test_phone_denied_per_method(self, view):
        """Access control 'down to the level of individual methods'."""
        with pytest.raises(PermissionError):
            view.getPhone("alice")

    def test_messaging_absent(self, view):
        assert not hasattr(view, "sendMessage")
        assert not hasattr(view, "addNote")


class TestPolicy:
    def test_rules_match_table_4(self, registrar):
        rules = registrar.policy("MailClient").rules()
        assert [str(r.role) if r.role else "others" for r in rules] == [
            "Comp.NY.Member",
            "Comp.NY.Partner",
            "others",
        ]
        assert [r.view_name for r in rules] == [
            "ViewMailClient_Member",
            "ViewMailClient_Partner",
            "ViewMailClient_Anonymous",
        ]
