"""Automatic view inference tests (§6 future work, implemented)."""

from __future__ import annotations

import pytest

from repro.errors import ViewSpecError
from repro.mail import MailClient, register_components
from repro.psf import Registrar
from repro.views import (
    InterfaceMode,
    ViewHint,
    ViewRuntime,
    Vig,
    infer_view_spec,
    method_writes_state,
)


@pytest.fixture()
def registry():
    registrar = Registrar()
    register_components(registrar)
    return registrar.interfaces


def _original():
    return MailClient(
        owner="o",
        accounts={"a": {"name": "a", "phone": "1", "email": "a@x"}},
    )


class TestInference:
    def test_fully_allowed_interface_is_local(self, registry):
        spec = infer_view_spec(
            "AutoMember",
            MailClient,
            registry,
            ViewHint(allow=["sendMessage", "receiveMessages"]),
        )
        assert [(r.name, r.mode) for r in spec.interfaces] == [
            ("MessageI", InterfaceMode.LOCAL)
        ]
        assert not spec.customized_methods

    def test_partially_allowed_interface_gets_denials(self, registry):
        spec = infer_view_spec(
            "AutoBrowser",
            MailClient,
            registry,
            ViewHint(allow=["getEmail"]),
        )
        assert [r.name for r in spec.interfaces] == ["AddressI"]
        assert [m.name for m in spec.customized_methods] == ["getPhone"]
        assert "PermissionError" in spec.customized_methods[0].body

    def test_remote_hint_routes_interface(self, registry):
        spec = infer_view_spec(
            "AutoRemote",
            MailClient,
            registry,
            ViewHint(allow=["getPhone", "getEmail"], remote=["AddressI"]),
        )
        assert spec.interfaces[0].mode is InterfaceMode.SWITCHBOARD

    def test_remote_mode_override(self, registry):
        spec = infer_view_spec(
            "AutoRmi",
            MailClient,
            registry,
            ViewHint(
                allow=["addNote", "addMeeting"],
                remote=["NotesI"],
                remote_mode=InterfaceMode.RMI,
            ),
        )
        assert spec.interfaces[0].mode is InterfaceMode.RMI

    def test_unknown_allowed_method_rejected(self, registry):
        with pytest.raises(ViewSpecError, match="no registered"):
            infer_view_spec(
                "Bad", MailClient, registry, ViewHint(allow=["launchRockets"])
            )

    def test_unknown_remote_interface_rejected(self, registry):
        with pytest.raises(ViewSpecError, match="remote"):
            infer_view_spec(
                "Bad",
                MailClient,
                registry,
                ViewHint(allow=["getEmail"], remote=["GhostI"]),
            )

    def test_empty_hint_rejected(self, registry):
        with pytest.raises(ViewSpecError, match="admits no interface"):
            infer_view_spec("Bad", MailClient, registry, ViewHint(allow=[]))

    def test_prefer_remote_writes(self, registry):
        # NotesI.addNote writes state -> remote under the conservative policy;
        # AddressI only reads -> stays local.
        spec = infer_view_spec(
            "AutoConservative",
            MailClient,
            registry,
            ViewHint(allow=["addNote", "addMeeting", "getPhone", "getEmail"]),
            prefer_remote_writes=True,
        )
        modes = {r.name: r.mode for r in spec.interfaces}
        assert modes["NotesI"] is InterfaceMode.SWITCHBOARD
        assert modes["AddressI"] is InterfaceMode.LOCAL


class TestGeneratedAutoViews:
    def test_inferred_view_works_end_to_end(self, registry):
        spec = infer_view_spec(
            "AutoBrowserView",
            MailClient,
            registry,
            ViewHint(allow=["getEmail"]),
        )
        vig = Vig(registry)
        view_cls = vig.generate(spec, MailClient)
        original = _original()
        view = view_cls(ViewRuntime(local_objects={"MailClient": original}))
        assert view.getEmail("a") == "a@x"
        with pytest.raises(PermissionError):
            view.getPhone("a")
        assert not hasattr(view, "sendMessage")

    def test_custom_deny_message(self, registry):
        spec = infer_view_spec(
            "AutoPolite",
            MailClient,
            registry,
            ViewHint(allow=["getEmail"], deny_message="ask HR about {name}"),
        )
        vig = Vig(registry)
        view_cls = vig.generate(spec, MailClient)
        view = view_cls(ViewRuntime(local_objects={"MailClient": _original()}))
        with pytest.raises(PermissionError, match="ask HR about getPhone"):
            view.getPhone("a")


class TestWriteDetection:
    def test_detects_attribute_store(self):
        class W:
            def set_x(self):
                self.x = 1

            def read_x(self):
                return self.x

        assert method_writes_state(W.set_x)
        assert not method_writes_state(W.read_x)
