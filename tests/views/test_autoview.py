"""Automatic view inference tests (§6 future work, implemented)."""

from __future__ import annotations

import pytest

from repro.errors import ViewSpecError
from repro.mail import MailClient, MailServer, register_components
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


class Shapes:
    """One method per write shape the classifier must see, plus reads."""

    def __init__(self):
        self.n = 0
        self.d = {"k": 0}
        self.boxes = {"m": []}
        self.x = 0
        self.items = []
        self.entries = [1, 2]

    def augmented_store(self):
        self.n += 1

    def augmented_item(self, k):
        self.d[k] += 1

    def nested_mutator(self, m, x):
        self.boxes[m].append(x)

    def delete(self):
        del self.x

    def store_by_name(self, v):
        setattr(self, "x", v)

    def through_alias(self, x):
        b = self.items
        b.append(x)

    def through_helper(self):
        self._grow()

    def _grow(self):
        self.items.append(0)

    def get(self, k):  # a method of self is followed, never trusted as dict.get
        self.d[k] = 1

    def through_own_get(self):
        return self.get("k")

    def total(self):
        return sum(self.entries)


class TestWriteDetection:
    @pytest.mark.parametrize("method", [
        "augmented_store", "augmented_item", "nested_mutator", "delete",
        "store_by_name", "through_alias", "through_helper", "through_own_get",
    ])
    def test_write_shapes(self, method):
        assert method_writes_state(Shapes, method)

    @pytest.mark.parametrize("cls,method", [
        (MailServer, "fetchMail"),
        (MailServer, "listAccounts"),
        (MailClient, "getPhone"),
        (MailClient, "getEmail"),
        (Shapes, "total"),
    ])
    def test_read_only(self, cls, method):
        assert not method_writes_state(cls, method)

    def test_detects_attribute_store(self):
        class W:
            def set_x(self):
                self.x = 1

            def read_x(self):
                return self.x

        assert method_writes_state(W, "set_x")
        assert not method_writes_state(W, "read_x")
