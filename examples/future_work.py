"""The paper's §6 future work, implemented and demonstrated.

1. **Policy translation** — "allow each domain to freely choose the policy
   implementation (e.g. roles, capabilities)": a domain running a native
   capability system mirrors its grants into dRBAC through a
   PolicyTranslator; open Switchboard channels react when the *native*
   policy changes.
2. **Automatic view creation** — "fully automate the process of creating
   views based on a few hints from the programmer": infer_view_spec turns
   a method allow-list into a complete view spec, which VIG compiles.

Run:  python examples/future_work.py
"""

from __future__ import annotations

from repro.drbac import (
    CapabilityPolicy,
    DrbacEngine,
    PolicyTranslator,
    Role,
    TranslationRule,
)
from repro.mail import MailClient, register_components
from repro.psf import Registrar
from repro.views import (
    ViewHint,
    ViewRuntime,
    Vig,
    infer_view_spec,
)


def demo_policy_translation() -> None:
    print("=== 1. Translating a native capability policy into dRBAC ===")
    engine = DrbacEngine(key_bits=512)

    # The Lab domain does NOT use dRBAC natively; it hands out capabilities.
    lab_policy = CapabilityPolicy()
    lab_policy.grant("dana", "instrument-access")

    translator = PolicyTranslator(
        engine,
        "Lab",
        lab_policy,
        [TranslationRule("instrument-access", Role("Lab", "Operator"))],
    )
    report = translator.sync()
    print(f"mirrored {len(report.issued)} native grant(s) into dRBAC:")
    for delegation in report.issued:
        print("  ", delegation)

    # The mirrored credential chains like any dRBAC credential.
    engine.delegate("Comp.NY", "Lab.Operator", "Comp.NY.Guest")
    print("dana -> Comp.NY.Guest:", engine.find_proof("dana", "Comp.NY.Guest"))

    # A live authorization reacts when the NATIVE policy changes.
    result = engine.authorize("dana", "Lab.Operator")
    print("live authorization valid:", result.valid)
    lab_policy.revoke("dana", "instrument-access")
    translator.sync()
    print("after native revocation + sync, still valid?", result.valid)


def demo_automatic_views() -> None:
    print("\n=== 2. Automatic view creation from programmer hints ===")
    registrar = Registrar()
    register_components(registrar)  # the mail application's interfaces
    registry = registrar.interfaces

    # The whole "XML file" is this one hint:
    hint = ViewHint(allow=["getEmail", "sendMessage", "receiveMessages"])
    spec = infer_view_spec("KioskView", MailClient, registry, hint)
    print("inferred specification:")
    print(spec.to_xml())

    view_cls = Vig(registry).generate(spec, MailClient)
    original = MailClient(
        accounts={"alice": {"name": "alice", "phone": "212", "email": "alice@comp"}}
    )
    view = view_cls(ViewRuntime(local_objects={"MailClient": original}))
    print("getEmail:", view.getEmail("alice"))
    print("sendMessage:", view.sendMessage({"recipient": "alice", "body": "hello"}))
    try:
        view.getPhone("alice")
    except PermissionError as exc:
        print("getPhone denied per-method:", exc)
    print("NotesI absent entirely:", not hasattr(view, "addNote"))

    # The conservative placement policy: state-writing interfaces stay on
    # the original object when clients run on untrusted machines.
    spec2 = infer_view_spec(
        "UntrustedTerminalView",
        MailClient,
        registry,
        ViewHint(allow=["addNote", "addMeeting", "getEmail", "getPhone"]),
        prefer_remote_writes=True,
    )
    modes = {r.name: r.mode.value for r in spec2.interfaces}
    print("inferred placement for an untrusted terminal:", modes)


if __name__ == "__main__":
    demo_policy_translation()
    demo_automatic_views()
