"""Tables 1-5 of the paper, regenerated and checked.

Table 1: the three dRBAC delegation types.  Table 2: the three-site
credential set and every §3.3 authorization built on it.  Table 3: the
original object (3a) and the XML view rules (3b).  Table 4: the role ->
view access rules.  Table 5: the VIG-generated view class.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.drbac.delegation import DelegationType, issue
from repro.drbac.model import AttrScalar, EntityRef, Role
from repro.mail import MAIL_APP_XML, VIEW_MAIL_CLIENT_MEMBER, MailClient
from repro.views import Vig, ViewRuntime
from repro.views.spec import COHERENCE_METHODS, ViewSpec

from . import print_table

# -- Table 1 -----------------------------------------------------------------


def test_table1_delegation_types(key_store):
    """One credential per row; each is classified, signed and renders in
    the paper's bracket notation."""
    ny, sd = key_store.identity("Comp.NY"), key_store.identity("Comp.SD")
    level = {"Level": AttrScalar(1)}
    examples = {
        DelegationType.SELF_CERTIFYING: issue(
            ny, EntityRef("Alice"), Role("Comp.NY", "Member"), attributes=level
        ),
        DelegationType.THIRD_PARTY: issue(
            sd, Role("Inc.SE", "Member"), Role("Comp.NY", "Partner"), attributes=level
        ),
        DelegationType.ASSIGNMENT: issue(
            ny, EntityRef("Comp.SD"), Role("Comp.NY", "Partner"),
            assignment=True, attributes=level,
        ),
    }
    rows = []
    for kind, delegation in examples.items():
        assert delegation.delegation_type is kind
        assert delegation.verify_signature(key_store.public(delegation.issuer))
        reissued = issue(
            key_store.identity(delegation.issuer),
            delegation.subject,
            delegation.role,
            assignment=kind is DelegationType.ASSIGNMENT,
            attributes=delegation.attributes,
        )
        assert reissued.delegation_type is kind
        rows.append([kind.value, str(delegation)])
    print_table("Table 1: dRBAC delegation types", ["type", "credential"], rows)
    assert str(examples[DelegationType.ASSIGNMENT]).count("'") == 1


# -- Table 2 -----------------------------------------------------------------


def test_table2_credentials(shared_scenario):
    """All seventeen credentials print and authenticate."""
    scenario = shared_scenario
    engine = scenario.engine
    rows = [
        [number, str(delegation)]
        for number, delegation in sorted(scenario.credentials.items())
    ]
    print_table("Table 2: Guard-issued credentials", ["#", "credential"], rows)
    assert len(scenario.credentials) == 17
    verified = sum(
        delegation.verify_signature(engine.public_identity(delegation.issuer))
        for delegation in scenario.credentials.values()
    )
    assert verified == 17


def test_table2_authorizations(shared_scenario):
    """Bob via (11)+(2); Charlie via (15)+(12) supported by (3); sd-pc1 is
    a secure, trusted Mail.Node via (13)+(5)."""
    engine = shared_scenario.engine
    bob = engine.find_proof("Bob", "Comp.NY.Member")
    assert bob is not None and len(bob.chain) == 2
    charlie = engine.find_proof("Charlie", "Comp.NY.Partner")
    assert charlie is not None and charlie.support
    assert engine.is_a("sd-pc1", "Mail.Node with Secure={true} Trust=(0,5)") is not None


def test_table2_component_budgets(shared_scenario):
    """Attenuated CPU budgets across domains: 100 (NY), 80 (SD), 40 (SE)."""
    scenario = shared_scenario
    budgets = (
        scenario.ny_guard.component_cpu_budget(Role("Mail", "MailClient")),
        scenario.sd_guard.component_cpu_budget(Role("Mail", "Encryptor")),
        scenario.se_guard.component_cpu_budget(Role("Mail", "Decryptor")),
    )
    print_table(
        "Component authorization (attenuated CPU budgets)",
        ["component", "domain", "budget"],
        [
            ["Mail.MailClient", "Comp.NY", budgets[0]],
            ["Mail.Encryptor", "Comp.SD", budgets[1]],
            ["Mail.Decryptor", "Inc.SE", budgets[2]],
        ],
    )
    assert budgets == (100, 80, 40)


# -- Table 3 -----------------------------------------------------------------

PARTNER_XML = ET.tostring(
    ET.fromstring(MAIL_APP_XML).find("Views/View[@name='ViewMailClient_Partner']"),
    encoding="unicode",
)


def test_table3a_component_shape(shared_scenario):
    """The represented object implements the three declared interfaces."""
    registrar = shared_scenario.psf.registrar
    interfaces = [
        registrar.interfaces.get(port.interface)
        for port in registrar.component("MailClient").implements
    ]
    client = MailClient(accounts={"a": {"name": "a", "phone": "1", "email": "e"}})
    covered = 0
    for iface in interfaces:
        for sig in iface.methods:
            assert callable(getattr(client, sig.name))
            covered += 1
    # The private helper of Table 3a exists and is not on any interface.
    assert callable(client.findAccount)
    assert covered == 6
    print_table(
        "Table 3(a): MailClient interfaces",
        ["interface", "methods"],
        [[i.name, ", ".join(i.method_names())] for i in interfaces],
    )


def test_table3b_xml_rules():
    """The partner view's XML parses into the Table 3(b) restrictions and
    round-trips stably (the digest VIG caches on)."""
    spec = ViewSpec.from_xml(PARTNER_XML)
    assert spec.name == "ViewMailClient_Partner"
    assert spec.represents == "MailClient"
    modes = {r.name: r.mode.value for r in spec.interfaces}
    print_table(
        "Table 3(b): ViewMailClient_Partner restrictions",
        ["interface", "type"],
        sorted(modes.items()),
    )
    assert modes == {
        "MessageI": "local",
        "NotesI": "rmi",
        "AddressI": "switchboard",
    }
    assert [f.name for f in spec.added_fields] == ["accountCopy"]
    assert ViewSpec.from_xml(spec.to_xml()).digest() == spec.digest()


# -- Table 4 -----------------------------------------------------------------

TABLE4 = {
    "Alice": "ViewMailClient_Member",      # Comp.NY.Member directly
    "Bob": "ViewMailClient_Member",        # via Comp.SD.Member -> Comp.NY.Member
    "Charlie": "ViewMailClient_Partner",   # via Inc.SE.Member -> Comp.NY.Partner
    "Stranger": "ViewMailClient_Anonymous",
}


def test_table4_resolution(shared_scenario):
    """Each principal resolves to its view through live cross-domain proofs."""
    policy = shared_scenario.psf.registrar.policy("MailClient")
    resolved = {
        client: policy.resolve(client, shared_scenario.engine).view_name
        for client in TABLE4
    }
    rows = [
        [client, resolved[client], "default" if client == "Stranger" else "proof"]
        for client in TABLE4
    ]
    print_table("Table 4: role -> view resolution", ["client", "view", "basis"], rows)
    assert resolved == TABLE4


# -- Table 5 -----------------------------------------------------------------


def test_table5_structure(shared_scenario):
    """The generated ViewMailClient_Partner matches the Table 5 layout."""
    registrar = shared_scenario.psf.registrar
    partner = registrar.view_spec("ViewMailClient_Partner")
    view_cls = Vig(registrar.interfaces).generate(partner, MailClient)
    assert view_cls.__name__ == "ViewMailClient_Partner"

    rows = []
    # Local interface methods are copied and coherence-wrapped.
    for name in ("sendMessage", "receiveMessages"):
        assert getattr(getattr(view_cls, name), "__coherence_wrapped__", False)
        rows.append([name, "local copy (acquire/release wrapped)"])
    # NotesI methods forward through the RMI stub field.
    assert getattr(view_cls.addNote, "__forwarder__", "") == "_rmi_NotesI"
    rows.append(["addNote", "forwarder -> notesI_rmi"])
    # addMeeting is customized (user-supplied code), not a forwarder.
    assert not hasattr(view_cls.addMeeting, "__forwarder__")
    rows.append(["addMeeting", "customized (user-supplied code)"])
    # AddressI methods forward through the Switchboard stub field.
    for name in ("getPhone", "getEmail"):
        assert getattr(getattr(view_cls, name), "__forwarder__", "") == "_swb_AddressI"
        rows.append([name, "forwarder -> addrI_switch"])
    # The four coherence methods exist.
    for name in COHERENCE_METHODS:
        assert callable(getattr(view_cls, name))
        rows.append([name, "coherence method"])
    print_table("Table 5: generated ViewMailClient_Partner", ["member", "realization"], rows)
    assert [f.name for f in view_cls.__view_spec__.added_fields] == ["accountCopy"]


def test_table5_generation_is_deferred_and_cached(shared_scenario):
    """Generation pays once per spec (§4.3); the member view built from the
    cached class serves its original."""
    registrar = shared_scenario.psf.registrar
    partner = registrar.view_spec("ViewMailClient_Partner")
    vig = Vig(registrar.interfaces)
    vig.generate(partner, MailClient)
    vig.generate(partner, MailClient)
    assert vig.stats.generated == 1
    assert vig.stats.cache_hits > 0

    member_cls = vig.generate(VIEW_MAIL_CLIENT_MEMBER, MailClient)
    original = MailClient(accounts={"a": {"name": "a", "phone": "1", "email": "e"}})
    view = member_cls(ViewRuntime(local_objects={"MailClient": original}))
    assert view.getPhone("a") == "1"
