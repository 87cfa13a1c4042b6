"""Table 3 — the original object (3a) and the XML view rules (3b).

Validates that the Table 3(a) component and Table 3(b) XML are faithfully
representable, and times XML parsing + validation of the partner view as
it appears in the mail application document.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.mail import MAIL_APP_XML, MailClient
from repro.views.spec import ViewSpec

from conftest import print_table

PARTNER_XML = ET.tostring(
    ET.fromstring(MAIL_APP_XML).find("Views/View[@name='ViewMailClient_Partner']"),
    encoding="unicode",
)


def test_table3a_component_shape(benchmark, mail_app):
    """The represented object implements the three declared interfaces."""
    interfaces = [
        mail_app.interfaces.get(port.interface)
        for port in mail_app.component("MailClient").implements
    ]

    def check():
        client = MailClient(accounts={"a": {"name": "a", "phone": "1", "email": "e"}})
        covered = 0
        for iface in interfaces:
            for sig in iface.methods:
                assert callable(getattr(client, sig.name))
                covered += 1
        # The private helper of Table 3a exists and is not on any interface.
        assert callable(client.findAccount)
        return covered

    assert benchmark(check) == 6
    print_table(
        "Table 3(a): MailClient interfaces",
        ["interface", "methods"],
        [[i.name, ", ".join(i.method_names())] for i in interfaces],
    )


def test_table3b_xml_parse(benchmark):
    """Parse + validate the Table 3(b) XML rules."""
    spec = benchmark(lambda: ViewSpec.from_xml(PARTNER_XML))
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


def test_table3b_roundtrip(benchmark):
    """XML -> spec -> XML -> spec is stable (the digest VIG caches on)."""
    spec = ViewSpec.from_xml(PARTNER_XML)

    def roundtrip():
        return ViewSpec.from_xml(spec.to_xml()).digest()

    assert benchmark(roundtrip) == spec.digest()
