"""The mail application document: ``build_scenario`` registers it, and a
damaged copy of it loads or raises a typed error, never anything else."""

from __future__ import annotations

import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.mail import MAIL_APP_XML, register_components
from repro.psf import EdgeRequirement, Registrar, ServiceRequest, load_application


class TestDeclarativeOperation:
    def test_planner_adapts_identically(self, shared_scenario):
        plan = shared_scenario.psf.planner().plan(
            ServiceRequest(
                client="Bob", client_node="sd-pc1", interface="MailI",
                qos=EdgeRequirement(privacy=True, channel="rmi"),
            )
        )
        assert plan.deployed_names() == ["ViewMailServer"]

    def test_end_to_end_deployment_works(self, scenario_factory):
        scenario = scenario_factory()
        session = scenario.psf.request_service(
            ServiceRequest(
                client="Bob", client_node="sd-pc1", interface="MailI",
                qos=EdgeRequirement(privacy=True, channel="rmi"),
            )
        )
        session.access.sendMail(
            {"sender": "Bob", "recipient": "Alice", "subject": "d", "body": "b"}
        )
        assert scenario.server.fetchMail("Alice")

    def test_document_mentions_table_3b_view(self):
        assert 'name="ViewMailClient_Partner"' in MAIL_APP_XML
        assert 'type="switchboard"' in MAIL_APP_XML

    def test_scenario_registers_everything_the_document_declares(self, shared_scenario):
        report = register_components(Registrar())
        registrar = shared_scenario.psf.registrar
        assert [c.name for c in registrar.components()] == (
            report.components + report.views
        )
        assert registrar.interfaces.names() == sorted(report.interfaces)
        assert [s.name for s in registrar.view_specs()] == report.views
        assert report.policies == ["MailClient"]


# Every attribute and every non-blank text node of the document: the
# places a hand-edited or corrupted copy can differ from the original.
_ELEMENTS = list(ET.fromstring(MAIL_APP_XML).iter())
_SLOTS = [
    (index, attribute)
    for index, element in enumerate(_ELEMENTS)
    for attribute in element.attrib
] + [
    (index, None)
    for index, element in enumerate(_ELEMENTS)
    if (element.text or "").strip()
]
_TOKENS = st.sampled_from([
    "", " ", "abc", "0", "-1", "1", "yes", "true", "false", "others", "x",
    "Mail.Node", "Mail.Node with Secure=", "Mail.Node with Secure={}",
    "Mail.Node with Trust=(5,1)", "Mail.Node with Trust=(a,b)", "f(",
    "f(a b)", "MailServer", "MailClient", "MailI", "ViewMailServer", "rmi",
    "bogus", "nan", "1e999",
])
# Lone surrogates cannot occur in text decoded from a file.
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=24)


class TestHostileDocument:
    @settings(max_examples=300, deadline=None)
    @given(
        slot=st.sampled_from(_SLOTS),
        value=st.none() | _TOKENS | _TEXT,
    )
    def test_one_changed_node_loads_or_raises_typed(self, slot, value):
        """Replace (or drop, ``None``) one attribute or text node."""
        index, attribute = slot
        root = ET.fromstring(MAIL_APP_XML)
        element = list(root.iter())[index]
        if attribute is None:
            element.text = value
        elif value is None:
            del element.attrib[attribute]
        else:
            element.set(attribute, value)
        registrar = Registrar()
        try:
            load_application(registrar, ET.tostring(root, encoding="unicode"))
        except ReproError:
            return
        assert registrar.components()
