"""Declarative application-specification tests (PSF element #1)."""

from __future__ import annotations

import pytest

from repro.errors import PsfError
from repro.psf import Registrar, load_application

MINI_APP = """
<Application name="mini-mail">
  <Interfaces>
    <Interface name="MailI">
      <Method>fetchMail(user)</Method>
      <Method>sendMail(mes)</Method>
    </Interface>
    <Interface name="SecMailI">
      <Method>fetchMailEnc(user)</Method>
    </Interface>
  </Interfaces>
  <Components>
    <Component name="MailServer" role="Mail.MailServer" cpu="50" deployable="false">
      <Implements interface="MailI"/>
      <NodeConstraint>Mail.Node with Secure={true}</NodeConstraint>
    </Component>
    <Component name="Encryptor" role="Mail.Encryptor" cpu="30">
      <Property name="bandwidth_transparent" value="true"/>
      <Implements interface="SecMailI">
        <Property name="encrypted" value="true"/>
      </Implements>
      <Requires interface="MailI">
        <Property name="privacy" value="true"/>
        <Property name="channel" value="rmi"/>
      </Requires>
      <NodeConstraint>Mail.Node</NodeConstraint>
    </Component>
  </Components>
  <Views>
    <View name="CacheView" component="MailServer" cpu="20" role="Mail.ViewMailServer">
      <Represents name="MailServer"/>
      <Restricts>
        <Interface name="MailI" type="local"/>
      </Restricts>
      <Replicates_Fields>
        <Field name="mailboxes"/>
      </Replicates_Fields>
    </View>
  </Views>
  <Policies>
    <Policy component="MailServer">
      <Allow role="Comp.NY.Member" view="CacheView"/>
      <Allow role="others" view="CacheView"/>
    </Policy>
  </Policies>
</Application>
"""


class TestLoading:
    def test_full_document(self):
        registrar = Registrar()
        report = load_application(registrar, MINI_APP)
        assert report.application == "mini-mail"
        assert report.interfaces == ["MailI", "SecMailI"]
        assert report.components == ["MailServer", "Encryptor"]
        assert report.views == ["CacheView"]
        assert report.policies == ["MailServer"]

    def test_interfaces_registered_with_methods(self):
        registrar = Registrar()
        load_application(registrar, MINI_APP)
        mail_i = registrar.interfaces.get("MailI")
        assert mail_i.method_names() == ("fetchMail", "sendMail")
        assert mail_i.method("fetchMail").params == ("user",)

    def test_component_fields(self):
        registrar = Registrar()
        load_application(registrar, MINI_APP)
        server = registrar.component("MailServer")
        assert server.cpu_demand == 50
        assert not server.deployable
        assert str(server.component_role) == "Mail.MailServer"
        assert str(server.node_constraints[0]) == "Mail.Node with Secure={true}"

    def test_port_properties(self):
        registrar = Registrar()
        load_application(registrar, MINI_APP)
        encryptor = registrar.component("Encryptor")
        assert encryptor.implements[0].properties == {"encrypted": True}
        assert encryptor.requires[0].properties == {
            "privacy": True,
            "channel": "rmi",
        }
        assert encryptor.properties == {"bandwidth_transparent": True}

    def test_view_derived_component(self):
        registrar = Registrar()
        load_application(registrar, MINI_APP)
        view = registrar.component("CacheView")
        assert view.is_view
        assert view.cpu_demand == 20
        assert str(view.component_role) == "Mail.ViewMailServer"
        assert registrar.view_spec("CacheView").replicated_fields == ("mailboxes",)

    def test_policy_rules(self):
        registrar = Registrar()
        load_application(registrar, MINI_APP)
        policy = registrar.policy("MailServer")
        assert [r.view_name for r in policy.rules()] == ["CacheView", "CacheView"]
        assert policy.rules()[-1].is_default

    def test_factories_and_classes_bound(self):
        registrar = Registrar()

        class FakeServer:
            pass

        sentinel = object()
        load_application(
            registrar,
            MINI_APP,
            factories={"Encryptor": lambda ctx: sentinel},
            classes={"MailServer": FakeServer},
        )
        assert registrar.component("Encryptor").factory(None) is sentinel
        assert registrar.component_class("MailServer") is FakeServer


class TestErrors:
    def test_bad_root(self):
        with pytest.raises(PsfError, match="Application"):
            load_application(Registrar(), "<Bogus/>")

    def test_unparseable(self):
        with pytest.raises(PsfError, match="unparseable"):
            load_application(Registrar(), "<Application")

    def test_component_without_name(self):
        doc = "<Application><Components><Component cpu='1'/></Components></Application>"
        with pytest.raises(PsfError, match="name"):
            load_application(Registrar(), doc)

    def test_policy_without_component(self):
        doc = "<Application><Policies><Policy/></Policies></Application>"
        with pytest.raises(PsfError, match="component"):
            load_application(Registrar(), doc)

    def test_component_cpu_not_a_number(self):
        with pytest.raises(PsfError, match="cpu"):
            load_application(Registrar(), MINI_APP.replace('cpu="30"', 'cpu="abc"'))

    def test_view_cpu_not_a_number(self):
        with pytest.raises(PsfError, match="cpu"):
            load_application(Registrar(), MINI_APP.replace('cpu="20"', 'cpu="abc"'))

    def test_unparseable_role(self):
        with pytest.raises(PsfError, match="role"):
            load_application(
                Registrar(),
                MINI_APP.replace('role="Mail.Encryptor"', 'role="norole"'),
            )

    def test_malformed_node_constraint(self):
        doc = MINI_APP.replace(
            "Mail.Node with Secure={true}", "Mail.Node with Secure="
        )
        with pytest.raises(PsfError, match="NodeConstraint"):
            load_application(Registrar(), doc)

    def test_unparseable_allow_role(self):
        doc = MINI_APP.replace('<Allow role="Comp.NY.Member"', '<Allow role="x"')
        with pytest.raises(PsfError, match="Allow"):
            load_application(Registrar(), doc)

    def test_allow_after_others(self):
        doc = MINI_APP.replace(
            '<Allow role="others" view="CacheView"/>',
            '<Allow role="others" view="CacheView"/>'
            '<Allow role="Comp.NY.Member" view="CacheView"/>',
        )
        with pytest.raises(PsfError, match="others"):
            load_application(Registrar(), doc)

    @pytest.mark.parametrize("value", ["1", "yes", "0", ""])
    def test_deployable_accepts_only_true_or_false(self, value):
        doc = MINI_APP.replace('deployable="false"', f'deployable="{value}"')
        with pytest.raises(PsfError, match="deployable"):
            load_application(Registrar(), doc)


class TestPlannability:
    def test_loaded_app_plans_like_programmatic_registration(self, key_store):
        """The declarative document drives the same planner machinery."""
        from repro.drbac.model import AttrSet
        from repro.psf import EdgeRequirement, Planner, ServiceRequest, ExistingInstance
        from repro.psf.guard import Guard
        from repro.drbac import DrbacEngine
        from repro.net import Network

        registrar = Registrar()
        load_application(registrar, MINI_APP)

        engine = DrbacEngine(key_store=key_store)
        network = Network()
        network.add_node("n1", domain="NY")
        network.add_node("n2", domain="NY")
        network.add_link("n1", "n2", secure=False)
        guard = Guard(engine, "Comp.NY")
        mail = Guard(engine, "Mail")
        for node in ("n1", "n2"):
            mail.certify(
                __import__("repro.drbac.model", fromlist=["EntityRef"]).EntityRef(node),
                mail.role("Node"),
                attributes={"Secure": AttrSet([True])},
            )
        guard.certify(
            __import__("repro.drbac.model", fromlist=["Role"]).Role("Mail", "ViewMailServer"),
            guard.executable_role,
        )
        planner = Planner(
            registrar,
            network,
            {"NY": guard},
            existing=[
                ExistingInstance(
                    name="MailServer", node="n2", component=registrar.component("MailServer")
                )
            ],
        )
        plan = planner.plan(
            ServiceRequest(
                client="u", client_node="n1", interface="MailI",
                qos=EdgeRequirement(min_bandwidth_bps=1e12),
            )
        )
        assert plan.deployed_names() == ["CacheView"]
