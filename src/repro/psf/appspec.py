"""Declarative application specification (§2.1, PSF element #1).

"In order to allow applications to flexibly adapt to heterogeneous
environments, PSF relies on four elements: (1) a *declarative
specification* of application and environment characteristics, ..."

This module provides the registration document: one XML file describing an
application's interfaces, components (with implemented/required ports,
properties, dRBAC roles, node constraints, CPU demands), view
specifications, and the Table 4 access policies.  Loading a document
populates a :class:`~repro.psf.registrar.Registrar`, and is how the mail
application (:mod:`repro.mail.app_xml`) is registered.  A malformed
document raises :class:`~repro.errors.PsfError` (or the
:class:`~repro.errors.ViewSpecError` of a malformed ``<View>``).

Grammar::

    <Application name="mail">
      <Interfaces>
        <Interface name="MailI">
          <Method>fetchMail(user)</Method>
          <Method>sendMail(mes)</Method>
        </Interface>
      </Interfaces>
      <Components>
        <Component name="MailServer" role="Mail.MailServer" cpu="50"
                   deployable="false">
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
        <View name="..."> ... (the Table 3b grammar) ... </View>
      </Views>
      <Policies>
        <Policy component="MailClient">
          <Allow role="Comp.NY.Member" view="ViewMailClient_Member"/>
          <Allow role="others" view="ViewMailClient_Anonymous"/>
        </Policy>
      </Policies>
    </Application>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..drbac.model import Role
from ..drbac.query import Constraint
from ..errors import PsfError
from ..views.acl import ViewAccessPolicy
from ..views.interfaces import InterfaceDef, MethodSig
from ..views.spec import ViewSpec, parse_signature
from .component import ComponentType, Port
from .registrar import Registrar


@dataclass(slots=True)
class LoadReport:
    """What a document contributed to the registrar."""

    application: str = ""
    interfaces: list[str] = field(default_factory=list)
    components: list[str] = field(default_factory=list)
    views: list[str] = field(default_factory=list)
    policies: list[str] = field(default_factory=list)


def _parse_value(text: str):
    """Property values: booleans, numbers, or strings."""
    lowered = text.strip().lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text.strip()


def _parse_properties(element: ET.Element) -> dict:
    properties: dict = {}
    for child in element.findall("Property"):
        name = (child.get("name") or "").strip()
        if not name:
            raise PsfError("<Property> requires a name attribute")
        properties[name] = _parse_value(child.get("value", ""))
    return properties


def _parse_interface(element: ET.Element) -> InterfaceDef:
    name = (element.get("name") or "").strip()
    if not name:
        raise PsfError("<Interface> requires a name attribute")
    methods = []
    for method_el in element.findall("Method"):
        method_name, params = parse_signature((method_el.text or "").strip())
        methods.append(MethodSig(name=method_name, params=params))
    return InterfaceDef(name=name, methods=tuple(methods))


def _parse_port(element: ET.Element) -> Port:
    interface = (element.get("interface") or "").strip()
    if not interface:
        raise PsfError(f"<{element.tag}> requires an interface attribute")
    return Port(interface=interface, properties=_parse_properties(element))


def _parse_cpu(element: ET.Element, default: Optional[float]) -> Optional[float]:
    text = element.get("cpu")
    if text is None:
        return default
    try:
        return float(text)
    except ValueError:
        raise PsfError(f"<{element.tag}> cpu={text!r} is not a number") from None


def _parse_role(element: ET.Element) -> Optional[Role]:
    text = (element.get("role") or "").strip()
    if not text:
        return None
    try:
        return Role.parse(text)
    except ValueError as exc:
        raise PsfError(f"<{element.tag}> role: {exc}") from None


def _parse_constraint(element: ET.Element) -> Constraint:
    text = (element.text or "").strip()
    try:
        return Constraint.parse(text)
    except ValueError as exc:
        raise PsfError(f"<NodeConstraint>{text}</NodeConstraint>: {exc}") from None


def _parse_component(
    element: ET.Element,
    factories: dict[str, Callable],
    classes: dict[str, type],
) -> tuple[ComponentType, Optional[type]]:
    name = (element.get("name") or "").strip()
    if not name:
        raise PsfError("<Component> requires a name attribute")
    deployable = element.get("deployable", "true").strip().lower()
    if deployable not in ("true", "false"):
        raise PsfError(
            f"<Component name={name!r}> deployable must be true or false, "
            f"got {element.get('deployable')!r}"
        )
    component = ComponentType(
        name=name,
        implements=tuple(_parse_port(p) for p in element.findall("Implements")),
        requires=tuple(_parse_port(p) for p in element.findall("Requires")),
        component_role=_parse_role(element),
        node_constraints=tuple(
            _parse_constraint(c) for c in element.findall("NodeConstraint")
        ),
        cpu_demand=_parse_cpu(element, 0.0),
        deployable=deployable == "true",
        factory=factories.get(name),
        properties=_parse_properties(element),
    )
    return component, classes.get(name)


def load_application(
    registrar: Registrar,
    xml_text: str,
    *,
    factories: dict[str, Callable] | None = None,
    classes: dict[str, type] | None = None,
) -> LoadReport:
    """Register everything an application document declares.

    ``factories`` and ``classes`` bind the declarative names to runnable
    code (XML cannot carry Python callables); components without either
    can still be planned against but not instantiated.
    """
    factories = factories or {}
    classes = classes or {}
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise PsfError(f"unparseable application XML: {exc}") from exc
    if root.tag != "Application":
        raise PsfError(f"root element must be <Application>, got <{root.tag}>")
    report = LoadReport(application=(root.get("name") or "").strip())

    interfaces_el = root.find("Interfaces")
    if interfaces_el is not None:
        for iface_el in interfaces_el.findall("Interface"):
            interface = _parse_interface(iface_el)
            registrar.register_interface(interface)
            report.interfaces.append(interface.name)

    components_el = root.find("Components")
    if components_el is not None:
        for comp_el in components_el.findall("Component"):
            component, cls = _parse_component(comp_el, factories, classes)
            registrar.register_component(component, cls=cls)
            report.components.append(component.name)

    views_el = root.find("Views")
    if views_el is not None:
        for view_el in views_el.findall("View"):
            spec = ViewSpec.from_xml(ET.tostring(view_el, encoding="unicode"))
            base = (view_el.get("component") or spec.represents).strip()
            registrar.register_view(
                base,
                spec,
                cpu_demand=_parse_cpu(view_el, None),
                component_role=_parse_role(view_el),
            )
            report.views.append(spec.name)

    policies_el = root.find("Policies")
    if policies_el is not None:
        for policy_el in policies_el.findall("Policy"):
            component_name = (policy_el.get("component") or "").strip()
            if not component_name:
                raise PsfError("<Policy> requires a component attribute")
            policy = ViewAccessPolicy(component_name)
            for allow_el in policy_el.findall("Allow"):
                role_text = (allow_el.get("role") or "").strip()
                view_name = (allow_el.get("view") or "").strip()
                if not role_text or not view_name:
                    raise PsfError("<Allow> requires role and view attributes")
                try:
                    policy.allow(role_text, view_name)
                except ValueError as exc:
                    raise PsfError(f"<Allow role={role_text!r}>: {exc}") from None
            registrar.set_policy(component_name, policy)
            report.policies.append(component_name)

    return report
