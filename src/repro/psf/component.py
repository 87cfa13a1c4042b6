"""PSF component model (Section 2.1).

"Components are modeled as entities that *implement* and *require* typed
interfaces, each of which is associated with a set of properties. ...
Such modeling of application and network behaviors permits the use of
type compatibility to define what constitutes a valid application
configuration: two components can be linked to each other if one
implements interfaces the other requires."

A :class:`ComponentType` is the registrar-visible description: the typed
ports, the placement constraints (expressed as dRBAC constraint queries,
§3.2), the component's dRBAC role for node-side authorization (§3.3), and
a factory producing instances at deployment time.  View-derived component
types (:func:`view_component`) are how views "enrich the set of
components available for dynamic deployment".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..drbac.model import Role
from ..drbac.query import Constraint
from ..views.spec import InterfaceMode, ViewSpec


@dataclass(frozen=True, slots=True)
class Port:
    """One typed interface port with its property map.

    For an *implemented* port, properties describe what the component
    delivers (e.g. ``{"encrypted": True}``); for a *required* port they
    describe what the component needs from its provider.
    """

    interface: str
    properties: dict = field(default_factory=dict)

    def satisfies(self, required: dict) -> bool:
        """Provider-side check: every required property must match.

        Boolean requirements demand equality; numeric requirements are
        minimums (a provider advertising more bandwidth than required
        still satisfies).
        """
        for key, needed in required.items():
            have = self.properties.get(key)
            if isinstance(needed, bool) or isinstance(have, bool):
                if have != needed:
                    return False
            elif isinstance(needed, (int, float)) and isinstance(have, (int, float)):
                if have < needed:
                    return False
            elif have != needed:
                return False
        return True


@dataclass
class ComponentType:
    """A reusable component as registered with PSF."""

    name: str
    implements: tuple[Port, ...] = ()
    requires: tuple[Port, ...] = ()
    component_role: Optional[Role] = None
    """The dRBAC role the component's instances prove to host nodes
    (Table 2's ``Mail.MailClient`` / ``Mail.Encryptor`` / ...)."""
    node_constraints: tuple[Constraint, ...] = ()
    """dRBAC queries every hosting node must satisfy ("is node a
    Mail.Node with Secure={true}?")."""
    cpu_demand: float = 0.0
    """CPU share the instance consumes; checked against the attenuated
    CPU attribute of the node's Executable-role proof."""
    deployable: bool = True
    """False for stateful singletons (the central mail server): the
    planner may link against running instances but never spawn new ones."""
    factory: Optional[Callable[..., Any]] = None
    view_spec: Optional[ViewSpec] = None
    """Set for view-derived components: VIG generates the class at
    deployment time (generation deferred to first use, §4.3)."""
    properties: dict = field(default_factory=dict)

    def implemented_port(self, interface: str) -> Optional[Port]:
        for port in self.implements:
            if port.interface == interface:
                return port
        return None

    def implements_interface(self, interface: str, required_props: dict) -> bool:
        port = self.implemented_port(interface)
        return port is not None and port.satisfies(required_props)

    @property
    def is_view(self) -> bool:
        return self.view_spec is not None

    def __str__(self) -> str:
        impl = ",".join(p.interface for p in self.implements)
        req = ",".join(p.interface for p in self.requires)
        return f"{self.name}[{impl}{' <- ' + req if req else ''}]"


def view_component(
    base: ComponentType,
    spec: ViewSpec,
    *,
    cpu_demand: float | None = None,
    component_role: Optional[Role] = None,
) -> ComponentType:
    """Derive a deployable component type from a view specification.

    The view implements the spec's restricted interfaces; every interface
    the spec routes back to the original object (*rmi*/*switchboard*
    modes) becomes a *required* port, so the planner knows the view must
    be linked to an instance of the base component.  This is how "views
    increase the likelihood of the planner finding a component deployment
    in constrained environments" — the view's footprint (cpu, placement
    constraints) can be far lighter than the base component's.
    """
    implements = tuple(Port(interface=r.name) for r in spec.interfaces)
    remote_ifaces = [
        r for r in spec.interfaces if r.mode is not InterfaceMode.LOCAL
    ]
    needs_origin = bool(remote_ifaces) or bool(spec.replicated_fields)
    requires: tuple[Port, ...] = ()
    if needs_origin:
        base_port_names = {p.interface for p in base.implements}
        wanted = [r.name for r in remote_ifaces if r.name in base_port_names]
        if not wanted and base.implements:
            # Pure data views still need the original for images; require
            # the base's first implemented interface as the linkage.
            wanted = [base.implements[0].interface]
        # A view's upstream edge must reach *its original object* (the
        # view is a view OF that component, not of a protocol chain), and
        # the synchronization traffic is sensitive by default, so insecure
        # paths force Switchboard.
        origin_props = {"privacy": True, "view_origin": base.name}
        requires = tuple(
            Port(interface=name, properties=dict(origin_props)) for name in wanted
        )
    return ComponentType(
        name=spec.name,
        implements=implements,
        requires=requires,
        component_role=component_role if component_role is not None else base.component_role,
        node_constraints=base.node_constraints,
        cpu_demand=base.cpu_demand if cpu_demand is None else cpu_demand,
        factory=None,
        view_spec=spec,
        properties={"view_of": base.name},
    )
