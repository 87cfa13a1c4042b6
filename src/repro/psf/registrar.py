"""The PSF registrar: where applications register their pieces (§2.1, §5).

"Most dynamic component-based frameworks rely on an application
registration step, where complete specifications of the application
components are provided to permit automated deployment planning."

The registrar tracks component types (including view-derived ones), the
interface registry shared with VIG, view specifications per base
component, and the per-component view access policies (Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import PsfError
from ..views.acl import ViewAccessPolicy
from ..views.interfaces import InterfaceDef, InterfaceRegistry
from ..views.spec import ViewSpec
from .component import ComponentType, view_component


class Registrar:
    """Component, interface, and view-spec registry for one PSF instance."""

    def __init__(self, interfaces: InterfaceRegistry | None = None) -> None:
        self.interfaces = interfaces or InterfaceRegistry()
        self._components: dict[str, ComponentType] = {}
        self._view_specs: dict[str, ViewSpec] = {}
        self._policies: dict[str, ViewAccessPolicy] = {}
        self._classes: dict[str, type] = {}

    # -- components --------------------------------------------------------

    def register_component(
        self, component: ComponentType, *, cls: type | None = None
    ) -> ComponentType:
        if component.name in self._components:
            raise PsfError(f"component {component.name!r} already registered")
        self._components[component.name] = component
        if cls is not None:
            self._classes[component.name] = cls
        return component

    def component(self, name: str) -> ComponentType:
        try:
            return self._components[name]
        except KeyError:
            raise PsfError(f"unknown component {name!r}") from None

    def components(self) -> list[ComponentType]:
        return list(self._components.values())

    def component_class(self, name: str) -> Optional[type]:
        return self._classes.get(name)

    def providers_of(self, interface: str, required_props: dict | None = None) -> list[ComponentType]:
        """Components whose implemented ports satisfy the requirement."""
        required_props = required_props or {}
        return [
            c
            for c in self._components.values()
            if c.implements_interface(interface, required_props)
        ]

    # -- views ----------------------------------------------------------------

    def register_view(
        self,
        base_name: str,
        spec: ViewSpec,
        *,
        cpu_demand: float | None = None,
        component_role=None,
    ) -> ComponentType:
        """Register a view of an existing component as a deployable type."""
        base = self.component(base_name)
        derived = view_component(
            base, spec, cpu_demand=cpu_demand, component_role=component_role
        )
        self._view_specs[spec.name] = spec
        return self.register_component(derived)

    def view_spec(self, name: str) -> ViewSpec:
        try:
            return self._view_specs[name]
        except KeyError:
            raise PsfError(f"unknown view spec {name!r}") from None

    def view_specs(self) -> list[ViewSpec]:
        return list(self._view_specs.values())

    # -- access policies (Table 4) -----------------------------------------------

    def set_policy(self, component_name: str, policy: ViewAccessPolicy) -> None:
        self.component(component_name)  # must exist
        self._policies[component_name] = policy

    def policy(self, component_name: str) -> Optional[ViewAccessPolicy]:
        return self._policies.get(component_name)

    # -- interfaces -----------------------------------------------------------------

    def register_interface(self, interface: InterfaceDef) -> InterfaceDef:
        return self.interfaces.register(interface)
