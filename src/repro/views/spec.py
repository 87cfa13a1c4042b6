"""View specifications: the XML rule language of Table 3(b).

"A minimal view is fully described by a name and a represented object.
The minimal view can be enriched by providing a list of implemented
interfaces, defining new methods and fields, and copying or customizing
existing methods.  For each interface, the view description can specify a
type (local, rmi, or switch) that indicates how the interface is available
to clients."

The XML grammar accepted here mirrors Table 3(b)::

    <View name="ViewMailClient_Partner">
      <Represents name="MailClient"/>
      <Restricts>
        <Interface name="MessageI" type="local"/>
        <Interface name="NotesI"   type="rmi" binding="notes-service"/>
        <Interface name="AddressI" type="switchboard" binding="addr-service"/>
      </Restricts>
      <Adds_Fields>
        <Field name="accountCopy" type="Account"/>
      </Adds_Fields>
      <Replicates_Fields>            <!-- data-view subset (extension) -->
        <Field name="notes"/>
      </Replicates_Fields>
      <Adds_Methods>
        <MSign>mergeImageIntoView(image)</MSign>
        <MBody>...python statements...</MBody>
      </Adds_Methods>
      <Customizes_Methods>
        <MSign>addMeeting(name)</MSign>
        <MBody>...python statements...</MBody>
      </Customizes_Methods>
    </View>

``MSign``/``MBody`` pairs appear in order as direct children, exactly as
in the paper.  Method bodies are Python statements in this reproduction
(the paper's are Java, inserted via Javassist).  Java-style signatures
such as ``boolean addMeeting(String name)`` are accepted: types are
stripped, parameter names kept.
"""

from __future__ import annotations

import enum
import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from ..errors import ViewSpecError


class InterfaceMode(enum.Enum):
    """How an interface is exposed to the view's clients (§4.1)."""

    LOCAL = "local"
    RMI = "rmi"
    SWITCHBOARD = "switchboard"

    @staticmethod
    def parse(text: str) -> "InterfaceMode":
        normalized = text.strip().lower()
        if normalized in ("switch", "switchboard"):
            return InterfaceMode.SWITCHBOARD
        try:
            return InterfaceMode(normalized)
        except ValueError:
            raise ViewSpecError(
                f"unknown interface type {text!r}; expected local, rmi, or switchboard"
            ) from None


@dataclass(frozen=True, slots=True)
class InterfaceRestriction:
    """One ``<Interface>`` row: name, exposure mode, and remote binding."""

    name: str
    mode: InterfaceMode
    binding: str = ""
    """Naming-registry key resolved at view construction (remote modes)."""


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """One ``<Field>`` row."""

    name: str
    type_name: str = ""


@dataclass(frozen=True, slots=True)
class MethodSpec:
    """A method signature + Python body from the XML description."""

    name: str
    params: tuple[str, ...]
    body: str

    @staticmethod
    def parse(signature: str, body: str) -> "MethodSpec":
        name, params = parse_signature(signature)
        return MethodSpec(name=name, params=params, body=body)


def parse_signature(signature: str) -> tuple[str, tuple[str, ...]]:
    """Parse ``addMeeting(name)`` or Java-style ``boolean addMeeting(String name)``.

    Returns (method name, parameter names).  Return types and parameter
    types are discarded; only names survive.
    """
    signature = signature.strip()
    open_paren = signature.find("(")
    close_paren = signature.rfind(")")
    if open_paren < 0 or close_paren < open_paren:
        raise ViewSpecError(f"malformed method signature: {signature!r}")
    head = signature[:open_paren].strip()
    if not head:
        raise ViewSpecError(f"method signature missing a name: {signature!r}")
    name = head.split()[-1]  # drop any Java-style return type
    params: list[str] = []
    param_text = signature[open_paren + 1 : close_paren].strip()
    if param_text and param_text != "...":
        for chunk in param_text.split(","):
            tokens = chunk.replace("[]", " ").split()
            if not tokens:
                raise ViewSpecError(f"empty parameter in signature: {signature!r}")
            params.append(tokens[-1])
    if not name.isidentifier():
        raise ViewSpecError(f"method name {name!r} is not a valid identifier")
    for param in params:
        if not param.isidentifier():
            raise ViewSpecError(f"parameter {param!r} is not a valid identifier")
    return name, tuple(params)


# The coherence methods the paper requires every view description to
# provide (Table 3b): "complete implementations for cache coherence-
# specific methods".  VIG supplies defaults when they are omitted and
# Replicates_Fields is present (DESIGN.md: implemented future work).
COHERENCE_METHODS = (
    "mergeImageIntoView",
    "mergeImageIntoObj",
    "extractImageFromView",
    "extractImageFromObj",
)


@dataclass
class ViewSpec:
    """A complete view description (the in-memory form of Table 3b)."""

    name: str
    represents: str
    interfaces: tuple[InterfaceRestriction, ...] = ()
    added_fields: tuple[FieldSpec, ...] = ()
    replicated_fields: tuple[str, ...] = ()
    copied_methods: tuple[str, ...] = ()
    """Methods copied from the represented object by name, outside any
    restricted interface ("copying ... existing methods", §4.1)."""
    added_methods: tuple[MethodSpec, ...] = ()
    customized_methods: tuple[MethodSpec, ...] = ()
    constructor_body: str = ""
    properties: dict = field(default_factory=dict)
    """Creation-time view properties (§4.2: "view properties ... specified
    at creation time")."""

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ViewSpecError(f"view name {self.name!r} is not a valid identifier")
        if not self.represents:
            raise ViewSpecError("a view must name the object it represents")
        seen: set[str] = set()
        for restriction in self.interfaces:
            if restriction.name in seen:
                raise ViewSpecError(
                    f"interface {restriction.name!r} restricted twice in {self.name}"
                )
            seen.add(restriction.name)
        method_names = [m.name for m in self.added_methods] + [
            m.name for m in self.customized_methods
        ]
        duplicates = {n for n in method_names if method_names.count(n) > 1}
        if duplicates:
            raise ViewSpecError(
                f"method(s) defined more than once in {self.name}: {sorted(duplicates)}"
            )

    # -- convenience ------------------------------------------------------

    def method_spec(self, name: str) -> MethodSpec | None:
        for spec in self.added_methods + self.customized_methods:
            if spec.name == name:
                return spec
        return None

    def provides_coherence_methods(self) -> bool:
        provided = {m.name for m in self.added_methods}
        return all(m in provided for m in COHERENCE_METHODS)

    def digest(self) -> str:
        """Stable content hash used as the VIG cache key."""
        hasher = hashlib.sha256()
        hasher.update(self.to_xml().encode())
        return hasher.hexdigest()[:24]

    # -- XML --------------------------------------------------------------

    @staticmethod
    def from_xml(text: str) -> "ViewSpec":
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise ViewSpecError(f"unparseable view XML: {exc}") from exc
        if root.tag != "View":
            raise ViewSpecError(f"root element must be <View>, got <{root.tag}>")
        name = (root.get("name") or "").strip()
        if not name:
            raise ViewSpecError("<View> requires a name attribute")

        represents = ""
        interfaces: list[InterfaceRestriction] = []
        added_fields: list[FieldSpec] = []
        replicated: list[str] = []
        copied: list[str] = []
        added_methods: list[MethodSpec] = []
        customized: list[MethodSpec] = []
        constructor_body = ""

        for child in root:
            if child.tag == "Represents":
                represents = (child.get("name") or "").strip()
            elif child.tag == "Restricts":
                for iface in child:
                    if iface.tag != "Interface":
                        raise ViewSpecError(
                            f"<Restricts> may only contain <Interface>, got <{iface.tag}>"
                        )
                    iface_name = (iface.get("name") or "").strip()
                    if not iface_name:
                        raise ViewSpecError("<Interface> requires a name attribute")
                    interfaces.append(
                        InterfaceRestriction(
                            name=iface_name,
                            mode=InterfaceMode.parse(iface.get("type", "local")),
                            binding=(iface.get("binding") or "").strip(),
                        )
                    )
            elif child.tag == "Adds_Fields":
                added_fields.extend(_parse_fields(child))
            elif child.tag == "Replicates_Fields":
                replicated.extend(f.name for f in _parse_fields(child))
            elif child.tag == "Copies_Methods":
                for method_el in child:
                    if method_el.tag != "MName":
                        raise ViewSpecError(
                            f"<Copies_Methods> may only contain <MName>, "
                            f"got <{method_el.tag}>"
                        )
                    method_name = (method_el.text or "").strip()
                    if not method_name.isidentifier():
                        raise ViewSpecError(
                            f"copied method name {method_name!r} is not a "
                            f"valid identifier"
                        )
                    copied.append(method_name)
            elif child.tag == "Adds_Methods":
                added_methods.extend(_parse_methods(child))
            elif child.tag == "Customizes_Methods":
                customized.extend(_parse_methods(child))
            elif child.tag == "Constructor":
                constructor_body = (child.text or "").strip()
            else:
                raise ViewSpecError(f"unknown element <{child.tag}> in view {name}")

        if not represents:
            raise ViewSpecError(f"view {name} is missing <Represents>")

        # The paper's spec may define the constructor as an Adds_Methods
        # entry named like the view; lift it into the constructor body.
        lifted: list[MethodSpec] = []
        for method in added_methods:
            if method.name == name:
                constructor_body = method.body
            else:
                lifted.append(method)

        return ViewSpec(
            name=name,
            represents=represents,
            interfaces=tuple(interfaces),
            added_fields=tuple(added_fields),
            replicated_fields=tuple(replicated),
            copied_methods=tuple(copied),
            added_methods=tuple(lifted),
            customized_methods=tuple(customized),
            constructor_body=constructor_body,
        )

    def to_xml(self) -> str:
        root = ET.Element("View", name=self.name)
        ET.SubElement(root, "Represents", name=self.represents)
        if self.interfaces:
            restricts = ET.SubElement(root, "Restricts")
            for restriction in self.interfaces:
                attrs = {"name": restriction.name, "type": restriction.mode.value}
                if restriction.binding:
                    attrs["binding"] = restriction.binding
                ET.SubElement(restricts, "Interface", **attrs)
        if self.added_fields:
            adds = ET.SubElement(root, "Adds_Fields")
            for fld in self.added_fields:
                attrs = {"name": fld.name}
                if fld.type_name:
                    attrs["type"] = fld.type_name
                ET.SubElement(adds, "Field", **attrs)
        if self.replicated_fields:
            repl = ET.SubElement(root, "Replicates_Fields")
            for fld_name in self.replicated_fields:
                ET.SubElement(repl, "Field", name=fld_name)
        if self.copied_methods:
            copies = ET.SubElement(root, "Copies_Methods")
            for method_name in self.copied_methods:
                mname = ET.SubElement(copies, "MName")
                mname.text = method_name
        for tag, methods in (
            ("Adds_Methods", self.added_methods),
            ("Customizes_Methods", self.customized_methods),
        ):
            if methods:
                section = ET.SubElement(root, tag)
                for method in methods:
                    sig = ET.SubElement(section, "MSign")
                    sig.text = f"{method.name}({', '.join(method.params)})"
                    body = ET.SubElement(section, "MBody")
                    body.text = method.body
        if self.constructor_body:
            ctor = ET.SubElement(root, "Constructor")
            ctor.text = self.constructor_body
        ET.indent(root)
        return ET.tostring(root, encoding="unicode")


def _parse_fields(element: ET.Element) -> list[FieldSpec]:
    fields: list[FieldSpec] = []
    for child in element:
        if child.tag != "Field":
            raise ViewSpecError(
                f"<{element.tag}> may only contain <Field>, got <{child.tag}>"
            )
        fld_name = (child.get("name") or "").strip()
        if not fld_name.isidentifier():
            raise ViewSpecError(f"field name {fld_name!r} is not a valid identifier")
        fields.append(FieldSpec(name=fld_name, type_name=(child.get("type") or "").strip()))
    return fields


def _parse_methods(element: ET.Element) -> list[MethodSpec]:
    """Parse ordered MSign/MBody pairs (the paper's flat layout)."""
    methods: list[MethodSpec] = []
    pending_sig: str | None = None
    for child in element:
        if child.tag == "MSign":
            if pending_sig is not None:
                raise ViewSpecError(
                    f"<MSign>{pending_sig}</MSign> has no matching <MBody>"
                )
            pending_sig = (child.text or "").strip()
        elif child.tag == "MBody":
            if pending_sig is None:
                raise ViewSpecError("<MBody> without a preceding <MSign>")
            methods.append(MethodSpec.parse(pending_sig, (child.text or "").strip()))
            pending_sig = None
        elif child.tag == "Method":
            sig_el = child.find("MSign")
            body_el = child.find("MBody")
            if sig_el is None or body_el is None:
                raise ViewSpecError("<Method> requires <MSign> and <MBody>")
            methods.append(
                MethodSpec.parse(
                    (sig_el.text or "").strip(), (body_el.text or "").strip()
                )
            )
        else:
            raise ViewSpecError(
                f"<{element.tag}> may only contain MSign/MBody pairs, got <{child.tag}>"
            )
    if pending_sig is not None:
        raise ViewSpecError(f"<MSign>{pending_sig}</MSign> has no matching <MBody>")
    return methods
