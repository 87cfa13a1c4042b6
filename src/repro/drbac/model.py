"""Core dRBAC model: entities, roles, and valued attributes.

Terminology follows Section 3 of the paper and the underlying dRBAC paper
(Freudenthal et al., ICDCS 2002):

* An **entity** is a principal (person, component, node, or Guard) named by
  a dotted string such as ``"Comp.NY"`` or ``"Bob"``, identified
  cryptographically by its public key.
* A **role** names an equivalence class of access rights inside one
  entity's namespace: ``Comp.NY.Member`` is role ``Member`` owned by entity
  ``Comp.NY``.
* Delegations may carry **valued attributes** ("with Secure={true,false}
  Trust=(0,10) CPU=100"), which *attenuate* along proof chains: chaining
  never widens a set, interval, or scalar budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Union


@dataclass(frozen=True, slots=True)
class EntityRef:
    """Reference to an entity by its dotted name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or self.name.startswith(".") or self.name.endswith("."):
            raise ValueError(f"invalid entity name: {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Role:
    """A role ``owner.name`` owned by entity ``owner``."""

    owner: str
    name: str

    def __post_init__(self) -> None:
        if not (isinstance(self.owner, str) and isinstance(self.name, str)):
            raise TypeError(f"invalid role: owner={self.owner!r} name={self.name!r}")
        if not self.owner or not self.name or "." in self.name:
            raise ValueError(f"invalid role: owner={self.owner!r} name={self.name!r}")

    def __str__(self) -> str:
        return f"{self.owner}.{self.name}"

    @staticmethod
    def parse(text: str) -> "Role":
        """Parse ``"Comp.NY.Member"`` as owner ``"Comp.NY"``, name ``"Member"``.

        The owner namespace may itself contain dots, so the split is on the
        *last* dot.
        """
        owner, sep, name = text.rpartition(".")
        if not sep or not owner or not name:
            raise ValueError(f"cannot parse role from {text!r}")
        return Role(owner=owner, name=name)


Subject = Union[EntityRef, Role]
"""A delegation subject: either a concrete entity or another role."""


def subject_key(subject: Subject) -> str:
    """Canonical string key for a subject, used by graphs and repositories."""
    return str(subject)


def parse_subject(
    text: str, *, known_entities: Container[str] | None = None
) -> Subject:
    """Parse a subject string, preferring an entity match when known.

    ``"Bob"`` (no dot) is always an entity.  ``"Comp.SD.Member"`` is a role
    unless ``known_entities`` says the whole string names an entity (e.g.
    ``"Comp.SD"`` appearing as a subject in an assignment delegation).
    """
    if known_entities is not None and text in known_entities:
        return EntityRef(text)
    if "." not in text:
        return EntityRef(text)
    return Role.parse(text)


class AttributeValue:
    """Base class for valued attributes. Subclasses define :meth:`meet`."""

    def meet(self, other: "AttributeValue") -> "AttributeValue":
        """Attenuating combination; raises :class:`IncompatibleAttributes`
        when the combination is empty."""
        raise NotImplementedError

    def satisfies(self, requirement: "AttributeValue") -> bool:
        """True when this value is at least as permissive as needed to
        grant ``requirement`` (i.e. requirement ⊆ self)."""
        raise NotImplementedError


class IncompatibleAttributes(ValueError):
    """Raised when attenuation produces an empty attribute value."""


@dataclass(frozen=True, slots=True)
class AttrSet(AttributeValue):
    """Discrete attribute such as ``Secure={true,false}``."""

    values: frozenset

    def __init__(self, values) -> None:
        object.__setattr__(self, "values", frozenset(values))
        if not self.values:
            raise IncompatibleAttributes("empty attribute set")

    def meet(self, other: AttributeValue) -> "AttrSet":
        if not isinstance(other, AttrSet):
            raise IncompatibleAttributes(
                f"cannot combine set attribute with {type(other).__name__}"
            )
        common = self.values & other.values
        if not common:
            raise IncompatibleAttributes(
                f"disjoint attribute sets: {sorted(map(str, self.values))} vs "
                f"{sorted(map(str, other.values))}"
            )
        return AttrSet(common)

    def satisfies(self, requirement: AttributeValue) -> bool:
        return isinstance(requirement, AttrSet) and requirement.values <= self.values

    def __str__(self) -> str:
        # Paper syntax renders booleans lowercase: {true,false}.
        def fmt(v) -> str:
            if isinstance(v, bool):
                return "true" if v else "false"
            return str(v)

        return "{" + ",".join(sorted(fmt(v) for v in self.values)) + "}"


@dataclass(frozen=True, slots=True)
class AttrRange(AttributeValue):
    """Closed numeric interval such as ``Trust=(0,10)``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise IncompatibleAttributes(
                f"empty range ({self.low}, {self.high})"
            )

    def meet(self, other: AttributeValue) -> "AttributeValue":
        if isinstance(other, AttrRange):
            return AttrRange(max(self.low, other.low), min(self.high, other.high))
        if isinstance(other, AttrScalar):
            if self.low <= other.value <= self.high:
                return other
            raise IncompatibleAttributes(
                f"scalar {other.value} outside range ({self.low}, {self.high})"
            )
        raise IncompatibleAttributes(
            f"cannot combine range attribute with {type(other).__name__}"
        )

    def satisfies(self, requirement: AttributeValue) -> bool:
        if isinstance(requirement, AttrRange):
            return self.low <= requirement.low and requirement.high <= self.high
        if isinstance(requirement, AttrScalar):
            return self.low <= requirement.value <= self.high
        return False

    def __str__(self) -> str:
        return f"({_fmt_num(self.low)},{_fmt_num(self.high)})"


@dataclass(frozen=True, slots=True)
class AttrScalar(AttributeValue):
    """A single numeric budget such as ``CPU=100``.

    Scalars attenuate by ``min``: a component granted CPU=100 locally and
    re-delegated with CPU=80 may consume at most 80 (credential 14 in
    Table 2).
    """

    value: float

    def meet(self, other: AttributeValue) -> "AttributeValue":
        if isinstance(other, AttrScalar):
            return AttrScalar(min(self.value, other.value))
        if isinstance(other, AttrRange):
            return other.meet(self)
        raise IncompatibleAttributes(
            f"cannot combine scalar attribute with {type(other).__name__}"
        )

    def satisfies(self, requirement: AttributeValue) -> bool:
        if isinstance(requirement, AttrScalar):
            return requirement.value <= self.value
        return False

    def __str__(self) -> str:
        return _fmt_num(self.value)


def _fmt_num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else str(x)


Attributes = dict[str, AttributeValue]
"""Attribute map attached to a delegation, keyed by attribute name."""


def meet_attributes(a: Attributes, b: Attributes) -> Attributes:
    """Attenuate two attribute maps along a proof chain.

    Keys present in only one map pass through unchanged (the delegation
    that omits an attribute places no additional restriction on it); shared
    keys combine via :meth:`AttributeValue.meet`.
    """
    out: Attributes = dict(a)
    for key, value in b.items():
        if key in out:
            out[key] = out[key].meet(value)
        else:
            out[key] = value
    return out


def attributes_satisfy(available: Attributes, required: Attributes) -> bool:
    """True when every required attribute is covered by the available map."""
    for key, requirement in required.items():
        value = available.get(key)
        if value is None or not value.satisfies(requirement):
            return False
    return True


def parse_attribute(text: str) -> AttributeValue:
    """Parse the paper's attribute syntax.

    * ``{true,false}`` → :class:`AttrSet`
    * ``(0,10)``       → :class:`AttrRange`
    * ``100``          → :class:`AttrScalar`
    * anything else    → single-element :class:`AttrSet`
    """
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        items = [_coerce(v) for v in text[1:-1].split(",") if v.strip()]
        return AttrSet(items)
    if text.startswith("(") and text.endswith(")"):
        parts = [p.strip() for p in text[1:-1].split(",")]
        if len(parts) != 2:
            raise ValueError(f"range attribute needs two bounds: {text!r}")
        return AttrRange(float(parts[0]), float(parts[1]))
    try:
        return AttrScalar(float(text))
    except ValueError:
        return AttrSet([_coerce(text)])


def _coerce(token: str):
    token = token.strip()
    if token.lower() == "true":
        return True
    if token.lower() == "false":
        return False
    try:
        return float(token) if "." in token else int(token)
    except ValueError:
        return token
