"""Constraint queries: using credentials as statements (Section 3.2).

"A dRBAC credential that grants the permissions associated with an Object
role to a Subject role can also be interpreted as the statement that 'it is
true that Subject **is an** Object'. ... Constraints are specified in terms
of dRBAC system queries: 'is X a Y?'"

This is the mechanism PSF uses to translate *network-level* properties
(``Comp.SD.PC`` is a ``Dell.SuSe``) into *application-level* properties
(``Dell.SuSe`` is a ``Mail.Node`` with ``Secure={true,false}``
``Trust=(0,7)``) without either domain knowing the other's vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Attributes, Role, parse_attribute


@dataclass(frozen=True, slots=True)
class Constraint:
    """A requirement "X must possess role Y (with attributes ...)"."""

    role: Role
    required_attributes: Attributes = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.required_attributes is None:
            object.__setattr__(self, "required_attributes", {})

    @staticmethod
    def parse(text: str) -> "Constraint":
        """Parse ``"Mail.Node with Secure={true} Trust=(5,10)"``."""
        head, _, tail = text.partition(" with ")
        role = Role.parse(head.strip())
        attributes: Attributes = {}
        if tail:
            for token in tail.split():
                name, _, value = token.partition("=")
                if not value:
                    raise ValueError(f"malformed attribute token: {token!r}")
                attributes[name] = parse_attribute(value)
        return Constraint(role=role, required_attributes=attributes)

    def __str__(self) -> str:
        attrs = ""
        if self.required_attributes:
            attrs = " with " + " ".join(
                f"{k}={v}" for k, v in sorted(self.required_attributes.items())
            )
        return f"{self.role}{attrs}"
