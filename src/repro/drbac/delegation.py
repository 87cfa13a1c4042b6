"""dRBAC delegations: the three credential types of Table 1.

=================  =====================================================
Self-certifying    ``[ Subject -> Issuer.Role ] Issuer`` — the issuer owns
                   the role's namespace, so its signature alone proves the
                   statement.
Third-party        ``[ Subject -> Entity.Role ] Issuer`` with Issuer ≠
                   Entity — additionally requires evidence that the issuer
                   holds the *right of assignment* for ``Entity.Role``.
Assignment         ``[ Subject -> Entity.Role' ] Issuer`` — grants the
                   subject the right of assignment for ``Entity.Role``
                   (the trailing ``'`` of the paper).
=================  =====================================================

Every delegation is cryptographically signed over a canonical byte
encoding; tampering with any field invalidates the signature.  Credentials
may carry an expiration time and may request online validity monitoring
from their home (Section 3.1), which :mod:`repro.drbac.monitor` implements.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping, Optional

from ..crypto.keys import Identity, PublicIdentity
from .model import (
    AttrRange,
    AttrScalar,
    AttrSet,
    Attributes,
    AttributeValue,
    EntityRef,
    Role,
    Subject,
    subject_key,
)

_serial = itertools.count(1)


class DelegationType(enum.Enum):
    """The three dRBAC credential types (Table 1)."""

    SELF_CERTIFYING = "self-certifying"
    THIRD_PARTY = "third-party"
    ASSIGNMENT = "assignment"


def _number(value) -> bool:
    return type(value) in (int, float) and value == value  # a bool or NaN is not


def _attr_to_json(value: AttributeValue):
    if isinstance(value, AttrSet):
        return {"kind": "set", "values": sorted(map(repr, value.values))}
    if isinstance(value, AttrRange) and _number(value.low) and _number(value.high):
        return {"kind": "range", "low": value.low, "high": value.high}
    if isinstance(value, AttrScalar) and _number(value.value):
        return {"kind": "scalar", "value": value.value}
    raise TypeError(f"ill-typed attribute value: {value!r}")


@dataclass(frozen=True, slots=True)
class Delegation:
    """One signed dRBAC credential, and a hashable value: no field changes
    after construction, so a wire-decoded copy equals its original.

    Attributes:
        subject: the entity or role receiving the rights.
        role: the role whose rights are conveyed (``Entity.Role``).
        issuer: dotted name of the signing entity.
        delegation_type: one of the Table 1 types.  ``ASSIGNMENT`` conveys
            the right of assignment (the paper's trailing ``'``) rather
            than membership itself.
        attributes: valued attributes attached ``with Attr=Val ...``, as a
            read-only mapping over a private copy.
        expires_at: absolute expiry on the virtual clock, or ``None``.
        requires_monitoring: when True, verifiers must hold an online
            validity monitor from the credential's home.
        home: entity responsible for revocation state (defaults to issuer).
        credential_id: unique id used by repositories and revocation.
        signature: issuer's RSA signature over :meth:`signing_bytes`.

    An ill-typed field raises :class:`TypeError`, so a malformed credential
    off the wire is refused when decoded, not in the middle of a search.
    """

    subject: Subject
    role: Role
    issuer: str
    delegation_type: DelegationType
    attributes: Mapping[str, AttributeValue] = field(default_factory=dict)
    expires_at: Optional[float] = None
    requires_monitoring: bool = False
    home: Optional[str] = None
    credential_id: str = ""
    signature: bytes = b""
    _signed: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, ok in (
            ("issuer", isinstance(self.issuer, str)),
            ("expires_at", self.expires_at is None or _number(self.expires_at)),
            ("requires_monitoring", isinstance(self.requires_monitoring, bool)),
            ("home", self.home is None or isinstance(self.home, str)),
            ("credential_id", isinstance(self.credential_id, str)),
            ("signature", isinstance(self.signature, bytes)),
        ):
            if not ok:
                raise TypeError(f"delegation {name}: {getattr(self, name)!r}")
        object.__setattr__(self, "attributes", MappingProxyType(dict(self.attributes)))
        # Encoding the attributes type-checks their values.
        object.__setattr__(self, "_signed", self._canonical_bytes())

    def __hash__(self) -> int:
        return hash((self._signed, self.signature))

    @property
    def home_entity(self) -> str:
        return self.home if self.home is not None else self.issuer

    @property
    def grants_assignment_right(self) -> bool:
        return self.delegation_type is DelegationType.ASSIGNMENT

    def signing_bytes(self) -> bytes:
        """Canonical byte encoding covering every semantic field."""
        return self._signed

    def _canonical_bytes(self) -> bytes:
        payload = {
            "v": 1,
            "subject": subject_key(self.subject),
            "subject_kind": "entity" if isinstance(self.subject, EntityRef) else "role",
            "role": str(self.role),
            "issuer": self.issuer,
            "type": self.delegation_type.value,
            "attributes": {
                name: _attr_to_json(value)
                for name, value in sorted(self.attributes.items())
            },
            "expires_at": self.expires_at,
            "requires_monitoring": self.requires_monitoring,
            "home": self.home_entity,
            "id": self.credential_id,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()

    def verify_signature(self, issuer_identity: PublicIdentity | None) -> bool:
        """Check the issuer signature; an unknown issuer (``None``) fails."""
        if issuer_identity is None or issuer_identity.name != self.issuer:
            return False
        return issuer_identity.verify(self.signing_bytes(), self.signature)

    def is_expired(self, now: float) -> bool:
        return self.expires_at is not None and now > self.expires_at

    def __str__(self) -> str:
        mark = "'" if self.grants_assignment_right else ""
        attrs = ""
        if self.attributes:
            attrs = " with " + " ".join(
                f"{k}={v}" for k, v in sorted(self.attributes.items())
            )
        return f"[ {subject_key(self.subject)} -> {self.role}{mark}{attrs} ] {self.issuer}"


def classify(subject: Subject, role: Role, issuer: str, *, assignment: bool) -> DelegationType:
    """Derive the Table 1 type from the delegation's shape."""
    if assignment:
        return DelegationType.ASSIGNMENT
    if issuer == role.owner:
        return DelegationType.SELF_CERTIFYING
    return DelegationType.THIRD_PARTY


def issue(
    issuer_identity: Identity,
    subject: Subject,
    role: Role,
    *,
    assignment: bool = False,
    attributes: Attributes | None = None,
    expires_at: float | None = None,
    requires_monitoring: bool = False,
    home: str | None = None,
    credential_id: str | None = None,
) -> Delegation:
    """Create and sign a delegation.

    The delegation type is derived from the shape (issuer vs role owner,
    assignment flag) exactly as Table 1 defines.
    """
    delegation_type = classify(subject, role, issuer_identity.name, assignment=assignment)
    if credential_id is None:
        credential_id = f"cred-{next(_serial)}"
    unsigned = Delegation(
        subject=subject,
        role=role,
        issuer=issuer_identity.name,
        delegation_type=delegation_type,
        attributes=attributes or {},
        expires_at=expires_at,
        requires_monitoring=requires_monitoring,
        home=home,
        credential_id=credential_id,
    )
    return replace(unsigned, signature=issuer_identity.sign(unsigned.signing_bytes()))
