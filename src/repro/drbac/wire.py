"""Wire (de)serialization for credentials and public identities.

Switchboard handshakes carry dRBAC credentials and RSA public keys across
the simulated network; this module defines the JSON-compatible encoding.
Signatures survive the round trip because :meth:`Delegation.signing_bytes`
is computed from semantic fields only.
"""

from __future__ import annotations

from typing import Any

from ..crypto.keys import PublicIdentity
from ..crypto.rsa import RsaPublicKey
from ..errors import CredentialError
from .delegation import Delegation, DelegationType
from .model import (
    AttrRange,
    AttrScalar,
    AttrSet,
    Attributes,
    AttributeValue,
    EntityRef,
    Role,
    Subject,
)


def attribute_to_wire(value: AttributeValue) -> dict[str, Any]:
    if isinstance(value, AttrSet):
        return {"kind": "set", "values": sorted(value.values, key=repr)}
    if isinstance(value, AttrRange):
        return {"kind": "range", "low": value.low, "high": value.high}
    if isinstance(value, AttrScalar):
        return {"kind": "scalar", "value": value.value}
    raise TypeError(f"cannot serialize attribute {type(value).__name__}")


def attribute_from_wire(data: dict[str, Any]) -> AttributeValue:
    kind = data.get("kind")
    if kind == "set":
        return AttrSet(data["values"])
    if kind == "range":
        return AttrRange(data["low"], data["high"])
    if kind == "scalar":
        return AttrScalar(data["value"])
    raise CredentialError(f"unknown attribute kind {kind!r}")


def subject_to_wire(subject: Subject) -> dict[str, str]:
    if isinstance(subject, EntityRef):
        return {"kind": "entity", "name": subject.name}
    return {"kind": "role", "owner": subject.owner, "name": subject.name}


def subject_from_wire(data: dict[str, str]) -> Subject:
    if data["kind"] == "entity":
        return EntityRef(data["name"])
    if data["kind"] == "role":
        return Role(owner=data["owner"], name=data["name"])
    raise CredentialError(f"unknown subject kind {data.get('kind')!r}")


def delegation_to_wire(delegation: Delegation) -> dict[str, Any]:
    return {
        "subject": subject_to_wire(delegation.subject),
        "role": {"owner": delegation.role.owner, "name": delegation.role.name},
        "issuer": delegation.issuer,
        "type": delegation.delegation_type.value,
        "attributes": {
            name: attribute_to_wire(value)
            for name, value in delegation.attributes.items()
        },
        "expires_at": delegation.expires_at,
        "requires_monitoring": delegation.requires_monitoring,
        "home": delegation.home,
        "id": delegation.credential_id,
        "signature": delegation.signature.hex(),
    }


def delegation_from_wire(data: dict[str, Any]) -> Delegation:
    try:
        attributes: Attributes = {
            name: attribute_from_wire(value)
            for name, value in data.get("attributes", {}).items()
        }
        return Delegation(
            subject=subject_from_wire(data["subject"]),
            role=Role(owner=data["role"]["owner"], name=data["role"]["name"]),
            issuer=data["issuer"],
            delegation_type=DelegationType(data["type"]),
            attributes=attributes,
            expires_at=data.get("expires_at"),
            requires_monitoring=data.get("requires_monitoring", False),
            home=data.get("home"),
            credential_id=data["id"],
            signature=bytes.fromhex(data["signature"]),
        )
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        raise CredentialError(f"malformed credential on the wire: {exc}") from exc


def public_identity_to_wire(identity: PublicIdentity) -> dict[str, Any]:
    return {
        "name": identity.name,
        "n": hex(identity.public_key.n),
        "e": identity.public_key.e,
    }


def public_identity_from_wire(data: dict[str, Any]) -> PublicIdentity:
    try:
        name = data["name"]
        public_key = RsaPublicKey(n=int(data["n"], 16), e=int(data["e"]))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise CredentialError(f"malformed identity on the wire: {exc}") from exc
    if not isinstance(name, str):
        raise CredentialError(f"malformed identity on the wire: name {name!r}")
    return PublicIdentity(name=name, public_key=public_key)
