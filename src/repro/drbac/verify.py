"""Independent proof verification.

The proof *engine* searches for proofs; this module implements the other
half of the §3.1 contract — a verifier that, given a :class:`Proof`,
re-establishes from first principles that it is sound:

1. every credential is authentic (issuer signature), unexpired, unrevoked;
2. the membership chain is *connected*: it starts at the claimed subject,
   each link's role equals the next link's subject, and it ends at the
   claimed role;
3. no membership link is an assignment credential;
4. every third-party link's issuer holds the right of assignment for the
   link's role, provable from the proof's own support set;
5. the claimed attributes equal the attenuated meet along the chain.

The verifier shares no code with the search (it re-derives everything), so
tests can use it adversarially: every proof any search strategy returns
must verify, and every mutation of a valid proof must fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..crypto.keys import KeyStore, PublicIdentity
from .delegation import Delegation, DelegationType
from .model import (
    Attributes,
    EntityRef,
    IncompatibleAttributes,
    Role,
    meet_attributes,
    subject_key,
)
from .monitor import RevocationDirectory
from .proof import Proof


@dataclass(slots=True)
class VerificationResult:
    """Outcome of a verification pass."""

    ok: bool
    errors: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class ProofVerifier:
    """Re-derives the validity of a finished proof."""

    def __init__(
        self,
        identities: Mapping[str, PublicIdentity] | KeyStore,
        revocations: RevocationDirectory | None = None,
        *,
        now: float = 0.0,
    ) -> None:
        self._identities = identities
        self._revocations = revocations or RevocationDirectory()
        self._now = now

    def verify(self, proof: Proof) -> VerificationResult:
        errors: list[str] = []
        self._check_credentials(proof, errors)
        self._check_chain_shape(proof, errors)
        self._check_issuer_authority(proof, errors)
        self._check_attributes(proof, errors)
        return VerificationResult(ok=not errors, errors=errors)

    def require_valid(self, proof: Proof) -> None:
        result = self.verify(proof)
        if not result.ok:
            from ..errors import AuthorizationError

            raise AuthorizationError(
                "proof verification failed: " + "; ".join(result.errors)
            )

    # -- checks ------------------------------------------------------------

    def _check_credentials(self, proof: Proof, errors: list[str]) -> None:
        for delegation in proof.all_delegations():
            identity = self._identities.get(delegation.issuer)
            if identity is None:
                errors.append(
                    f"{delegation.credential_id}: unknown issuer {delegation.issuer!r}"
                )
                continue
            if not delegation.verify_signature(identity):
                errors.append(f"{delegation.credential_id}: signature invalid")
            if delegation.is_expired(self._now):
                errors.append(f"{delegation.credential_id}: expired")
            if self._revocations.is_revoked(delegation):
                errors.append(f"{delegation.credential_id}: revoked")

    def _check_chain_shape(self, proof: Proof, errors: list[str]) -> None:
        if not proof.chain:
            errors.append("empty membership chain")
            return
        first = proof.chain[0]
        if subject_key(first.subject) != subject_key(proof.subject):
            errors.append(
                f"chain starts at {subject_key(first.subject)!r}, "
                f"not the claimed subject {subject_key(proof.subject)!r}"
            )
        for prev, nxt in zip(proof.chain, proof.chain[1:]):
            if not isinstance(nxt.subject, Role) or str(prev.role) != str(nxt.subject):
                errors.append(
                    f"chain broken between {prev.credential_id} "
                    f"({prev.role}) and {nxt.credential_id} "
                    f"({subject_key(nxt.subject)})"
                )
        last = proof.chain[-1]
        if str(last.role) != str(proof.role):
            errors.append(
                f"chain ends at {last.role}, not the claimed role {proof.role}"
            )
        for delegation in proof.chain:
            if delegation.grants_assignment_right:
                errors.append(
                    f"{delegation.credential_id}: assignment credential used "
                    f"as a membership link"
                )

    def _check_issuer_authority(self, proof: Proof, errors: list[str]) -> None:
        support = proof.support
        for delegation in proof.chain:
            if delegation.delegation_type is DelegationType.SELF_CERTIFYING:
                if delegation.issuer != delegation.role.owner:
                    errors.append(
                        f"{delegation.credential_id}: labelled self-certifying "
                        f"but issuer does not own the role"
                    )
                continue
            if delegation.delegation_type is DelegationType.THIRD_PARTY:
                if not self._assignment_provable(
                    EntityRef(delegation.issuer), delegation.role, support, proof, set()
                ):
                    errors.append(
                        f"{delegation.credential_id}: third-party issuer "
                        f"{delegation.issuer!r} has no assignment-right chain "
                        f"for {delegation.role} in the support set"
                    )

    def _assignment_provable(
        self,
        holder: EntityRef | Role,
        role: Role,
        support: list[Delegation],
        proof: Proof,
        seen: set[str],
    ) -> bool:
        """Check the support set contains an assignment chain for holder."""
        key = f"{subject_key(holder)}|{role}"
        if key in seen:
            return False
        seen = seen | {key}
        for delegation in support:
            if not delegation.grants_assignment_right:
                continue
            if str(delegation.role) != str(role):
                continue
            issuer_ok = delegation.issuer == delegation.role.owner or (
                self._assignment_provable(
                    EntityRef(delegation.issuer), role, support, proof, seen
                )
            )
            if not issuer_ok:
                continue
            if subject_key(delegation.subject) == subject_key(holder):
                return True
            if isinstance(delegation.subject, Role):
                # Membership of the subject role must be provable from the
                # proof's own credential pool.
                pool = proof.all_delegations()
                if self._membership_provable(holder, delegation.subject, pool, set()):
                    return True
        return False

    def _membership_provable(
        self,
        subject: EntityRef | Role,
        role: Role,
        pool: list[Delegation],
        seen: set[str],
    ) -> bool:
        key = f"{subject_key(subject)}|{role}"
        if key in seen:
            return False
        seen = seen | {key}
        for delegation in pool:
            if delegation.grants_assignment_right:
                continue
            if str(delegation.role) != str(role):
                continue
            if subject_key(delegation.subject) == subject_key(subject):
                return True
            if isinstance(delegation.subject, Role) and self._membership_provable(
                subject, delegation.subject, pool, seen
            ):
                return True
        return False

    def _check_attributes(self, proof: Proof, errors: list[str]) -> None:
        try:
            expected: Attributes = {}
            for delegation in proof.chain:
                expected = meet_attributes(expected, delegation.attributes)
        except IncompatibleAttributes as exc:
            errors.append(f"chain attributes are incompatible: {exc}")
            return
        if set(expected) != set(proof.attributes):
            errors.append(
                f"claimed attribute keys {sorted(proof.attributes)} differ "
                f"from derived {sorted(expected)}"
            )
            return
        for name, value in expected.items():
            if str(proof.attributes[name]) != str(value):
                errors.append(
                    f"attribute {name}: claimed {proof.attributes[name]}, "
                    f"derived {value}"
                )
