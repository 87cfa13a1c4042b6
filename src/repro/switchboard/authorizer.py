"""Authorization suites for Switchboard connections (Section 4.3).

"Prior to forming a Switchboard connection, the components at either end
provide their authorization suites — PKI identities (including private
keys for authentication), dRBAC credentials to be supplied to the partner,
and Authorizer objects for evaluating the partner's credentials.
Authorizers generate AuthorizationMonitors, which inform either partner
when the trust relationship changes."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..crypto.keys import Identity, PublicIdentity
from ..drbac.delegation import Delegation
from ..drbac.engine import DrbacEngine
from ..drbac.model import Attributes, EntityRef, Role
from ..drbac.monitor import ProofMonitor
from ..drbac.proof import Proof
from ..errors import HandshakeError

ChangeCallback = Callable[[str], None]
"""Called with the credential id that changed the trust relationship."""


class AuthorizationMonitor:
    """Live view of one partner's authorization state.

    Wraps the dRBAC :class:`~repro.drbac.monitor.ProofMonitor` when a proof
    backs the authorization; trivially valid monitors (accept-all policies)
    have no proof and never fire.
    """

    def __init__(self, proof: Optional[Proof], proof_monitor: Optional[ProofMonitor]) -> None:
        self.proof = proof
        self._proof_monitor = proof_monitor
        self._callbacks: list[ChangeCallback] = []
        if proof_monitor is not None:
            proof_monitor.on_invalidated(self._fire)

    @property
    def valid(self) -> bool:
        return self._proof_monitor is None or self._proof_monitor.valid

    def on_change(self, callback: ChangeCallback) -> None:
        self._callbacks.append(callback)
        if not self.valid and self._proof_monitor is not None:
            invalidated = self._proof_monitor.invalidated_by
            if invalidated is not None:
                callback(invalidated)

    def check_expiry(self, now: float) -> bool:
        """Re-evaluate credential expiry at ``now``; fires change
        callbacks (via the proof monitor) when something lapsed."""
        if self._proof_monitor is None:
            return True
        return self._proof_monitor.check_expiry(now)

    def close(self) -> None:
        if self._proof_monitor is not None:
            self._proof_monitor.close()

    def _fire(self, credential_id: str) -> None:
        for callback in list(self._callbacks):
            callback(credential_id)


class Authorizer:
    """Policy object evaluating a partner's identity and credentials."""

    def authorize(
        self, partner: PublicIdentity, credentials: list[Delegation]
    ) -> AuthorizationMonitor:
        """Return a monitor on success; raise :class:`HandshakeError` when
        the partner is not acceptable."""
        raise NotImplementedError


class AcceptAllAuthorizer(Authorizer):
    """No policy: accept any authenticated partner (test fixtures, and the
    client side of anonymous public services)."""

    def authorize(
        self, partner: PublicIdentity, credentials: list[Delegation]
    ) -> AuthorizationMonitor:
        return AuthorizationMonitor(proof=None, proof_monitor=None)


class RoleAuthorizer(Authorizer):
    """Require the partner to prove possession of a role (with attributes).

    The standard PSF policy: cross-domain partners are acceptable exactly
    when dRBAC can chain their presented credentials to a role local to
    this domain.  The returned monitor tracks every credential in the
    proof, so a mid-session revocation anywhere along the chain invalidates
    the trust relationship.
    """

    def __init__(
        self,
        engine: DrbacEngine,
        required_role: Role | str,
        *,
        required_attributes: Attributes | None = None,
    ) -> None:
        self.engine = engine
        self.required_role = (
            Role.parse(required_role) if isinstance(required_role, str) else required_role
        )
        self.required_attributes = required_attributes

    def authorize(
        self, partner: PublicIdentity, credentials: list[Delegation]
    ) -> AuthorizationMonitor:
        proof = self.engine.find_proof_presenting(
            EntityRef(partner.name),
            self.required_role,
            credentials,
            required_attributes=self.required_attributes,
        )
        if proof is None:
            raise HandshakeError(
                f"partner {partner.name!r} failed to prove {self.required_role}"
            )
        proof_monitor = ProofMonitor(proof.all_delegations(), self.engine.monitor_hub)
        return AuthorizationMonitor(proof=proof, proof_monitor=proof_monitor)


@dataclass
class AuthorizationSuite:
    """Everything one endpoint contributes to a Switchboard handshake."""

    identity: Identity
    credentials: list[Delegation] = field(default_factory=list)
    authorizer: Authorizer = field(default_factory=AcceptAllAuthorizer)
