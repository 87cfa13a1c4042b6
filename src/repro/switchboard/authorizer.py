"""Authorization suites for Switchboard connections (Section 4.3).

"Prior to forming a Switchboard connection, the components at either end
provide their authorization suites — PKI identities (including private
keys for authentication), dRBAC credentials to be supplied to the partner,
and Authorizer objects for evaluating the partner's credentials."

The paper's authorizers then generate authorization monitors, "which
inform either partner when the trust relationship changes".  Here that
monitor is the dRBAC :class:`~repro.drbac.monitor.ProofMonitor` an
authorizer returns: it watches every credential of the partner's proof
in the engine's revocation directory and fires ``on_invalidated`` on the
first revocation or lapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.keys import Identity, PublicIdentity
from ..drbac.delegation import Delegation
from ..drbac.engine import DrbacEngine
from ..drbac.model import Attributes, EntityRef, Role
from ..drbac.monitor import ProofMonitor, RevocationDirectory
from ..errors import HandshakeError


class Authorizer:
    """Policy object evaluating a partner's identity and credentials."""

    def authorize(
        self, partner: PublicIdentity, credentials: list[Delegation]
    ) -> ProofMonitor:
        """Return a monitor on success; raise :class:`HandshakeError` when
        the partner is not acceptable."""
        raise NotImplementedError


class AcceptAllAuthorizer(Authorizer):
    """No policy: accept any authenticated partner (test fixtures, and the
    client side of anonymous public services)."""

    def authorize(
        self, partner: PublicIdentity, credentials: list[Delegation]
    ) -> ProofMonitor:
        return ProofMonitor([], RevocationDirectory())


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
    ) -> ProofMonitor:
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
        return ProofMonitor(proof.all_delegations(), self.engine.revocations)


@dataclass
class AuthorizationSuite:
    """Everything one endpoint contributes to a Switchboard handshake."""

    identity: Identity
    credentials: list[Delegation] = field(default_factory=list)
    authorizer: Authorizer = field(default_factory=AcceptAllAuthorizer)
