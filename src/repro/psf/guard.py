"""Per-domain Guard modules (Section 3.3).

"Beside the main modules — registrar, monitor, planner, deployer — the
framework has a security module (*Guard*) that manages the site security
by generating certificates, defining roles, creating access control
lists, authenticating, and authorizing."

Each Guard owns one domain entity name (e.g. ``Comp.NY``) and issues the
credentials of Table 2 on its behalf: user-auth delegations for clients,
node-auth delegations mapping hardware facts onto local roles, and
component-auth delegations (the ``<domain>.Executable`` roles with CPU
budgets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..drbac.delegation import Delegation
from ..drbac.engine import DrbacEngine
from ..drbac.model import AttrScalar, Attributes, EntityRef, Role, Subject
from ..drbac.query import Constraint


class Guard:
    """Security authority for one administrative domain."""

    def __init__(
        self,
        engine: DrbacEngine,
        domain: str,
        *,
        executable_cpu_limit: float | None = None,
    ) -> None:
        self.engine = engine
        self.domain = domain
        self.issued: list[Delegation] = []
        self._executable_cpu_limit = executable_cpu_limit
        self._challenges: dict[str, bytes] = {}
        # Materialize the domain's signing identity up front.
        engine.identity(domain)

    # -- roles ---------------------------------------------------------------

    def role(self, name: str) -> Role:
        """A role in this Guard's namespace (``<domain>.<name>``)."""
        return Role(owner=self.domain, name=name)

    @property
    def executable_role(self) -> Role:
        """The role components must prove to run in this domain (§3.3)."""
        return self.role("Executable")

    # -- certificate generation ------------------------------------------------

    def certify(
        self,
        subject: Subject | str,
        role: Role | str,
        *,
        assignment: bool = False,
        attributes: Attributes | None = None,
        expires_at: float | None = None,
        requires_monitoring: bool = False,
    ) -> Delegation:
        """Issue a delegation signed by this domain."""
        delegation = self.engine.delegate(
            self.domain,
            subject,
            role,
            assignment=assignment,
            attributes=attributes,
            expires_at=expires_at,
            requires_monitoring=requires_monitoring,
        )
        self.issued.append(delegation)
        return delegation

    def certify_member(self, client: str) -> Delegation:
        """User auth: [client -> domain.Member] domain (Table 2 rows 1/11/15)."""
        return self.certify(EntityRef(client), self.role("Member"))

    def map_role(
        self,
        foreign: Role | str,
        local_role_name: str,
        *,
        attributes: Attributes | None = None,
    ) -> Delegation:
        """Cross-domain mapping: [foreign -> domain.local] domain (row 2)."""
        return self.certify(foreign, self.role(local_role_name), attributes=attributes)

    def grant_assignment(self, subject: Subject | str, role_name: str) -> Delegation:
        """Right-of-assignment: [subject -> domain.role'] domain (row 3)."""
        return self.certify(subject, self.role(role_name), assignment=True)

    def accept_executables(
        self,
        foreign_executable: Role | str,
        *,
        cpu: float,
    ) -> Delegation:
        """Component auth: map a foreign Executable role onto the local one
        with an attenuated CPU budget (Table 2 rows 14/17)."""
        return self.certify(
            foreign_executable,
            self.executable_role,
            attributes={"CPU": AttrScalar(cpu)},
        )

    # -- authentication (§3.3: Guards "authenticat[e]") --------------------------

    def challenge(self, principal: str) -> bytes:
        """Issue a fresh authentication challenge for ``principal``."""
        import secrets

        nonce = secrets.token_bytes(16)
        self._challenges[principal] = nonce
        return b"guard-auth|" + self.domain.encode() + b"|" + nonce

    def verify_response(self, principal: str, signature: bytes) -> bool:
        """Check the principal signed our outstanding challenge.

        One-shot: the challenge is consumed whether or not verification
        succeeds, so a captured signature cannot be replayed later.
        """
        nonce = self._challenges.pop(principal, None)
        if nonce is None:
            return False
        challenge = b"guard-auth|" + self.domain.encode() + b"|" + nonce
        if principal not in self.engine.key_store:
            return False
        return self.engine.public_identity(principal).verify(challenge, signature)

    def authenticate(self, principal: str, sign) -> bool:
        """Full round trip given the principal's signing function."""
        challenge = self.challenge(principal)
        return self.verify_response(principal, sign(challenge))

    # -- authorization ------------------------------------------------------------

    def authorize_client(
        self,
        client: str,
        role: Role | str,
        credentials: list[Delegation] | None = None,
    ):
        """Authenticate+authorize a client for a local role; returns a
        monitored :class:`~repro.drbac.engine.AuthorizationResult`."""
        return self.engine.authorize(EntityRef(client), role, credentials)

    def node_satisfies(
        self, node_entity: str, constraint: Constraint | str
    ) -> bool:
        """The node-authorization query of §3.3: map node properties onto
        application properties via a credential chain."""
        return self.engine.is_a(node_entity, constraint) is not None

    def component_cpu_budget(
        self, component_role: Role | str
    ) -> Optional[float]:
        """CPU budget a component holding ``component_role`` gets here.

        Returns the attenuated CPU attribute from the proof chain to this
        domain's Executable role, or ``None`` when the component is not
        authorized at all.
        """
        if isinstance(component_role, str):
            component_role = Role.parse(component_role)
        proof = self.engine.find_proof(component_role, self.executable_role)
        if proof is None:
            return None
        cpu = proof.attributes.get("CPU")
        if isinstance(cpu, AttrScalar):
            return cpu.value
        return float("inf")
