"""Role → view access-control policy (Table 4).

"Access control lists can be established, per component, which specify the
level of service (the view) associated with a given dRBAC role. ... such
policy can be established using only roles within the local namespace:
cross-domain requests are first translated by dRBAC into local roles
before any access control decisions are made."

Rules are evaluated in declaration order; the first role the client can
prove wins.  The ``others`` rule (role ``None``) is the anonymous default
(Table 4's ``ViewMailClient_Anonymous``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .. import obs
from ..drbac.delegation import Delegation
from ..drbac.engine import DrbacEngine
from ..drbac.model import Attributes, EntityRef, Role
from ..drbac.proof import Proof


@dataclass(frozen=True, slots=True)
class AccessRule:
    """One Table 4 row: a local role mapped to a view name."""

    role: Optional[Role]
    view_name: str
    required_attributes: Attributes = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.required_attributes is None:
            object.__setattr__(self, "required_attributes", {})

    @property
    def is_default(self) -> bool:
        return self.role is None


@dataclass(slots=True)
class AccessDecision:
    """The resolved view for a client, plus the proof that earned it."""

    view_name: str
    rule: AccessRule
    proof: Optional[Proof]
    """None for the anonymous default rule."""


class ViewAccessPolicy:
    """Ordered role→view rules for one component."""

    def __init__(self, component: str) -> None:
        self.component = component
        self._rules: list[AccessRule] = []

    def allow(
        self,
        role: Role | str | None,
        view_name: str,
        *,
        required_attributes: Attributes | None = None,
    ) -> "ViewAccessPolicy":
        """Append a rule; ``role=None`` (or the string "others") is the
        anonymous default and must come last."""
        if isinstance(role, str):
            role = None if role.lower() == "others" else Role.parse(role)
        if self._rules and self._rules[-1].is_default:
            raise ValueError(
                f"policy for {self.component}: no rules may follow the "
                f"'others' default"
            )
        self._rules.append(
            AccessRule(
                role=role,
                view_name=view_name,
                required_attributes=required_attributes or {},
            )
        )
        return self

    def rules(self) -> list[AccessRule]:
        return list(self._rules)

    def resolve(
        self,
        client: str,
        engine: DrbacEngine,
        credentials: Iterable[Delegation] | None = None,
    ) -> Optional[AccessDecision]:
        """Pick the view for ``client`` by first provable role.

        Cross-domain clients succeed exactly when dRBAC can chain their
        credentials to one of the policy's local roles.  Returns ``None``
        when no rule applies and there is no anonymous default.
        """
        presented = list(credentials) if credentials is not None else None
        with obs.span(
            "views.acl.resolve", component=self.component, client=client
        ) as span:
            for rule in self._rules:
                if rule.is_default:
                    span.set(view=rule.view_name, rule="others")
                    self._audit(client, rule, proof=None)
                    return AccessDecision(
                        view_name=rule.view_name, rule=rule, proof=None
                    )
                assert rule.role is not None
                if presented is None:
                    # Repository-backed query: ``prove`` serves it from the
                    # incremental engine's maintained reachability when the
                    # graph allows, falling back to harvest + full search.
                    proof = engine.prove(
                        EntityRef(client),
                        rule.role,
                        required_attributes=rule.required_attributes or None,
                    )
                else:
                    proof = engine.find_proof_presenting(
                        EntityRef(client),
                        rule.role,
                        presented,
                        required_attributes=rule.required_attributes or None,
                    )
                if proof is not None:
                    span.set(view=rule.view_name, rule=str(rule.role))
                    self._audit(client, rule, proof=proof)
                    return AccessDecision(
                        view_name=rule.view_name, rule=rule, proof=proof
                    )
            span.set(view=None)
            obs.event(
                "view.resolve", component=self.component, principal=client,
                verdict="none",
            )
            return None

    def _audit(
        self, client: str, rule: AccessRule, *, proof: Optional[Proof]
    ) -> None:
        obs.event(
            "view.resolve", component=self.component, principal=client,
            view=rule.view_name,
            role="others" if rule.is_default else str(rule.role),
            chain=len(proof.chain) if proof is not None else 0,
            verdict="grant",
        )
