"""Levels of service (§2.2).

"The mail application offers different levels of QoS, where each level is
defined by the number of processed requests and the message privacy.  PSF
ensures that clients receive the required level of service by assembling
and deploying components. ... the planning module takes into consideration
the client credentials ... to generate a deployment that achieves the
desired level of service."

A :class:`ServiceLevel` names one QoS tier; a :class:`QosPolicy` maps
dRBAC roles onto tiers the same way Table 4 maps roles onto views, so a
client's *provable credentials* select the QoS its deployments must meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..drbac.delegation import Delegation
from ..drbac.engine import DrbacEngine
from ..drbac.model import EntityRef, Role
from .planner import EdgeRequirement, ServiceRequest


@dataclass(frozen=True, slots=True)
class ServiceLevel:
    """One named QoS tier."""

    name: str
    privacy: bool = False
    min_bandwidth_bps: float = 0.0
    max_latency_s: float = math.inf
    channel: str = "any"

    def edge_requirement(self) -> EdgeRequirement:
        return EdgeRequirement(
            privacy=self.privacy,
            min_bandwidth_bps=self.min_bandwidth_bps,
            max_latency_s=self.max_latency_s,
            channel=self.channel,
        )


@dataclass(frozen=True, slots=True)
class QosRule:
    role: Optional[Role]
    level: ServiceLevel

    @property
    def is_default(self) -> bool:
        return self.role is None


class QosPolicy:
    """Ordered role→service-level rules; first provable role wins."""

    def __init__(self, service: str) -> None:
        self.service = service
        self._rules: list[QosRule] = []

    def offer(self, role: Role | str | None, level: ServiceLevel) -> "QosPolicy":
        """Append a tier; ``role=None`` / "others" is the floor tier."""
        if isinstance(role, str):
            role = None if role.lower() == "others" else Role.parse(role)
        if self._rules and self._rules[-1].is_default:
            raise ValueError(
                f"QoS policy for {self.service}: no rules may follow the "
                f"'others' default"
            )
        self._rules.append(QosRule(role=role, level=level))
        return self

    def rules(self) -> list[QosRule]:
        return list(self._rules)

    def resolve(
        self,
        client: str,
        engine: DrbacEngine,
        credentials: Iterable[Delegation] | None = None,
    ) -> Optional[ServiceLevel]:
        """The best tier the client's credentials prove."""
        presented = list(credentials or ())
        subject = EntityRef(client)
        for rule in self._rules:
            if rule.is_default:
                return rule.level
            assert rule.role is not None
            if engine.find_proof_presenting(subject, rule.role, presented) is not None:
                return rule.level
        return None

    def request_for(
        self,
        client: str,
        client_node: str,
        interface: str,
        engine: DrbacEngine,
        credentials: Iterable[Delegation] | None = None,
    ) -> ServiceRequest:
        """Build the ServiceRequest for the client's provable tier.

        Raises :class:`~repro.errors.AuthorizationError` when no tier
        (not even a default) admits the client.
        """
        level = self.resolve(client, engine, credentials)
        if level is None:
            from ..errors import AuthorizationError

            raise AuthorizationError(
                f"client {client!r} qualifies for no service level of "
                f"{self.service!r}"
            )
        return ServiceRequest(
            client=client,
            client_node=client_node,
            interface=interface,
            qos=level.edge_requirement(),
        )
