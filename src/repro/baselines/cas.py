"""CAS-style baseline: community authorization (§5, related work).

"CAS (Community Authorization Service) divides the users into communities
such that all providers know about communities only.  In this way, CAS
improves the memory storage to C x (P + U), where C is the number of
communities."

Each community server stores one membership record per user in the
community, and each provider stores one policy record per community it
serves — so total records sum to C·P (provider side) + C·U-ish
(community side) = C x (P + U) when communities overlap fully, matching
the paper's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CasCommunity:
    """A community server: membership roster + capability issuing."""

    name: str
    members: set[str] = field(default_factory=set)

    def enroll(self, user: str) -> None:
        self.members.add(user)

    def issue_capability(self, user: str) -> str | None:
        """The CAS proxy credential a member presents to providers."""
        if user not in self.members:
            return None
        return f"cas:{self.name}:{user}"

    @property
    def record_count(self) -> int:
        return len(self.members)


class CasProvider:
    """A provider trusting community-level policy records only."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._trusted_communities: set[str] = set()

    def trust_community(self, community: str) -> None:
        self._trusted_communities.add(community)

    def authorize(self, capability: str | None) -> bool:
        if not capability or not capability.startswith("cas:"):
            return False
        _, community, _user = capability.split(":", 2)
        return community in self._trusted_communities

    @property
    def record_count(self) -> int:
        return len(self._trusted_communities)


class CasDeployment:
    """A CAS federation: C communities mediating P providers and U users."""

    def __init__(self) -> None:
        self.communities: dict[str, CasCommunity] = {}
        self.providers: dict[str, CasProvider] = {}

    def add_community(self, name: str) -> CasCommunity:
        community = CasCommunity(name)
        self.communities[name] = community
        return community

    def add_provider(self, name: str) -> CasProvider:
        """A provider trusting every community added so far."""
        provider = CasProvider(name)
        self.providers[name] = provider
        for community in self.communities:
            provider.trust_community(community)
        return provider

    def enroll_user(self, user: str, communities: list[str] | None = None) -> None:
        for name in communities if communities is not None else list(self.communities):
            self.communities[name].enroll(user)

    def authorize(self, provider: str, community: str, user: str) -> bool:
        capability = self.communities[community].issue_capability(user)
        return self.providers[provider].authorize(capability)

    @property
    def total_records(self) -> int:
        """Sums to C x (P + U) when all providers trust all communities
        and all users join all communities."""
        return sum(c.record_count for c in self.communities.values()) + sum(
            p.record_count for p in self.providers.values()
        )
