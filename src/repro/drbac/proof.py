"""Proof-graph construction: the dRBAC authorization decision procedure.

Section 3.1: "Authorization is granted if the dRBAC module can construct a
graph (proof) from valid and authenticated credentials in X that 'proves'
that S possesses the rights required by R."

Semantics implemented here:

* **Membership.** ``S`` holds role ``R`` iff there is a chain of valid
  delegations ``d1 .. dk`` with ``subject(d1) = S``, ``role(di) =
  subject(d(i+1))`` and ``role(dk) = R``.
* **Issuer authority.** A *self-certifying* delegation (issuer owns the
  role) is usable on signature alone.  A *third-party* delegation is usable
  only when its issuer provably holds the **right of assignment**
  (``Entity.Role'``) for that role — established either directly by the
  role owner via an *assignment* delegation, or transitively through
  further assignment delegations / role memberships.
* **Attenuation.** Valued attributes meet (intersect / min) along the
  membership chain; a chain whose attributes become empty is unusable.

A right is held iff *some* valid chain exists, so the search is one lazy
enumeration: :meth:`ProofEngine._chains` yields every acyclic membership
chain, goal-directed, and the proof is the first one whose attributes
combine and cover the requirement.  Finding the first chain and finding
them all are the same walk, stopped at different points.

Two search strategies are provided (mirroring Sekitei's regression and
progression, and ablated by ``tests/paper/test_drbac.py``):
*regression* consumes the enumeration, walking backward from the goal role;
*progression* first tries the chain a forward breadth-first walk from the
subject reaches, and falls back to the enumeration when that chain's
attributes do not serve.  Both return identical authorization decisions
(they may choose different chains).
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal, Mapping, NamedTuple, Optional

from .. import obs
from ..crypto.keys import KeyStore, PublicIdentity
from ..obs import names as metric_names
from .delegation import Delegation, DelegationType
from .model import (
    Attributes,
    EntityRef,
    IncompatibleAttributes,
    Role,
    Subject,
    attributes_satisfy,
    meet_attributes,
    subject_key,
)
from .monitor import RevocationDirectory

SearchDirection = Literal["regression", "progression"]


class Authentic(NamedTuple):
    """A signature verdict taken when a publish record was folded.  A
    credential is a value and its issuer's key is bound once, so the
    verdict holds for that object and for every delegation equal to it.
    A failed verdict is kept too (a forgery, or an issuer unknown at
    publish), so it is refused without another RSA verify, unless it reuses
    the id of an authentic credential, whose verdict stays."""

    delegation: Delegation
    valid: bool


def recorded_verdict(
    authentic: Mapping[str, Authentic], delegation: Delegation
) -> Optional[bool]:
    """The verdict recorded for this credential value, or ``None``."""
    known = authentic.get(delegation.credential_id)
    same = known is not None and (
        known.delegation is delegation or known.delegation == delegation
    )
    return known.valid if same else None


@dataclass(slots=True)
class Proof:
    """A successful authorization proof.

    ``chain`` is the membership chain from the subject to the goal role, in
    subject-to-goal order.  ``support`` holds the assignment-right evidence
    used to validate third-party issuers.  ``attributes`` is the attenuated
    attribute map effective for the authorized subject.
    """

    subject: Subject
    role: Role
    chain: list[Delegation]
    support: list[Delegation] = field(default_factory=list)
    attributes: Attributes = field(default_factory=dict)
    edges_visited: int = 0

    def all_delegations(self) -> list[Delegation]:
        """Every credential the proof depends on (chain + support), deduped."""
        return list(dict.fromkeys(self.chain + self.support))

    def __str__(self) -> str:
        steps = " ; ".join(str(d) for d in self.chain)
        return f"{subject_key(self.subject)} |- {self.role} via {steps}"


class ProofEngine:
    """Searches credential sets for authorization proofs.

    Args:
        identities: directory resolving entity names to public identities
            for signature verification — anything with a non-creating
            ``get(name)``: a plain dict or a :class:`KeyStore`.  Credentials
            from unknown issuers are unusable (their authenticity cannot be
            established).
        revocations: revocation state; revoked credentials are unusable.
        now: evaluation time for expiry checks.
        authentic: the verdicts a :class:`~repro.drbac.engine.DrbacEngine`
            took when it folded each publish record; a credential equal to
            none of them (presented and never published, or altered) is
            verified here, on every search.
        verify_signatures: ``False`` skips every signature check, so a
            test can search unsigned random graphs.
    """

    def __init__(
        self,
        identities: Mapping[str, PublicIdentity] | KeyStore,
        revocations: RevocationDirectory | None = None,
        *,
        now: float = 0.0,
        verify_signatures: bool = True,
        authentic: Mapping[str, Authentic] | None = None,
    ) -> None:
        self._identities = identities
        self._revocations = revocations or RevocationDirectory()
        self._now = now
        self._verify_signatures = verify_signatures
        self._authentic = authentic if authentic is not None else {}
        self.edges_visited = 0

    # -- public API ------------------------------------------------------

    def find_proof(
        self,
        subject: Subject,
        role: Role,
        credentials: Iterable[Delegation],
        *,
        required_attributes: Attributes | None = None,
        direction: SearchDirection = "regression",
    ) -> Optional[Proof]:
        """Return a proof that ``subject`` holds ``role``, or ``None``.

        ``required_attributes`` restricts acceptable chains to those whose
        attenuated attributes cover the requirement (e.g. a node that must
        be ``Secure={true}`` with ``Trust`` at least ``(5,10)``).
        """
        if not obs.is_enabled():
            # Single-check fast path: searches are the hottest obs site,
            # and even null-span setup costs ~2% on small graphs.
            return self._find_proof(
                subject,
                role,
                credentials,
                required_attributes=required_attributes,
                direction=direction,
            )
        with obs.span("drbac.proof.search", role=str(role), direction=direction):
            proof = self._find_proof(
                subject,
                role,
                credentials,
                required_attributes=required_attributes,
                direction=direction,
            )
        obs.counter(metric_names.PROOF_SEARCHES).inc()
        obs.counter(
            metric_names.PROOF_SEARCHES_REGRESSION
            if direction == "regression"
            else metric_names.PROOF_SEARCHES_PROGRESSION
        ).inc()
        obs.histogram(metric_names.PROOF_EDGES_VISITED).observe(self.edges_visited)
        if proof is None:
            obs.counter(metric_names.PROOF_NOT_FOUND).inc()
        else:
            obs.counter(metric_names.PROOF_FOUND).inc()
            obs.histogram(metric_names.PROOF_CHAIN_LENGTH).observe(len(proof.chain))
        return proof

    def _find_proof(
        self,
        subject: Subject,
        role: Role,
        credentials: Iterable[Delegation],
        *,
        required_attributes: Attributes | None,
        direction: SearchDirection,
    ) -> Optional[Proof]:
        index = _CredentialIndex([c for c in credentials if self.usable(c)])
        self.edges_visited = 0
        chains = self._chains(subject, role, index, set())
        if direction == "progression":
            reached = self._progress(subject, role, index)
            if reached is None:
                return None
            # The breadth-first walk ignores attributes; when its chain
            # does not serve, the enumeration is the fallback.
            chains = itertools.chain([reached], chains)
        elif direction != "regression":  # pragma: no cover - guarded by Literal type
            raise ValueError(f"unknown search direction: {direction}")
        # Attributes only attenuate, so prefixes cannot be pruned — a
        # weak-looking prefix may still beat a strong-looking one.
        for chain, attributes in _combining(chains):
            if required_attributes and not attributes_satisfy(
                attributes, required_attributes
            ):
                continue
            support = self._collect_support(chain, index)
            return Proof(
                subject=subject,
                role=role,
                chain=chain,
                support=support,
                attributes=attributes,
                edges_visited=self.edges_visited,
            )
        return None

    # -- validity --------------------------------------------------------

    def usable(self, delegation: Delegation) -> bool:
        """Authentic, unexpired, unrevoked — the per-credential gate."""
        if delegation.is_expired(self._now):
            return False
        if self._revocations.is_revoked(delegation):
            return False
        if not self._verify_signatures:
            return True
        verdict = recorded_verdict(self._authentic, delegation)
        if verdict is not None:
            return verdict
        return delegation.verify_signature(self._identities.get(delegation.issuer))

    # -- issuer authority --------------------------------------------------

    def _issuer_authorized(
        self,
        delegation: Delegation,
        index: "_CredentialIndex",
        stack: set[tuple[str, str, str]],
    ) -> bool:
        """Check the issuer may administer the delegation's role."""
        if delegation.issuer == delegation.role.owner:
            return True
        return (
            self._assignment_chain(
                EntityRef(delegation.issuer), delegation.role, index, stack
            )
            is not None
        )

    def _assignment_chain(
        self,
        holder: Subject,
        role: Role,
        index: "_CredentialIndex",
        stack: set[tuple[str, str, str]],
    ) -> Optional[list[Delegation]]:
        """Prove ``holder`` possesses the right of assignment for ``role``."""
        goal = (subject_key(holder), str(role), "assign")
        if goal in stack:
            return None
        stack = stack | {goal}
        for delegation in index.assignments_for(role):
            self.edges_visited += 1
            if not self._issuer_authorized(delegation, index, stack):
                continue
            if subject_key(delegation.subject) == subject_key(holder):
                return [delegation]
            if isinstance(delegation.subject, Role):
                membership, _ = next(
                    _combining(self._chains(holder, delegation.subject, index, stack)),
                    (None, None),
                )
                if membership is not None:
                    return membership + [delegation]
        return None

    # -- regression (backward from the goal role) -------------------------

    def _chains(
        self,
        subject: Subject,
        role: Role,
        index: "_CredentialIndex",
        stack: set[tuple[str, str, str]],
    ) -> Iterator[list[Delegation]]:
        """Yield every acyclic membership chain from ``subject`` to ``role``.

        Lazy and goal-directed: the walk advances only as far as the
        consumer pulls, so taking the first chain costs the edges a
        first-chain search would visit.
        """
        goal = (subject_key(subject), str(role), "member")
        if goal in stack:
            return
        stack = stack | {goal}
        for delegation in index.granting(role):
            self.edges_visited += 1
            if not self._issuer_authorized(delegation, index, stack):
                continue
            if subject_key(delegation.subject) == subject_key(subject):
                yield [delegation]
            elif isinstance(delegation.subject, Role):
                for prefix in self._chains(subject, delegation.subject, index, stack):
                    yield prefix + [delegation]

    # -- progression (forward from the subject) ---------------------------

    def _progress(
        self,
        subject: Subject,
        role: Role,
        index: "_CredentialIndex",
    ) -> Optional[list[Delegation]]:
        """Dijkstra-flavoured forward BFS carrying back-pointers."""
        origin = subject_key(subject)
        parents: dict[str, tuple[str, Delegation]] = {}
        frontier: deque[str] = deque([origin])
        reached: set[str] = {origin}
        while frontier:
            key = frontier.popleft()
            for delegation in index.from_subject_key(key):
                self.edges_visited += 1
                if delegation.grants_assignment_right:
                    continue
                if not self._issuer_authorized(delegation, index, set()):
                    continue
                role_key = str(delegation.role)
                if role_key in reached:
                    continue
                reached.add(role_key)
                parents[role_key] = (key, delegation)
                if role_key == str(role):
                    return _walk_back(origin, role_key, parents)
                frontier.append(role_key)
        return None

    # -- support collection ------------------------------------------------

    def _collect_support(
        self, chain: list[Delegation], index: "_CredentialIndex"
    ) -> list[Delegation]:
        """Gather the assignment-right evidence for third-party links."""
        support: dict[str, Delegation] = {}
        for delegation in chain:
            if delegation.delegation_type is not DelegationType.THIRD_PARTY:
                continue
            evidence = self._assignment_chain(
                EntityRef(delegation.issuer), delegation.role, index, set()
            )
            for item in evidence or ():
                support[item.credential_id] = item
        return list(support.values())


def _walk_back(
    origin: str, goal: str, parents: dict[str, tuple[str, Delegation]]
) -> list[Delegation]:
    chain: list[Delegation] = []
    key = goal
    while key != origin:
        key, delegation = parents[key]
        chain.append(delegation)
    chain.reverse()
    return chain


def _combining(
    chains: Iterable[list[Delegation]],
) -> Iterator[tuple[list[Delegation], Attributes]]:
    """The usable chains, each with its attenuated attributes: those whose
    attributes meet to something non-empty along the whole chain."""
    for chain in chains:
        attributes: Attributes = {}
        try:
            for delegation in chain:
                attributes = meet_attributes(attributes, delegation.attributes)
        except IncompatibleAttributes:
            continue
        yield chain, attributes


class _CredentialIndex:
    """Fast lookups over a validated credential set."""

    def __init__(self, credentials: list[Delegation]) -> None:
        self._granting: dict[str, list[Delegation]] = defaultdict(list)
        self._assignments: dict[str, list[Delegation]] = defaultdict(list)
        self._from_subject: dict[str, list[Delegation]] = defaultdict(list)
        for delegation in credentials:
            role_key = str(delegation.role)
            if delegation.grants_assignment_right:
                self._assignments[role_key].append(delegation)
            else:
                self._granting[role_key].append(delegation)
            self._from_subject[subject_key(delegation.subject)].append(delegation)

    def granting(self, role: Role) -> list[Delegation]:
        """Membership credentials only: assignment credentials do not
        convey membership and are indexed apart."""
        return self._granting.get(str(role), [])

    def assignments_for(self, role: Role) -> list[Delegation]:
        return self._assignments.get(str(role), [])

    def from_subject_key(self, key: str) -> list[Delegation]:
        return self._from_subject.get(key, [])
