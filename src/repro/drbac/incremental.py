"""Incremental proof-graph maintenance over publish/revoke/expire deltas.

The full decision procedure (:mod:`repro.drbac.proof`) re-harvests and
re-searches the delegation graph on every query.  Under churn — the
revocation-storm and load mixes our harnesses generate — that makes
credential turnover the dominant authorization cost.  This module keeps
an indexed subject→role adjacency and *updates* per-principal
reachability instead:

* **publish** extends affected reachable sets by frontier expansion from
  the new edge (only principals that can already reach the edge's
  subject are affected);
* **revoke**/**expire** recompute only the *cone*: the principals whose
  current reach chains actually used the dead credential, tracked via a
  per-credential dependents index.

The engine is the third fold of the engine's
:class:`~repro.drbac.log.CredentialLog`: publish and revoke records
arrive in sequence order, and the expiry drain appends ``expire``
records to that same log rather than mutating state on the side.  The
precise-invalidation :class:`~repro.drbac.cache.CachedAuthorizer` folds
the same records next; for a publish it asks :meth:`newly_reached` which
principals reached which roles, derived data rather than a second stream.

**Soundness regime.**  The fast path answers queries only while the
published graph is *simple*: every live credential is a self-certifying
membership delegation with no attributes (the regime of the churn/load
workloads and the simulation tester's generator).  On such graphs the
regression search's verdict coincides with plain reachability, which is
exactly what the maintained reach sets encode.  The first published
assignment, third-party, or attributed credential flips the engine to
the full-search path permanently — the reach sets keep one witness chain
per role, while on attributed multi-path graphs the verdict depends on
*which* chains exist (a right is held iff some chain's attributes combine
and cover the requirement), so they can only stand in for the full search
attribute-free.  ``required_attributes`` queries always fall back.

``mutation`` deliberately breaks one delta rule (documented hooks, used
by the differential test to demonstrate it detects a broken engine):
``skip-expire-cone`` / ``skip-revoke-cone`` drop the cone recompute for
that event kind, leaving stale chains in the reach sets.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .. import obs
from ..obs import names as metric_names
from .delegation import Delegation, DelegationType
from .log import LogRecord
from .model import Attributes, Role, Subject, subject_key
from .proof import Proof

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import DrbacEngine

MUTATIONS = ("skip-expire-cone", "skip-revoke-cone")


@dataclass(slots=True)
class _ReachState:
    """Reachability snapshot for one tracked principal.

    ``roles`` maps each reachable role string to the membership chain
    (credential ids, subject-to-goal order) that witnesses it; ``deps``
    is the union of those chains, mirrored into the engine-wide
    dependents index.
    """

    roles: dict[str, tuple[str, ...]]
    deps: set[str]


class IncrementalProofEngine:
    """Maintains reachability under deltas; answers simple-regime queries.

    Owned by a :class:`~repro.drbac.engine.DrbacEngine` and subscribed to
    its credential log.  Expiry is a function of the clock, not an
    event, so an expiry min-heap is drained against ``clock.now()`` at
    every query (:meth:`refresh`), appending one ``expire`` record per
    credential that lapsed.
    """

    def __init__(self, engine: "DrbacEngine") -> None:
        self._engine = engine
        self._simple = True
        self.mutation: str | None = None
        self.work = 0
        """Deterministic cost counter: edges touched by index maintenance
        and reach (re)computation.  ``bench-churn`` uses it as the
        incremental arm's work-unit meter."""

        # Live indexed graph (simple-regime credentials only).
        self._creds: dict[str, Delegation] = {}
        self._all_creds: dict[str, Delegation] = {}
        self._out: dict[str, list[str]] = {}
        self._expiry: list[tuple[float, str]] = []

        # Reachability and its inverted dependency index.
        self._reach: dict[str, _ReachState] = {}
        self._dependents: dict[str, set[str]] = {}

        self._reached: tuple[int, Optional[dict[str, tuple[str, ...]]]] = (0, {})
        engine.log.subscribe(self._fold, clear=self._clear)

    # -- introspection -----------------------------------------------------

    @property
    def simple(self) -> bool:
        """Is the fast path still active (graph never left the regime)?"""
        return self._simple

    def dependents_index(self) -> dict[str, frozenset[str]]:
        return {cid: frozenset(pks) for cid, pks in self._dependents.items()}

    def covers(self, required_attributes: Attributes | None = None) -> bool:
        """May a *denial* of this query be invalidated purely by deltas?

        Attribute-constrained queries are excluded even in the simple
        regime: a publish can widen attributes on an already-reached role
        without changing any reach set, so no delta would fire for it.
        """
        return self._simple and not required_attributes

    def newly_reached(self, seq: int) -> Optional[dict[str, tuple[str, ...]]]:
        """The roles each tracked principal newly reached by publish ``seq``.

        ``None`` means *unknown — treat every principal as affected*, the
        conservative answer once the graph leaves the simple regime; a
        publish this engine ignored (a republish, an unusable credential)
        reached nothing.  Valid while the log delivers record ``seq``.
        """
        reached_seq, changed = self._reached
        return changed if reached_seq == seq else {}

    # -- queries -------------------------------------------------------------

    def try_prove(
        self,
        subject: Subject,
        role: Role,
        required_attributes: Attributes | None = None,
    ) -> tuple[bool, Optional[Proof]]:
        """Answer from maintained reachability if the regime allows.

        Returns ``(handled, proof)``: when ``handled`` is ``False`` the
        caller must run the full search (the verdict here is undefined).
        """
        self.refresh()
        if not self.covers(required_attributes):
            obs.counter(metric_names.INCR_FALLBACKS).inc()
            return False, None
        obs.counter(metric_names.INCR_FAST_PROOFS).inc()
        pk = subject_key(subject)
        state = self._reach.get(pk)
        if state is None:
            state = self._compute_reach(pk)
        path = state.roles.get(str(role))
        if path is None:
            return True, None
        # _all_creds (not _creds): under a deliberate mutation a stale
        # chain may reference a dead credential, and the differential
        # test must see the wrong *grant*, not a crash.
        chain = [self._all_creds[cid] for cid in path]
        return True, Proof(subject=subject, role=role, chain=chain)

    def refresh(self) -> None:
        """Drain credentials whose expiry instant has passed.

        Matches :meth:`Delegation.is_expired`: a credential is live *at*
        its expiry instant and dead strictly after it.
        """
        now = self._engine.clock.now()
        while self._expiry and self._expiry[0][0] < now:
            _, cred_id = heapq.heappop(self._expiry)
            delegation = self._creds.get(cred_id)
            if delegation is not None:  # not already revoked
                self._engine.log.expire(delegation)

    # -- the fold --------------------------------------------------------------

    def _fold(self, record: LogRecord) -> None:
        if record.kind == "publish":
            self._fold_publish(record)
        else:
            self._dead(record.credential_id, record.kind)

    def _clear(self) -> None:
        """Drop every index and reach set before a log restore refolds.

        The simple regime is then decided by the *recovered* graph rather
        than remembered from the dead one; ``work`` keeps accumulating so
        recovery cost shows up in the same meter as steady-state cost.
        """
        self._creds.clear()
        self._all_creds.clear()
        self._out.clear()
        self._expiry.clear()
        self._reach.clear()
        self._dependents.clear()
        self._simple = True
        obs.gauge(metric_names.INCR_TRACKED).set(0)

    def _fold_publish(self, record: LogRecord) -> None:
        delegation = record.delegation
        cred_id = record.credential_id
        if cred_id in self._all_creds:
            return  # republish of an already-indexed credential: no new edge
        if not self._engine.proof_engine().usable(delegation):
            # Authenticity is settled once at publish instead of on every
            # search: the full path can never use this credential either.
            return
        obs.counter(metric_names.INCR_PUBLISHES).inc()
        if self._simple and not self._is_simple(delegation):
            # Leaving the regime: every maintained answer is suspect from
            # here on, so ditch the reach sets and answer the conservative
            # "anyone may be affected" from newly_reached.
            self._simple = False
            self._reach.clear()
            self._dependents.clear()
            obs.gauge(metric_names.INCR_TRACKED).set(0)
        if not self._simple:
            self._reached = (record.seq, None)
            return

        self.refresh()
        self._all_creds[cred_id] = delegation
        self._creds[cred_id] = delegation
        self._out.setdefault(subject_key(delegation.subject), []).append(cred_id)
        if delegation.expires_at is not None:
            heapq.heappush(self._expiry, (delegation.expires_at, cred_id))
        changed = self._expand(delegation)
        obs.histogram(
            metric_names.INCR_DELTA_SIZE, metric_names.COUNT_BUCKETS
        ).observe(sum(len(roles) for roles in changed.values()))
        self._reached = (record.seq, changed)

    def _dead(self, credential_id: str, kind: str) -> None:
        delegation = self._creds.pop(credential_id, None)
        if delegation is None:
            return  # already dead, or never indexed
        obs.counter(
            metric_names.INCR_EXPIRIES if kind == "expire"
            else metric_names.INCR_REVOCATIONS
        ).inc()
        bucket = self._out.get(subject_key(delegation.subject), [])
        if credential_id in bucket:
            bucket.remove(credential_id)
        cone = sorted(self._dependents.pop(credential_id, ()))
        obs.histogram(
            metric_names.INCR_CONE_SIZE, metric_names.COUNT_BUCKETS
        ).observe(len(cone))
        obs.histogram(metric_names.INCR_RECOMPUTE_RATIO).observe(
            len(cone) / len(self._reach) if self._reach else 0.0
        )
        if self.mutation != f"skip-{kind}-cone":
            for pk in cone:
                # Only principals whose chains used the dead edge are
                # recomputed; everyone else's reach set is untouched.
                self._compute_reach(pk)

    # -- reachability maintenance ----------------------------------------------

    def _compute_reach(self, principal_key: str) -> _ReachState:
        """Full forward BFS for one principal (track or re-track it)."""
        roles: dict[str, tuple[str, ...]] = {}
        frontier: deque[tuple[str, tuple[str, ...]]] = deque([(principal_key, ())])
        while frontier:
            node, chain = frontier.popleft()
            for cred_id in self._out.get(node, ()):
                self.work += 1
                role_key = str(self._creds[cred_id].role)
                if role_key == principal_key or role_key in roles:
                    continue
                roles[role_key] = chain + (cred_id,)
                frontier.append((role_key, roles[role_key]))
        state = _ReachState(roles=roles, deps=set())
        for chain in roles.values():
            state.deps.update(chain)
        self._set_state(principal_key, state)
        return state

    def _expand(self, delegation: Delegation) -> dict[str, tuple[str, ...]]:
        """Frontier expansion: fold one new edge into every affected
        tracked principal, returning the roles each newly reached."""
        edge_subject = subject_key(delegation.subject)
        edge_role = str(delegation.role)
        cred_id = delegation.credential_id
        changed: dict[str, tuple[str, ...]] = {}
        for pk, state in self._reach.items():
            if edge_subject == pk:
                base: tuple[str, ...] = ()
            elif edge_subject in state.roles:
                base = state.roles[edge_subject]
            else:
                continue  # the principal cannot reach the new edge
            if edge_role == pk or edge_role in state.roles:
                continue  # the edge's target was already reachable
            added: dict[str, tuple[str, ...]] = {edge_role: base + (cred_id,)}
            frontier: deque[str] = deque([edge_role])
            while frontier:
                node = frontier.popleft()
                for next_id in self._out.get(node, ()):
                    self.work += 1
                    role_key = str(self._creds[next_id].role)
                    if (
                        role_key == pk
                        or role_key in state.roles
                        or role_key in added
                    ):
                        continue
                    added[role_key] = added[node] + (next_id,)
                    frontier.append(role_key)
            state.roles.update(added)
            new_deps = set()
            for chain in added.values():
                new_deps.update(chain)
            for dep in new_deps - state.deps:
                self._dependents.setdefault(dep, set()).add(pk)
            state.deps |= new_deps
            changed[pk] = tuple(sorted(added))
        return changed

    def _set_state(self, principal_key: str, state: _ReachState) -> None:
        old = self._reach.get(principal_key)
        if old is not None:
            for dep in old.deps - state.deps:
                pks = self._dependents.get(dep)
                if pks is not None:
                    pks.discard(principal_key)
                    if not pks:
                        del self._dependents[dep]
        for dep in state.deps:
            self._dependents.setdefault(dep, set()).add(principal_key)
        self._reach[principal_key] = state
        obs.gauge(metric_names.INCR_TRACKED).set(len(self._reach))

    # -- helpers -----------------------------------------------------------------

    def _is_simple(self, delegation: Delegation) -> bool:
        return (
            delegation.delegation_type is DelegationType.SELF_CERTIFYING
            and not delegation.attributes
        )
