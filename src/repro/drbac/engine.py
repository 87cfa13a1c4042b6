"""DrbacEngine: the top-level dRBAC façade.

Packages the pieces the rest of the framework consumes: an identity
directory for signature verification, the distributed repository, the
revocation directory, the proof engine, and monitored authorization.

Section 3.1's protocol: "a trust-sensitive component C ... presents the
public identity of S, a set of required access rights R, and the
credentials X to a dRBAC implementation.  The dRBAC module first
authenticates the signatures and establishes validity monitors for all the
credentials in X.  Authorization is granted if the dRBAC module can
construct a graph (proof) ..." — :meth:`DrbacEngine.authorize` implements
exactly that, returning the proof together with its live
:class:`~repro.drbac.monitor.ProofMonitor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .. import obs
from ..clock import Clock, ManualClock
from ..crypto.keys import Identity, KeyStore, PublicIdentity
from ..errors import AuthorizationError
from ..obs import names as metric_names
from .delegation import Delegation, issue
from .incremental import IncrementalProofEngine
from .log import CredentialLog, LogRecord
from .model import Attributes, Role, Subject, parse_subject
from .monitor import ProofMonitor, RevocationDirectory
from .proof import Authentic, Proof, ProofEngine, SearchDirection, recorded_verdict
from .query import Constraint
from .repository import DistributedRepository


@dataclass(slots=True)
class AuthorizationResult:
    """A granted authorization: the proof plus its continuous monitor."""

    proof: Proof
    monitor: ProofMonitor

    @property
    def valid(self) -> bool:
        return self.monitor.valid

    def close(self) -> None:
        self.monitor.close()


class DrbacEngine:
    """One dRBAC evaluation context shared by a scenario.

    Holds the key store (simulated PKI), the identity directory, the
    credential log, and the structures that fold it: the distributed
    repository, the revocation directory and the incremental engine.  Guards
    (:mod:`repro.psf.guard`) each wrap one engine entity for their domain.
    """

    def __init__(
        self,
        *,
        key_store: KeyStore | None = None,
        key_bits: int | None = None,
        clock: Clock | None = None,
        incremental: bool = True,
    ) -> None:
        # `is None` check: an empty KeyStore is falsy (it has __len__),
        # so `or` would silently discard a caller-provided store.
        if key_store is None:
            key_store = KeyStore(key_bits=key_bits) if key_bits else KeyStore()
        self.key_store = key_store
        self.clock = clock if clock is not None else ManualClock()
        self.log = CredentialLog()
        """The one record of credential state; the repository, revoked
        sets, authentic set, incremental engine and cache all fold it, in
        that order."""
        self.repository = DistributedRepository(self.log)
        self.revocations = RevocationDirectory(self.log)
        self._authentic: dict[str, Authentic] = {}
        """Credentials whose signature this engine checked when it folded
        their publish record (see :class:`~repro.drbac.proof.Authentic`)."""
        self.log.subscribe(self._fold_authentic, clear=self._authentic.clear)
        self.search_work = 0
        """Deterministic cost counter: credential edges inspected by full
        proof searches issued through this engine (the full arm's
        work-unit meter in ``bench-churn``)."""
        self.incremental: IncrementalProofEngine | None = (
            IncrementalProofEngine(self) if incremental else None
        )

    # -- identity management ----------------------------------------------

    def identity(self, name: str) -> Identity:
        """The full identity (with private key) for an entity name."""
        return self.key_store.identity(name)

    def public_identity(self, name: str) -> PublicIdentity:
        return self.key_store.public(name)

    # -- credential issuing -------------------------------------------------

    def delegate(
        self,
        issuer: str,
        subject: Subject | str,
        role: Role | str,
        *,
        assignment: bool = False,
        attributes: Attributes | None = None,
        expires_at: float | None = None,
        requires_monitoring: bool = False,
        publish: bool = True,
    ) -> Delegation:
        """Issue (and by default publish) a signed delegation; string
        arguments are parsed as :meth:`_parse` describes."""
        subject, role = self._parse(subject, role)
        delegation = issue(
            self.identity(issuer),
            subject,
            role,
            assignment=assignment,
            attributes=attributes,
            expires_at=expires_at,
            requires_monitoring=requires_monitoring,
        )
        if publish:
            self.repository.publish(delegation)
        return delegation

    def _parse(
        self, subject: Subject | str, role: Role | str
    ) -> tuple[Subject, Role]:
        """Parse string arguments: a ``subject`` string naming a known
        entity becomes an :class:`EntityRef`; otherwise dotted strings are
        roles.  ``role`` strings always parse as roles."""
        if isinstance(role, str):
            role = Role.parse(role)
        if isinstance(subject, str):
            subject = parse_subject(subject, known_entities=self.key_store)
        return subject, role

    def revoke(self, delegation: Delegation) -> None:
        """Revoke a credential at its home; live monitors fire."""
        self.revocations.revoke(delegation)

    def _fold_authentic(self, record: LogRecord) -> None:
        """Authenticate each credential once, as its publish record enters
        the log (§3.1: "first authenticates the signatures"); a search then
        trusts the verdict, pass or fail, for that credential and every
        copy equal to it.  An issuer the store does not know fails it."""
        if record.kind != "publish":
            self._authentic.pop(record.credential_id, None)
            return
        delegation = record.delegation
        if recorded_verdict(self._authentic, delegation) is not None:
            return  # a republished copy: the verdict follows the value
        valid = delegation.verify_signature(self.key_store.get(delegation.issuer))
        known = self._authentic.get(record.credential_id)
        # A forgery that reuses an authentic credential's id must not
        # cost that credential a verify on every later search.
        if valid or known is None or not known.valid:
            self._authentic[record.credential_id] = Authentic(delegation, valid)

    # -- authorization -------------------------------------------------------

    def proof_engine(self) -> ProofEngine:
        return ProofEngine(
            self.key_store,
            self.revocations,
            now=self.clock.now(),
            authentic=self._authentic,
        )

    def find_proof(
        self,
        subject: Subject | str,
        role: Role | str,
        credentials: Iterable[Delegation] | None = None,
        *,
        required_attributes: Attributes | None = None,
        direction: SearchDirection = "regression",
    ) -> Optional[Proof]:
        """Search for a proof; harvests from the repository when no
        explicit credential set is presented."""
        subject, role = self._parse(subject, role)
        if credentials is None:
            credentials = self.repository.collect(subject, role)
        searcher = self.proof_engine()
        try:
            return searcher.find_proof(
                subject,
                role,
                credentials,
                required_attributes=required_attributes,
                direction=direction,
            )
        finally:
            self.search_work += searcher.edges_visited

    def find_proof_presenting(
        self,
        subject: Subject,
        role: Role,
        presented: Iterable[Delegation],
        *,
        required_attributes: Attributes | None = None,
    ) -> Optional[Proof]:
        """Full search over what the subject ``presented``, then the
        repository's harvest for every credential id not presented: the
        partner supplies its leaf credentials, the repository holds the
        cross-domain mapping delegations they chain through.  Presented
        credentials come first, so a revalidation with a fresh credential
        wins over an older one still published."""
        pool = {c.credential_id: c for c in presented}
        for c in self.repository.collect(subject, role):
            pool.setdefault(c.credential_id, c)
        return self.find_proof(
            subject, role, list(pool.values()), required_attributes=required_attributes
        )

    def prove(
        self,
        subject: Subject | str,
        role: Role | str,
        *,
        required_attributes: Attributes | None = None,
    ) -> Optional[Proof]:
        """Repository-backed proof query, served incrementally when safe.

        The maintained reach sets answer the query while the graph stays
        in the incremental engine's simple regime; attribute-constrained
        queries, non-simple graphs, and engines built with
        ``incremental=False`` all take the identical full-search path
        (harvest + regression), which therefore remains the oracle.
        """
        subject, role = self._parse(subject, role)
        if self.incremental is not None:
            handled, proof = self.incremental.try_prove(
                subject, role, required_attributes
            )
            if handled:
                return proof
        return self.find_proof(
            subject, role, None, required_attributes=required_attributes
        )

    def authorize(
        self,
        subject: Subject | str,
        role: Role | str,
        credentials: Iterable[Delegation] | None = None,
        *,
        required_attributes: Attributes | None = None,
    ) -> AuthorizationResult:
        """Authorize or raise, establishing validity monitors on success."""
        if credentials is None:
            proof = self.prove(
                subject, role, required_attributes=required_attributes
            )
        else:
            proof = self.find_proof(
                subject, role, credentials, required_attributes=required_attributes
            )
        if proof is None:
            obs.counter(metric_names.AUTHORIZE_DENIED).inc()
            raise AuthorizationError(
                f"no proof that {subject} holds {role}"
                + (
                    f" with {required_attributes}"
                    if required_attributes
                    else ""
                )
            )
        obs.counter(metric_names.AUTHORIZE_GRANTED).inc()
        monitor = ProofMonitor(proof.all_delegations(), self.revocations)
        return AuthorizationResult(proof=proof, monitor=monitor)

    def is_a(
        self,
        subject: Subject | str,
        constraint: Constraint | str,
        credentials: Iterable[Delegation] | None = None,
    ) -> Optional[Proof]:
        """The paper's "is X a Y?" query form (§3.2): the proof that
        ``subject`` holds the constraint's role with attributes covering
        its requirement, or ``None``."""
        if isinstance(constraint, str):
            constraint = Constraint.parse(constraint)
        return self.find_proof(
            subject,
            constraint.role,
            credentials,
            required_attributes=constraint.required_attributes or None,
        )
