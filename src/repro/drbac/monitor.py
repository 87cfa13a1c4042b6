"""Online validity monitoring and revocation (Section 3.1).

"A dRBAC credential ... may additionally require online validation
monitoring from an authorized 'home' which is aware of any revocation of
the delegation."

The :class:`RevocationDirectory` holds every home's revoked set and the
one listener table: anything that must hear a revocation — a
:class:`ProofMonitor`, the authorization cache's per-credential watch,
the incremental engine's index — attaches to a credential here and is
called the moment it is revoked.  A :class:`ProofMonitor` watches every
credential in a proof graph and fires its callbacks on the first
revocation; it is the authorization monitor the paper's Switchboard
relies on for *continuous* authorization (§4.3).
"""

from __future__ import annotations

import itertools
from typing import Callable

from .delegation import Delegation

RevocationCallback = Callable[[str], None]
"""Called with the revoked credential id."""


class RevocationDirectory:
    """Per-home revocation state and the revocation listener table.

    Simulates the "authorized home" lookup: in the real system each home
    is a network service; here the homes' revoked sets live in one
    in-process registry shared by the scenario.  Listeners are keyed by
    credential id and fire in attach order, so any number of monitors and
    cache entries share one table row per credential.
    """

    def __init__(self) -> None:
        self._revoked: dict[str, set[str]] = {}
        self._listeners: dict[str, dict[int, RevocationCallback]] = {}
        self._handles = itertools.count()

    def is_revoked(self, delegation: Delegation) -> bool:
        revoked = self._revoked.get(delegation.home_entity)
        return revoked is not None and delegation.credential_id in revoked

    def revoke(self, delegation: Delegation) -> None:
        self.revoke_id(delegation.home_entity, delegation.credential_id)

    def revoke_id(self, home: str, credential_id: str) -> None:
        """Revoke a credential at its home and notify its listeners once."""
        revoked = self._revoked.setdefault(home, set())
        if credential_id in revoked:
            return
        revoked.add(credential_id)
        for callback in list(self._listeners.get(credential_id, {}).values()):
            callback(credential_id)

    def attach(
        self, delegation: Delegation, callback: RevocationCallback
    ) -> Callable[[], None]:
        """Listen for revocation of one credential; returns a detach.

        A late attach for an already-revoked credential fires the
        callback immediately.
        """
        cred_id = delegation.credential_id
        handle = next(self._handles)
        self._listeners.setdefault(cred_id, {})[handle] = callback
        if self.is_revoked(delegation):
            callback(cred_id)

        def detach() -> None:
            listeners = self._listeners.get(cred_id)
            if listeners is None or listeners.pop(handle, None) is None:
                return
            if not listeners:
                del self._listeners[cred_id]

        return detach

    def reset(self) -> None:
        """Forget every revocation and listener (crash recovery).

        Revocation sets are volatile node state in this model; the
        durable layer replays them from its log.  Handles are never
        reused, so a detach held by a pre-crash monitor is a no-op rather
        than removing a listener attached after recovery.
        """
        self._revoked.clear()
        self._listeners.clear()

    def listener_count(self, credential_id: str) -> int:
        """Listeners attached for one credential (introspection)."""
        return len(self._listeners.get(credential_id, ()))

    def watched_credential_count(self) -> int:
        return len(self._listeners)


class ProofMonitor:
    """Watches every credential used by a proof.

    The monitor is *valid* until any watched credential is revoked; at that
    moment every registered callback fires exactly once with the offending
    credential id.  Expiry is checked on demand via :meth:`check_expiry`
    because expiry is a function of the clock, not an event.  A monitor
    over no credentials (an accept-all policy) is valid forever.
    """

    def __init__(
        self, delegations: list[Delegation], directory: RevocationDirectory
    ) -> None:
        self._delegations = list(delegations)
        self._callbacks: list[RevocationCallback] = []
        self._invalidated_by: str | None = None
        self._detaches = [
            directory.attach(delegation, self._on_revoked)
            for delegation in self._delegations
        ]

    @property
    def valid(self) -> bool:
        return self._invalidated_by is None

    @property
    def invalidated_by(self) -> str | None:
        return self._invalidated_by

    @property
    def watched_credentials(self) -> list[str]:
        return [d.credential_id for d in self._delegations]

    def on_invalidated(self, callback: RevocationCallback) -> None:
        """Register a callback; fires immediately if already invalid."""
        self._callbacks.append(callback)
        if self._invalidated_by is not None:
            callback(self._invalidated_by)

    def check_expiry(self, now: float) -> bool:
        """Invalidate the proof if any credential has expired at ``now``.

        Returns the (possibly updated) validity.
        """
        if self._invalidated_by is not None:
            return False
        for delegation in self._delegations:
            if delegation.is_expired(now):
                self._on_revoked(delegation.credential_id)
                return False
        return True

    def close(self) -> None:
        for detach in self._detaches:
            detach()

    def _on_revoked(self, credential_id: str) -> None:
        if self._invalidated_by is not None:
            return
        self._invalidated_by = credential_id
        for callback in list(self._callbacks):
            callback(credential_id)
