"""Online validity monitoring and revocation (Section 3.1).

"A dRBAC credential ... may additionally require online validation
monitoring from an authorized 'home' which is aware of any revocation of
the delegation."

The :class:`RevocationDirectory` holds every home's revoked set (a fold
of the engine's :class:`~repro.drbac.log.CredentialLog`) and the monitor
index: a :class:`ProofMonitor` watches every credential in a proof graph
and fires its callbacks on the first revocation — after every fold has
applied it, so a callback that re-authorizes is denied.  The index is
not fold state, so a log restore keeps it.  Expiry is the monitor's
other event, at one deadline that an owner with a clock fires.  This is
the authorization monitor the paper's Switchboard relies on for
*continuous* authorization (§4.3).
"""

from __future__ import annotations

import itertools
from typing import Callable

from .delegation import Delegation
from .log import CredentialLog, LogRecord

RevocationCallback = Callable[[str], None]
"""Called with the revoked credential id."""


class RevocationDirectory:
    """Per-home revocation state and the proof-monitor index.

    Simulates the "authorized home" lookup: in the real system each home
    is a network service; here the homes' revoked sets live in one
    in-process registry shared by the scenario.  Listeners are keyed by
    credential id and fire in attach order, so any number of monitors
    share one table row per credential.
    """

    def __init__(self, log: CredentialLog | None = None) -> None:
        self._revoked: dict[str, set[str]] = {}
        self._listeners: dict[str, dict[int, RevocationCallback]] = {}
        self._handles = itertools.count()
        self._log = log if log is not None else CredentialLog()
        self._log.subscribe(self._fold, clear=self._revoked.clear)

    def is_revoked(self, delegation: Delegation) -> bool:
        revoked = self._revoked.get(delegation.home_entity)
        return revoked is not None and delegation.credential_id in revoked

    def revoke(self, delegation: Delegation) -> None:
        self.revoke_id(delegation.home_entity, delegation.credential_id)

    def revoke_id(self, home: str, credential_id: str) -> None:
        """Revoke a credential at its home and notify its listeners once,
        after every fold of the log has applied the revoke record."""
        if credential_id in self._revoked.get(home, ()):
            return
        self._log.revoke_id(home, credential_id)
        for callback in list(self._listeners.get(credential_id, {}).values()):
            callback(credential_id)

    def _fold(self, record: LogRecord) -> None:
        if record.kind == "revoke":
            self._revoked.setdefault(record.home, set()).add(record.credential_id)

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

    def listener_count(self, credential_id: str) -> int:
        """Listeners attached for one credential (introspection)."""
        return len(self._listeners.get(credential_id, ()))

    def watched_credential_count(self) -> int:
        return len(self._listeners)


class ProofMonitor:
    """Watches every credential used by a proof.

    The monitor is *valid* until any watched credential is revoked or
    :meth:`check_expiry` finds the clock past :attr:`expires_at` (the
    earliest ``expires_at`` in the proof, ``None`` if nothing expires); at
    that moment it detaches from the directory and every registered
    callback fires exactly once with the offending credential id — for
    expiry, the one that lapsed first.  A monitor over no credentials (an
    accept-all policy) is valid forever.
    """

    def __init__(
        self, delegations: list[Delegation], directory: RevocationDirectory
    ) -> None:
        self._delegations = list(delegations)
        expiring = [d for d in self._delegations if d.expires_at is not None]
        first = min(expiring, key=lambda d: d.expires_at, default=None)
        self.expires_at: float | None = None if first is None else first.expires_at
        self._first_to_lapse = None if first is None else first.credential_id
        self._callbacks: list[RevocationCallback] = []
        self._invalidated_by: str | None = None
        self._detaches: list[Callable[[], None]] = []
        for delegation in self._delegations:
            self._detaches.append(directory.attach(delegation, self._on_revoked))
            if self._invalidated_by is not None:
                self.close()  # already revoked: nothing left to listen for
                break

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
        """Invalidate the proof if ``now`` is past its deadline.

        Returns the (possibly updated) validity.
        """
        if self.expires_at is not None and now > self.expires_at:
            self._on_revoked(self._first_to_lapse)
        return self._invalidated_by is None

    def close(self) -> None:
        for detach in self._detaches:
            detach()

    def _on_revoked(self, credential_id: str) -> None:
        if self._invalidated_by is not None:
            return
        self._invalidated_by = credential_id
        self.close()  # invalid for good: nothing left to listen for
        for callback in list(self._callbacks):
            callback(credential_id)
