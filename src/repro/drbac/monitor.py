"""Online validity monitoring and revocation (Section 3.1).

"A dRBAC credential ... may additionally require online validation
monitoring from an authorized 'home' which is aware of any revocation of
the delegation."

Each home entity runs a :class:`RevocationAuthority`.  Verifiers attach
:class:`ValidityMonitor` subscriptions per credential; a
:class:`ProofMonitor` aggregates the monitors for every credential in a
proof graph and fires callbacks the moment any of them is revoked — the
mechanism Switchboard relies on for *continuous* authorization (§4.3).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from .delegation import Delegation

RevocationCallback = Callable[[str], None]
"""Called with the revoked credential id."""


class RevocationAuthority:
    """Per-home revocation state with push notifications to subscribers."""

    def __init__(self, home: str) -> None:
        self.home = home
        self._revoked: set[str] = set()
        self._subscribers: dict[str, list[RevocationCallback]] = defaultdict(list)

    def revoke(self, credential_id: str) -> None:
        """Revoke a credential and notify every active monitor for it."""
        if credential_id in self._revoked:
            return
        self._revoked.add(credential_id)
        for callback in list(self._subscribers.get(credential_id, ())):
            callback(credential_id)

    def is_revoked(self, credential_id: str) -> bool:
        return credential_id in self._revoked

    def subscribe(self, credential_id: str, callback: RevocationCallback) -> Callable[[], None]:
        """Register a callback for one credential; returns an unsubscribe."""
        self._subscribers[credential_id].append(callback)
        if credential_id in self._revoked:
            # Late subscriber: deliver the revocation immediately.
            callback(credential_id)

        def unsubscribe() -> None:
            try:
                self._subscribers[credential_id].remove(callback)
            except ValueError:
                pass

        return unsubscribe

    @property
    def revoked_count(self) -> int:
        return len(self._revoked)


class RevocationDirectory:
    """Locates the :class:`RevocationAuthority` for each home entity.

    Simulates the "authorized home" lookup: in the real system the home is
    a network service; here it is an in-process registry shared by the
    scenario.
    """

    def __init__(self) -> None:
        self._authorities: dict[str, RevocationAuthority] = {}

    def authority(self, home: str) -> RevocationAuthority:
        auth = self._authorities.get(home)
        if auth is None:
            auth = RevocationAuthority(home)
            self._authorities[home] = auth
        return auth

    def is_revoked(self, delegation: Delegation) -> bool:
        auth = self._authorities.get(delegation.home_entity)
        return bool(auth and auth.is_revoked(delegation.credential_id))

    def revoke(self, delegation: Delegation) -> None:
        self.authority(delegation.home_entity).revoke(delegation.credential_id)

    def reset(self) -> None:
        """Forget every authority (crash recovery).

        Revocation sets are volatile node state in this model; the
        durable layer replays them from its log.  Subscriptions held by
        pre-crash monitors point at the discarded authorities and can
        never fire again — their unsubscribe closures become no-ops.
        """
        self._authorities.clear()


class MonitorHub:
    """Deduplicates authority subscriptions: one per credential id.

    Without the hub, every :class:`ProofMonitor` (and every cached
    authorization entry) registers its own callback at the credential's
    home :class:`RevocationAuthority`, so a hot credential shared by
    thousands of cached entries accumulates O(entries) callbacks there.
    The hub holds exactly *one* authority subscription per credential and
    fans the revocation out to however many local listeners are attached;
    when the last listener detaches, the authority subscription is
    dropped too.
    """

    def __init__(self, directory: RevocationDirectory) -> None:
        self._directory = directory
        self._channels: dict[str, _HubChannel] = {}

    def attach(
        self, delegation: Delegation, callback: RevocationCallback
    ) -> Callable[[], None]:
        """Listen for revocation of one credential; returns a detach.

        Mirrors :meth:`RevocationAuthority.subscribe`: a late attach for
        an already-revoked credential fires the callback immediately.
        """
        cred_id = delegation.credential_id
        channel = self._channels.get(cred_id)
        if channel is None:
            channel = _HubChannel()

            def fan_out(credential_id: str, _channel: _HubChannel = channel) -> None:
                for listener in list(_channel.listeners.values()):
                    listener(credential_id)

            authority = self._directory.authority(delegation.home_entity)
            channel.unsubscribe = authority.subscribe(cred_id, fan_out)
            self._channels[cred_id] = channel
        handle = channel.next_handle
        channel.next_handle += 1
        channel.listeners[handle] = callback
        if self._directory.is_revoked(delegation):
            # The authority-level immediate delivery hit an empty channel
            # (or a previous attach); deliver to this listener directly.
            callback(cred_id)

        def detach() -> None:
            current = self._channels.get(cred_id)
            if current is not channel or handle not in channel.listeners:
                return
            del channel.listeners[handle]
            if not channel.listeners:
                channel.unsubscribe()
                del self._channels[cred_id]

        return detach

    def reset(self) -> None:
        """Sever every channel (crash recovery).

        Channels are removed from the table *first*, so the stale detach
        closures held by pre-crash monitors see ``current is not channel``
        and return without touching post-recovery subscriptions.
        """
        channels = list(self._channels.values())
        self._channels.clear()
        for channel in channels:
            channel.unsubscribe()
            channel.listeners.clear()

    def listener_count(self, credential_id: str) -> int:
        """Local listeners attached for one credential (introspection)."""
        channel = self._channels.get(credential_id)
        return len(channel.listeners) if channel is not None else 0

    def watched_credential_count(self) -> int:
        return len(self._channels)


class _HubChannel:
    """Fan-out state for one credential inside a :class:`MonitorHub`."""

    __slots__ = ("listeners", "next_handle", "unsubscribe")

    def __init__(self) -> None:
        self.listeners: dict[int, RevocationCallback] = {}
        self.next_handle = 0
        self.unsubscribe: Callable[[], None] = lambda: None


@dataclass
class ValidityMonitor:
    """An established online monitor for a single credential."""

    delegation: Delegation
    _unsubscribe: Callable[[], None] = field(repr=False, default=lambda: None)

    def close(self) -> None:
        self._unsubscribe()


class ProofMonitor:
    """Watches every credential used by a proof.

    The monitor is *valid* until any watched credential is revoked; at that
    moment every registered callback fires exactly once with the offending
    credential id.  Expiry is checked on demand via :meth:`check_expiry`
    because expiry is a function of the clock, not an event.  Every
    subscription goes through the :class:`MonitorHub`, so any number of
    monitors cost each home authority one callback per credential.
    """

    def __init__(self, delegations: list[Delegation], hub: MonitorHub) -> None:
        self._delegations = list(delegations)
        self._callbacks: list[RevocationCallback] = []
        self._invalidated_by: str | None = None
        self._monitors = [
            ValidityMonitor(delegation, hub.attach(delegation, self._on_revoked))
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
        for monitor in self._monitors:
            monitor.close()

    def _on_revoked(self, credential_id: str) -> None:
        if self._invalidated_by is not None:
            return
        self._invalidated_by = credential_id
        for callback in list(self._callbacks):
            callback(credential_id)
