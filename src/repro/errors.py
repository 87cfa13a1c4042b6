"""Exception hierarchy shared by every repro subsystem.

Every package raises subclasses of :class:`ReproError` so callers can catch
one base type at the framework boundary while tests can assert on the
specific failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class CryptoError(ReproError):
    """Raised for failures in the cryptographic substrate."""


class SignatureError(CryptoError):
    """A signature failed to verify (forgery, tampering, or wrong key)."""


class KeyBindingError(CryptoError):
    """A key store name is already bound to another identity."""


class KeyExchangeError(CryptoError):
    """A Diffie-Hellman key exchange received invalid parameters."""


class CipherError(CryptoError):
    """Authenticated decryption failed (tampering or truncation)."""


class DrbacError(ReproError):
    """Base class for dRBAC failures."""


class CredentialError(DrbacError):
    """A delegation is malformed, expired, or its signature is invalid."""


class LogRecordError(CredentialError):
    """A credential-log record off the feed or the WAL is malformed."""


class AuthorizationError(DrbacError):
    """No valid proof graph authorizes the requested role."""


class RevocationError(DrbacError):
    """A credential in an active proof has been revoked or has expired."""


class ViewError(ReproError):
    """Base class for view specification and generation failures."""


class ViewSpecError(ViewError):
    """The XML/structured view specification is malformed."""


class ViewGenerationError(ViewError):
    """VIG could not generate a correct view class.

    Mirrors the paper's behaviour: "If VIG is unable to generate correct
    bytecode (e.g. a new method uses a variable that is not defined in the
    original object or the method), it triggers an error that indicates how
    the XML rules can be rectified."
    """


class SwitchboardError(ReproError):
    """Base class for Switchboard channel failures."""


class HandshakeError(SwitchboardError):
    """Channel establishment failed (authentication or authorization)."""


class ChannelClosedError(SwitchboardError):
    """An operation was attempted on a closed or revoked channel."""


class ReplayError(SwitchboardError):
    """A message with a stale or repeated sequence number arrived."""


class RpcAbortedError(SwitchboardError):
    """An in-flight remote call was aborted because its channel was torn
    down (closed, died, or lost its link) before the result arrived."""


class RpcTimeoutError(SwitchboardError):
    """Waiting on a pending call exceeded the caller's timeout budget."""


class RpcShedError(SwitchboardError):
    """The server's admission control refused a call rather than serve it.

    Carries the server's ``retry_after`` hint in virtual seconds — the
    earliest time a retry has a chance of being admitted.  A shed ends a
    plain and a retried call alike; whether and when to try again is the
    caller's decision."""

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class PsfError(ReproError):
    """Base class for Partitionable Services Framework failures."""


class PlanningError(PsfError):
    """The planner could not find a deployment satisfying the request."""


class DeploymentError(PsfError):
    """Instantiating, linking, or executing a planned component failed."""


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class LinkDownError(NetworkError):
    """A message was sent over a link that is down or does not exist."""


class NodeDownError(NetworkError):
    """A message was addressed to a node that has crash-stopped."""


class FaultError(ReproError):
    """Base class for fault-injection subsystem failures (bad plans,
    events aimed at unknown topology elements, misconfigured schedules)."""
