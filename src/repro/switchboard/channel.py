"""Switchboard secure channels (Section 4.3).

A Switchboard connection is "secure, authenticated, and *continuously*
authorized and monitored" — the property that "distinguishes Switchboard
from abstractions like SSL/TLS".  The implementation:

* **Handshake** — both ends exchange public identities, fresh nonces,
  Diffie-Hellman public values, and dRBAC credential sets, each signed by
  the sender's RSA key.  Each end checks the signature (proof of key
  possession), checks the name→key binding against its PKI directory, and
  runs its :class:`~repro.switchboard.authorizer.Authorizer` on the
  partner's credentials, producing a
  :class:`~repro.drbac.monitor.ProofMonitor` over the partner's proof.
  A malformed or hostile greeting ends as a typed reject (HELLO) or a
  failed dial (WELCOME); no error escapes frame delivery.
* **Frames** — after the handshake every frame is JSON, encrypted and
  MACed with the DH session key, and sent as one binary envelope:
  ``DATA_MAGIC ‖ len(conn_id) (1 byte) ‖ conn_id ‖ from_initiator (1 byte)
  ‖ seq (8 bytes) ‖ sealed frame``.  The clear header is authenticated as
  the associated data ``conn_id|direction|seq``, so a changed header byte
  fails the tag or names no connection, and replayed or reordered frames
  fail authentication or the monotonicity check (``replays_rejected`` /
  ``tamper_rejected`` accounting).  A malformed envelope is dropped and
  counted, never raised.
* **Heartbeats** — replay-resistant pings measure round-trip latency and
  drive liveness: missing too many pongs marks the channel ``DEAD``.
* **Continuous authorization** — a revocation anywhere in either partner's
  proof graph, or a timer at the proof's deadline, fires the monitor, flips
  the channel to ``REVOKED``, notifies the peer, and blocks further calls
  until :meth:`SwitchboardConnection.revalidate` succeeds with fresh
  credentials.
* **Reuse** — a channel is continuously authorized, so while it stays
  ``OPEN`` it can serve the next dial of the same principal: each endpoint
  keeps one connection table keyed by :func:`_table_key`, and
  :meth:`SwitchboardEndpoint.connect` hands back a listed connection with
  one more lease instead of redoing the handshake.  A connection leaves
  the table on any move out of ``OPEN``.  :meth:`SwitchboardConnection.
  release` drops a lease (the last one closes); ``close`` is a hard close.
"""

from __future__ import annotations

import enum
import itertools
import math
import secrets
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .. import obs
from ..crypto.cipher import AuthenticatedCipher
from ..crypto.dh import DiffieHellman
from ..crypto.keys import PublicIdentity
from ..drbac.delegation import Delegation
from ..drbac.monitor import ProofMonitor
from ..obs import names as metric_names
from ..drbac.wire import (
    delegation_from_wire,
    delegation_to_wire,
    public_identity_from_wire,
    public_identity_to_wire,
)
from ..errors import (
    ChannelClosedError,
    CipherError,
    HandshakeError,
    NetworkError,
    ReproError,
    RevocationError,
    RpcAbortedError,
    SwitchboardError,
)
from ..faults.retry import RetryPolicy
from ..net.transport import Transport
from .authorizer import AuthorizationSuite
from .rpc import (
    CallTable,
    ObjectExporter,
    PendingCall,
    RpcPipeline,
    decode_frame,
    encode_frame,
    serve,
)

SWITCHBOARD_SERVICE = "switchboard"

DATA_MAGIC = b"RSWD1"
"""First bytes of every data envelope; greetings are JSON and start with ``{``."""

REVALIDATE = "<revalidate>"
"""Method name of the call-table entry a pending revalidation holds."""

_conn_ids = itertools.count(1)

DirectoryLookup = Callable[[str], Optional[PublicIdentity]]


class ChannelState(enum.Enum):
    CONNECTING = "connecting"
    OPEN = "open"
    REVOKED = "revoked"
    DEAD = "dead"
    CLOSED = "closed"


class ChannelRevoked(SwitchboardError):
    """A call arrived on a channel awaiting revalidation; crosses the wire
    as the text ``ChannelRevoked: revalidation required``."""


def _handshake_bytes(conn_id: str, role: str, dh_public: int, nonces: list[str]) -> bytes:
    return f"swb-hs|{conn_id}|{role}|{dh_public:x}|{'|'.join(nonces)}".encode()


_GREETING_ERRORS = (ReproError, KeyError, TypeError, ValueError)
"""What checking a greeting from the wire can raise: a typed failure of the
decoders, the PKI, key agreement or the authorizer, or the lookup and type
errors of a frame whose fields are missing or mistyped.  Either end turns
each into a refused handshake, never an exception out of frame delivery."""


def _named_conn_id(outer: dict) -> str:
    """The frame's ``conn_id``, or ``""`` (which names no connection) when
    it is missing or not a string."""
    conn_id = outer.get("conn_id")
    return conn_id if isinstance(conn_id, str) else ""


def _table_key(
    remote_node: str, remote_service: str, suite: AuthorizationSuite
) -> tuple:
    """What a reused connection must share with the dial it stands in for:
    the remote end, the local identity, the presented credentials (equal
    as values, field by field) and the policy applied to the peer."""
    return (
        remote_node,
        remote_service,
        suite.identity.public,
        tuple(suite.credentials),
        suite.authorizer,
    )


@dataclass
class EndpointStats:
    dialled: int = 0
    """Handshakes this endpoint initiated."""
    reused: int = 0
    """``connect`` calls answered from the connection table."""


@dataclass
class ChannelStats:
    frames_sent: int = 0
    frames_received: int = 0
    replays_rejected: int = 0
    tamper_rejected: int = 0
    heartbeats_sent: int = 0
    heartbeats_answered: int = 0
    frames_unroutable: int = 0
    """Frames the network refused at send time (link down, peer crashed).
    The channel treats these like in-flight loss: heartbeats, not the
    sender, decide when the channel is dead."""


class SwitchboardConnection:
    """One secure, monitored end of an established channel."""

    def __init__(
        self,
        endpoint: "SwitchboardEndpoint",
        conn_id: str,
        peer_node: str,
        peer_identity: PublicIdentity,
        cipher: AuthenticatedCipher,
        monitor: ProofMonitor,
        exporter: ObjectExporter,
        *,
        is_initiator: bool,
    ) -> None:
        self.endpoint = endpoint
        self.conn_id = conn_id
        self.peer_node = peer_node
        self.peer_identity = peer_identity
        self.cipher = cipher
        self.exporter = exporter
        self.is_initiator = is_initiator
        self.state = ChannelState.OPEN
        self.stats = ChannelStats()
        self.last_rtt: Optional[float] = None
        self.missed_heartbeats = 0
        self._leases = 1
        self._supervisors = 0
        """:class:`ChannelSupervisor` instances heartbeating this channel."""
        self._table_key: Optional[tuple] = None
        self._send_seq = 0
        self._recv_seq = -1
        cid = conn_id.encode()
        self._envelope_head = DATA_MAGIC + bytes((len(cid),)) + cid + bytes((is_initiator,))
        self.calls = CallTable(endpoint.transport.scheduler)
        self._trust_callbacks: list[Callable[[str], None]] = []
        self._heartbeat_cancel: Callable[[], None] = lambda: None
        self._deadline_cancel: Callable[[], None] = lambda: None
        from .stream import StreamManager  # local import avoids a cycle

        self.streams = StreamManager(self)
        self._last_pong_at: float = endpoint.transport.scheduler.now()
        self._live_counted = True
        obs.counter(metric_names.SWB_CHANNELS_OPENED).inc()
        obs.gauge(metric_names.SWB_CHANNELS_LIVE).inc()
        self._watch(monitor)

    # -- calls -------------------------------------------------------------

    def call(self, target: str, method: str, args: list | None = None) -> PendingCall:
        """Invoke ``method`` on the peer's exported ``target`` object.

        After channel establishment no further access-control checks run —
        the paper's single-sign-on property.  Calls on a revoked or closed
        channel raise :class:`ChannelClosedError`.
        """
        self._require_open()
        pending = self.calls.open(
            method, node=self.endpoint.node_name, channel=self.conn_id, target=target
        )
        pending.started_at = self.endpoint.transport.scheduler.now()
        obs.counter(metric_names.SWB_RPC_CALLS).inc()
        inner = {
            "kind": "call",
            "call_id": pending.call_id,
            "target": target,
            "method": method,
            "args": args or [],
        }
        with obs.activate(pending.span):
            self._send(inner)
        return pending

    def call_sync(self, target: str, method: str, args: list | None = None) -> Any:
        return self.call(target, method, args).wait()

    def pipeline(self, target: str, *, depth: int = 8) -> RpcPipeline:
        """Pipelined calls on the peer's ``target`` object.

        Keeps up to ``depth`` encrypted requests in flight on this
        channel with out-of-order completion; results report in issue
        order (see :class:`~repro.switchboard.rpc.RpcPipeline`).
        """
        return RpcPipeline(
            lambda method, args=None: self.call(target, method, args),
            self.endpoint.transport.scheduler,
            depth=depth,
        )

    # -- heartbeats -----------------------------------------------------------

    def start_heartbeats(self, interval: float, *, max_missed: int = 3) -> None:
        """Begin periodic replay-resistant liveness probes, replacing any
        already running."""
        self.stop_heartbeats()
        scheduler = self.endpoint.transport.scheduler
        self._last_pong_at = scheduler.now()

        def beat() -> None:
            if self.state is not ChannelState.OPEN:
                # Self-cancel so a revoked/closed channel stops ticking;
                # revalidation may call start_heartbeats() again.
                self.stop_heartbeats()
                return
            elapsed = scheduler.now() - self._last_pong_at
            if elapsed > interval * max_missed:
                self.missed_heartbeats = max_missed
                self._transition(ChannelState.DEAD, "heartbeat timeout")
                return
            self.stats.heartbeats_sent += 1
            self._send({"kind": "ping", "t": scheduler.now()})

        self._heartbeat_cancel = scheduler.schedule_every(interval, beat)

    def stop_heartbeats(self) -> None:
        self._heartbeat_cancel()
        self._heartbeat_cancel = lambda: None

    # -- trust lifecycle ---------------------------------------------------------

    def on_trust_change(self, callback: Callable[[str], None]) -> None:
        """Register for trust-relationship changes (revocations)."""
        self._trust_callbacks.append(callback)

    def revalidate(self, credentials: list[Delegation]) -> PendingCall:
        """Ask the peer to re-run its authorizer with fresh credentials.

        On success both sides return to ``OPEN`` (the peer answers through
        the still-keyed channel; the cipher never changed, only the trust
        state did).  While this end's own monitor — over the peer's proof —
        is invalid, nothing is sent: the call fails at once, so the peer
        is never reopened for a round trip this end would refuse.
        """
        if self.state not in (ChannelState.REVOKED, ChannelState.OPEN):
            raise ChannelClosedError(f"cannot revalidate from state {self.state}")
        pending = self.calls.open(REVALIDATE)
        if not self.monitor.check_expiry(self.endpoint.transport.scheduler.now()):
            self.calls.settle(pending.call_id)
            pending.abort(self._cannot_reopen())
            return pending
        self._send(
            {
                "kind": "revalidate",
                "call_id": pending.call_id,
                "credentials": [delegation_to_wire(c) for c in credentials],
            },
            allow_when_revoked=True,
        )
        return pending

    def release(self) -> None:
        """Drop one lease taken by :meth:`SwitchboardEndpoint.connect`; the
        last release closes the channel."""
        self._leases -= 1
        if self._leases <= 0:
            self.close()

    def close(self) -> None:
        """Close the channel for every leaseholder."""
        if self.state is ChannelState.CLOSED:
            return
        try:
            self._send({"kind": "close"}, allow_when_revoked=True)
        except SwitchboardError:
            pass
        self._teardown(ChannelState.CLOSED)

    # -- internals ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self.state is ChannelState.REVOKED:
            raise ChannelClosedError(
                f"channel {self.conn_id} revoked; revalidation required"
            )
        if self.state is not ChannelState.OPEN:
            raise ChannelClosedError(f"channel {self.conn_id} is {self.state.value}")

    def _send(self, inner: dict, *, allow_when_revoked: bool = False) -> None:
        if not allow_when_revoked:
            self._require_open()
        elif self.state in (ChannelState.CLOSED, ChannelState.DEAD):
            raise ChannelClosedError(f"channel {self.conn_id} is {self.state.value}")
        seq = self._send_seq
        self._send_seq += 1
        ad = self._associated_data(sender_is_initiator=self.is_initiator, seq=seq)
        frame = self.cipher.encrypt(encode_frame(inner), ad)
        self.stats.frames_sent += 1
        if obs.is_enabled():
            obs.counter(metric_names.SWB_FRAMES_SENT).inc()
            obs.counter(metric_names.SWB_BYTES_SENT).inc(len(frame))
        try:
            self.endpoint.transport.send(
                self.endpoint.node_name,
                self.peer_node,
                SWITCHBOARD_SERVICE,
                self._envelope_head + seq.to_bytes(8, "big") + frame,
            )
        except NetworkError:
            # No route right now (fault injection).  Equivalent to the
            # frame being lost in flight: the peer's sequence check
            # tolerates the gap and heartbeat liveness detects a channel
            # that stays unreachable.
            self.stats.frames_unroutable += 1

    def _associated_data(self, *, sender_is_initiator: bool, seq: int) -> bytes:
        direction = b"i2r" if sender_is_initiator else b"r2i"
        return self.conn_id.encode() + b"|" + direction + b"|" + seq.to_bytes(8, "big")

    def _receive(self, from_initiator: bool, seq: int, ciphertext: bytes) -> None:
        """Open a sealed frame; one failing authentication or opening to no
        well-formed inner frame is dropped and counted as tampering."""
        if seq <= self._recv_seq:
            self.stats.replays_rejected += 1
            obs.counter(metric_names.SWB_REPLAYS_REJECTED).inc()
            return
        ad = self._associated_data(sender_is_initiator=from_initiator, seq=seq)
        try:
            plaintext = self.cipher.decrypt(ciphertext, ad)
        except CipherError:
            self._reject_tampered()
            return
        self._recv_seq = seq
        self.stats.frames_received += 1
        if obs.is_enabled():
            obs.counter(metric_names.SWB_FRAMES_RECEIVED).inc()
            obs.counter(metric_names.SWB_BYTES_RECEIVED).inc(len(ciphertext))
        try:
            inner = decode_frame(plaintext)
        except SwitchboardError:
            self._reject_tampered()
            return
        self._handle(inner)

    def _reject_tampered(self) -> None:
        self.stats.tamper_rejected += 1
        obs.counter(metric_names.SWB_TAMPER_REJECTED).inc()

    def _handle(self, inner: dict) -> None:
        kind = inner.get("kind")
        if kind in ("stream", "stream-end"):
            self.streams.handle(inner)
        elif kind == "call":
            self._serve_call(inner)
        elif kind == "result":
            self._complete_call(inner)
        elif kind == "ping":
            self._send({"kind": "pong", "t": inner["t"]}, allow_when_revoked=True)
        elif kind == "pong":
            now = self.endpoint.transport.scheduler.now()
            self.last_rtt = now - float(inner["t"])
            self._last_pong_at = now
            self.missed_heartbeats = 0
            self.stats.heartbeats_answered += 1
        elif kind == "revoked":
            self._transition(ChannelState.REVOKED, inner.get("credential_id", "peer"))
        elif kind == "revalidate":
            self._serve_revalidate(inner)
        elif kind == "revalidated":
            self._complete_revalidate(inner)
        elif kind == "close":
            self._teardown(ChannelState.CLOSED)
        else:
            self._reject_tampered()

    def _serve_call(self, inner: dict) -> None:
        response = {"kind": "result", "call_id": inner["call_id"]}
        serve(
            self._dispatch, inner, response, self._reply,
            self.endpoint.transport.delivery_ctx,
            node=self.endpoint.node_name, channel=self.conn_id,
        )

    def _dispatch(self, target: str, method: str, args: list) -> Any:
        if self.state is not ChannelState.OPEN:
            # Paper: monitors "can ... requir[e] a component to revalidate
            # itself prior to approving future requests".
            raise ChannelRevoked("revalidation required")
        return self.exporter.dispatch(target, method, args)

    def _reply(self, inner: dict, response: dict) -> None:
        self._send(response, allow_when_revoked=True)

    def _complete_call(self, inner: dict) -> None:
        pending = self.calls.settle(inner["call_id"])
        if pending is None:
            return
        if pending.started_at is not None:
            obs.histogram(metric_names.SWB_RPC_LATENCY).observe(
                self.endpoint.transport.scheduler.now() - pending.started_at
            )
        if "error" in inner:
            obs.counter(metric_names.SWB_RPC_FAILURES).inc()
            pending.fail(inner["error"])
        else:
            pending.resolve(inner.get("value"))

    def _serve_revalidate(self, inner: dict) -> None:
        credentials = [delegation_from_wire(c) for c in inner.get("credentials", [])]
        suite = self.endpoint.suite_for(self.conn_id)
        response: dict[str, Any] = {"kind": "revalidated", "call_id": inner["call_id"]}
        try:
            new_monitor = suite.authorizer.authorize(self.peer_identity, credentials)
        except HandshakeError as exc:
            response["error"] = str(exc)
        else:
            self.monitor.close()
            self._watch(new_monitor)
            self.state = ChannelState.OPEN
            response["ok"] = True
        self._reply(inner, response)

    def _complete_revalidate(self, inner: dict) -> None:
        # Only the end holding an open revalidation may act on the frame:
        # an unsolicited ``revalidated`` from a revoked peer must not
        # reopen this end behind its (still invalid) monitor.
        pending = self.calls.get(inner["call_id"])
        if pending is None or pending.method != REVALIDATE:
            return
        self.calls.settle(pending.call_id)
        if "error" in inner:
            pending.fail(inner["error"])
        elif self.monitor.check_expiry(self.endpoint.transport.scheduler.now()):
            self.state = ChannelState.OPEN
            pending.resolve(True)
        else:
            # The peer re-accepted us, but this end's monitor watches the
            # *peer's* proof, and that is gone: stay revoked and send the
            # peer back to revoked with us.
            self._on_trust_change(self.monitor.invalidated_by)
            pending.abort(self._cannot_reopen())

    def _cannot_reopen(self) -> RevocationError:
        return RevocationError(
            f"channel {self.conn_id}: peer's proof invalidated by "
            f"{self.monitor.invalidated_by}; revalidation cannot reopen it"
        )

    def _watch(self, monitor: ProofMonitor) -> None:
        """Make ``monitor`` this channel's: its revocation, or the first
        instant past its deadline (when ``Delegation.is_expired`` and a
        fresh proof search start to fail), flips the channel to ``REVOKED``."""
        self._deadline_cancel()
        self.monitor = monitor
        monitor.on_invalidated(self._on_trust_change)
        if monitor.expires_at is not None:
            scheduler = self.endpoint.transport.scheduler
            self._deadline_cancel = scheduler.schedule_at(
                max(math.nextafter(monitor.expires_at, math.inf), scheduler.now()),
                lambda: monitor.check_expiry(scheduler.now()),
            )

    def _on_trust_change(self, credential_id: str) -> None:
        if self.state in (ChannelState.CLOSED, ChannelState.DEAD):
            return
        try:
            self._send(
                {"kind": "revoked", "credential_id": credential_id},
                allow_when_revoked=True,
            )
        except SwitchboardError:
            pass
        self._transition(ChannelState.REVOKED, credential_id)

    def _transition(self, state: ChannelState, reason: str) -> None:
        if self.state is state:
            return
        if state is ChannelState.DEAD:
            self._teardown(state)
        else:
            self.state = state
            obs.counter(metric_names.SWB_CHANNELS_REVOKED).inc()
            self.endpoint._unlist(self)
        self.streams.abort_all()
        for callback in list(self._trust_callbacks):
            callback(reason)

    def _teardown(self, state: ChannelState) -> None:
        """The one way a channel stops carrying calls and leaves its
        endpoint: ``CLOSED`` by either end, or ``DEAD`` when heartbeats
        lapse or the initiator vanishes mid-handshake.

        Heartbeats and the deadline timer stop, the monitor closes, the
        live-channel gauge drops exactly once per connection, and every
        in-flight call fails with a typed
        :class:`~repro.errors.RpcAbortedError` (counted as an RPC
        failure) — a channel torn down mid-RPC must not leave callers
        blocked on a future that can never complete.  A frame that later
        names this connection is dropped like any frame naming no
        connection.
        """
        self._deadline_cancel()
        self.stop_heartbeats()
        self.monitor.close()
        self.state = state
        obs.counter(
            metric_names.SWB_CHANNELS_DEAD
            if state is ChannelState.DEAD
            else metric_names.SWB_CHANNELS_CLOSED
        ).inc()
        if self._live_counted:
            self._live_counted = False
            obs.gauge(metric_names.SWB_CHANNELS_LIVE).dec()
        aborted = self.calls.abort_all(
            lambda call: RpcAbortedError(
                f"channel {self.conn_id} {self.state.value} before call "
                f"{call.method!r} completed"
            )
        )
        if aborted:
            obs.counter(metric_names.SWB_RPC_FAILURES).inc(aborted)
        self.endpoint._unlist(self)
        self.endpoint._forget(self.conn_id)


class SwitchboardEndpoint:
    """Per-node Switchboard service: accepts and initiates connections."""

    def __init__(
        self,
        transport: Transport,
        node_name: str,
        *,
        directory: DirectoryLookup | None = None,
    ) -> None:
        self.transport = transport
        self.node_name = node_name
        self.directory = directory
        self.exporter = ObjectExporter()
        self._listeners: dict[str, AuthorizationSuite] = {}
        self._connections: dict[str, SwitchboardConnection] = {}
        self._conn_suites: dict[str, AuthorizationSuite] = {}
        self._dials: dict[str, _Dial] = {}
        self._table: dict[tuple, SwitchboardConnection] = {}
        """Open dialled connections by :func:`_table_key`."""
        self.stats = EndpointStats()
        transport.network.node(node_name).bind(SWITCHBOARD_SERVICE, self._on_frame)

    # -- server side -----------------------------------------------------------

    def listen(self, service_name: str, suite: AuthorizationSuite) -> None:
        """Accept connections addressed to ``service_name`` with ``suite``."""
        self._listeners[service_name] = suite

    def export(self, name: str, obj: Any) -> None:
        self.exporter.export(name, obj)

    # -- client side ------------------------------------------------------------

    def connect(
        self, remote_node: str, remote_service: str, suite: AuthorizationSuite
    ) -> "PendingConnection":
        """A future SwitchboardConnection: an open one from the connection
        table with one more lease, else a fresh handshake."""
        key = _table_key(remote_node, remote_service, suite)
        listed = self._table.get(key)
        if listed is not None and self._still_current(listed, suite):
            listed._leases += 1
            self.stats.reused += 1
            if obs.is_enabled():
                obs.counter(metric_names.SWB_HANDSHAKES_REUSED).inc()
            return PendingConnection(_Dial.settled(listed, suite), self)
        conn_id = f"conn-{next(_conn_ids)}-{secrets.token_hex(4)}"
        self.stats.dialled += 1
        obs.counter(metric_names.SWB_HANDSHAKES_INITIATED).inc()
        dh = DiffieHellman()
        nonce = secrets.token_hex(16)
        dial = _Dial(conn_id=conn_id, suite=suite, dh=dh, nonce=nonce, key=key)
        self._dials[conn_id] = dial
        self._conn_suites[conn_id] = suite
        head = {"type": "hello", "conn_id": conn_id, "service": remote_service}
        try:
            self._greet(remote_node, head, {}, "initiator", suite, dh, [nonce])
        except NetworkError:
            self._drop_dial(conn_id)
            raise
        return PendingConnection(dial, self)

    # -- shared ---------------------------------------------------------------------

    def connections(self) -> list[SwitchboardConnection]:
        return list(self._connections.values())

    def suite_for(self, conn_id: str) -> AuthorizationSuite:
        suite = self._conn_suites.get(conn_id)
        if suite is None:
            raise SwitchboardError(f"no suite recorded for connection {conn_id}")
        return suite

    def _forget(self, conn_id: str) -> None:
        self._connections.pop(conn_id, None)
        self._conn_suites.pop(conn_id, None)

    def _still_current(
        self, listed: SwitchboardConnection, suite: AuthorizationSuite
    ) -> bool:
        """Redo the one clock check a fresh handshake would make here
        before a listed connection serves another dial.  A revocation or a
        lapse in the peer's proof needs no check (the monitor's event
        unlists the connection as it lands), but a lapse in our own
        presented credentials is only seen by the peer, whose ``revoked``
        frame a partition may lose: it unlists the connection here, so
        the redial goes back to the peer's authorizer."""
        now = self.transport.scheduler.now()
        if any(c.is_expired(now) for c in suite.credentials):
            self._unlist(listed)
            return False
        return True

    def _unlist(self, connection: SwitchboardConnection) -> None:
        """Take ``connection`` out of the connection table, if listed."""
        if self._table.get(connection._table_key) is connection:
            del self._table[connection._table_key]

    def _drop_dial(self, conn_id: str) -> Optional["_Dial"]:
        """Forget a dial that will not resolve here (failed, or given up)."""
        self._conn_suites.pop(conn_id, None)
        return self._dials.pop(conn_id, None)

    def call_tables(self) -> list[tuple[str, CallTable]]:
        """``(label, table)`` for every live connection's call table."""
        return [
            (f"{self.node_name}/{conn.conn_id}", conn.calls)
            for conn in self._connections.values()
        ]

    # -- handshake, the half both directions share ---------------------------------

    def _greet(
        self,
        dest: str,
        head: dict,
        echo: dict,
        role: str,
        suite: AuthorizationSuite,
        dh: DiffieHellman,
        nonces: list[str],
    ) -> None:
        """Send a signed HELLO/WELCOME: ``head``, who we are, our DH value,
        ``echo``, our nonce (the last of the transcript's ``nonces``), the
        credentials we present, and a signature binding all of it."""
        signature = suite.identity.sign(
            _handshake_bytes(head["conn_id"], role, dh.public_value, nonces)
        )
        greeting = {
            **head,
            "reply_to": self.node_name,
            "identity": public_identity_to_wire(suite.identity.public),
            "dh": f"{dh.public_value:x}",
            **echo,
            "nonce": nonces[-1],
            "credentials": [delegation_to_wire(c) for c in suite.credentials],
            "sig": signature.hex(),
        }
        self.transport.send(
            self.node_name, dest, SWITCHBOARD_SERVICE, encode_frame(greeting)
        )

    def _verify_peer(
        self,
        outer: dict,
        sender: str,
        role: str,
        nonces: list[str],
        suite: AuthorizationSuite,
        dh: DiffieHellman,
    ) -> tuple[PublicIdentity, bytes, ProofMonitor]:
        """Check a greeting node ``sender`` sent in ``role``: its addressing,
        the claimed identity against the PKI directory, the signature over
        the transcript (proof of key possession), key agreement with our
        ``dh``, then the presented credentials against our authorizer.
        Raises one of :data:`_GREETING_ERRORS` on any failure; returns the
        peer's identity, the session key and the monitor now watching its
        proof.  Authorization comes last, so a failure leaves no monitor
        behind."""
        conn_id = outer["conn_id"]
        if (
            not isinstance(conn_id, str)
            or len(conn_id.encode()) > 255  # its length is one envelope byte
            or outer["reply_to"] != sender
        ):
            raise HandshakeError(f"{role} greeting misaddressed")
        identity = public_identity_from_wire(outer["identity"])
        expected = None if self.directory is None else self.directory(identity.name)
        if expected is not None and expected.public_key != identity.public_key:
            raise HandshakeError(f"identity binding mismatch for {identity.name!r}")
        peer_dh = int(outer["dh"], 16)
        transcript = _handshake_bytes(conn_id, role, peer_dh, nonces)
        if not identity.verify(transcript, bytes.fromhex(outer["sig"])):
            raise HandshakeError(f"{role} signature invalid")
        session_key = dh.compute_shared(peer_dh)
        credentials = [delegation_from_wire(c) for c in outer["credentials"]]
        return identity, session_key, suite.authorizer.authorize(identity, credentials)

    # -- frame handling -----------------------------------------------------------

    def _on_frame(self, payload: bytes, sender: str) -> None:
        if payload.startswith(DATA_MAGIC):
            self._on_data(payload)
            return
        outer = decode_frame(payload)
        kind = outer.get("type")
        if kind == "hello":
            self._on_hello(outer, sender)
        elif kind == "welcome":
            self._on_welcome(outer, sender)
        elif kind == "reject":
            self._on_reject(outer)
        else:
            raise SwitchboardError(f"unknown switchboard frame {kind!r}")

    def _on_data(self, envelope: bytes) -> None:
        """Hand a data envelope to the connection it names.  One naming no
        live connection is dropped; one cut short, or whose flag byte is
        not the peer's direction, counts as tampering on its connection.
        Both directions share one key, so the flag check is what stops a
        frame reflected back to its sender from opening there."""
        at = len(DATA_MAGIC) + 1
        end = at + envelope[at - 1] if len(envelope) >= at else at
        try:
            conn = self._connections.get(envelope[at:end].decode())
        except UnicodeDecodeError:
            return
        if conn is None:
            return
        flag, seq = envelope[end : end + 1], envelope[end + 1 : end + 9]
        if flag != bytes((not conn.is_initiator,)) or len(seq) < 8:
            conn._reject_tampered()
            return
        conn._receive(flag == b"\x01", int.from_bytes(seq, "big"), envelope[end + 9 :])

    def _on_hello(self, outer: dict, sender: str) -> None:
        def reject(reason: str) -> None:
            obs.counter(metric_names.SWB_HANDSHAKES_REJECTED).inc()
            try:
                self.transport.send(
                    self.node_name,
                    sender,
                    SWITCHBOARD_SERVICE,
                    encode_frame(
                        {
                            "type": "reject",
                            "conn_id": outer.get("conn_id"),
                            "reason": reason,
                        }
                    ),
                )
            except NetworkError:
                pass  # initiator unreachable; its dial simply never resolves

        service = outer.get("service")
        suite = self._listeners.get(service) if isinstance(service, str) else None
        if suite is None:
            reject(f"no such service {service!r}")
            return
        dh = DiffieHellman()
        try:
            peer_identity, session_key, monitor = self._verify_peer(
                outer, sender, "initiator", [outer["nonce"]], suite, dh
            )
        except _GREETING_ERRORS as exc:
            reject(str(exc))
            return

        conn_id = outer["conn_id"]
        nonce = secrets.token_hex(16)
        connection = SwitchboardConnection(
            endpoint=self,
            conn_id=conn_id,
            peer_node=sender,
            peer_identity=peer_identity,
            cipher=AuthenticatedCipher(session_key),
            monitor=monitor,
            exporter=self.exporter,
            is_initiator=False,
        )
        self._connections[conn_id] = connection
        self._conn_suites[conn_id] = suite
        obs.counter(metric_names.SWB_HANDSHAKES_ACCEPTED).inc()
        head = {"type": "welcome", "conn_id": conn_id}
        echo = {"client_nonce": outer["nonce"]}
        try:
            self._greet(
                sender, head, echo, "responder", suite, dh, [outer["nonce"], nonce]
            )
        except NetworkError:
            # The initiator became unreachable mid-handshake; discard the
            # half-open end rather than keep a channel it never learns of.
            connection._teardown(ChannelState.DEAD)

    def _on_welcome(self, outer: dict, sender: str) -> None:
        conn_id = _named_conn_id(outer)
        dial = self._dials.pop(conn_id, None)
        if dial is None:
            return
        try:
            if outer.get("client_nonce") != dial.nonce:
                raise HandshakeError("responder echoed wrong nonce")
            peer_identity, session_key, monitor = self._verify_peer(
                outer, sender, "responder", [dial.nonce, outer["nonce"]],
                dial.suite, dial.dh,
            )
        except _GREETING_ERRORS as exc:
            dial.fail(str(exc))
            self._conn_suites.pop(conn_id, None)
            return
        connection = SwitchboardConnection(
            endpoint=self,
            conn_id=conn_id,
            peer_node=sender,
            peer_identity=peer_identity,
            cipher=AuthenticatedCipher(session_key),
            monitor=monitor,
            exporter=self.exporter,
            is_initiator=True,
        )
        self._connections[conn_id] = connection
        connection._table_key = dial.key
        self._table[dial.key] = connection
        dial.resolve(connection)

    def _on_reject(self, outer: dict) -> None:
        dial = self._drop_dial(_named_conn_id(outer))
        if dial is not None:
            dial.fail(outer.get("reason", "rejected"))


@dataclass
class _Dial:
    """Client-side handshake state awaiting WELCOME/REJECT."""

    conn_id: str
    suite: AuthorizationSuite
    dh: Optional[DiffieHellman]
    nonce: str
    key: tuple = ()
    done: bool = False
    connection: Optional[SwitchboardConnection] = None
    error: Optional[str] = None

    @classmethod
    def settled(
        cls, connection: SwitchboardConnection, suite: AuthorizationSuite
    ) -> "_Dial":
        """A dial already answered by an open connection."""
        return cls(connection.conn_id, suite, None, "", done=True, connection=connection)

    def resolve(self, connection: SwitchboardConnection) -> None:
        self.done = True
        self.connection = connection

    def fail(self, reason: str) -> None:
        self.done = True
        self.error = reason


class PendingConnection:
    """Future for an in-flight handshake."""

    def __init__(self, dial: _Dial, endpoint: SwitchboardEndpoint) -> None:
        self._dial = dial
        self._endpoint = endpoint
        self._scheduler = endpoint.transport.scheduler

    @property
    def done(self) -> bool:
        return self._dial.done

    @property
    def connection(self) -> SwitchboardConnection:
        if not self._dial.done:
            raise SwitchboardError("handshake not complete")
        if self._dial.error is not None:
            raise HandshakeError(self._dial.error)
        assert self._dial.connection is not None
        return self._dial.connection

    def abandon(self) -> None:
        """Give up on a handshake still in flight: a late WELCOME or REJECT
        for it is then ignored, so it cannot open a connection nobody
        holds."""
        if not self._dial.done:
            self._endpoint._drop_dial(self._dial.conn_id)
            self._dial.fail("abandoned")

    def wait(self, *, max_events: int = 100_000) -> SwitchboardConnection:
        steps = 0
        while not self._dial.done:
            if not self._scheduler.step():
                raise HandshakeError("event queue drained before handshake completed")
            steps += 1
            if steps > max_events:
                raise HandshakeError("handshake did not complete")
        return self.connection


class ChannelSupervisor:
    """Keeps one logical channel alive across faults.

    Wraps an endpoint→service connection with heartbeat liveness and
    automatic re-establishment: when heartbeats declare the channel
    ``DEAD`` (link down, domain partition, peer crash), the supervisor
    redials on a :class:`~repro.faults.retry.RetryPolicy` schedule until
    a fresh handshake succeeds, then resumes heartbeats on the new
    connection.  Every step runs on the virtual clock, so supervised
    recovery is deterministic under a seeded fault plan.

    The supervisor deliberately does **not** replay in-flight calls: the
    dead channel aborted them with
    :class:`~repro.errors.RpcAbortedError`, and whether re-invocation is
    safe is an application property (see
    :meth:`PlainRpcEndpoint.call_with_retry` for the at-least-once
    variant).
    """

    def __init__(
        self,
        endpoint: SwitchboardEndpoint,
        remote_node: str,
        remote_service: str,
        suite: AuthorizationSuite,
        *,
        heartbeat_interval: float = 0.5,
        max_missed: int = 3,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.remote_node = remote_node
        self.remote_service = remote_service
        self.suite = suite
        self.heartbeat_interval = heartbeat_interval
        self.max_missed = max_missed
        self.policy = policy or RetryPolicy.exponential(
            base_delay=heartbeat_interval,
            max_attempts=8,
            max_delay=4 * heartbeat_interval,
        )
        self.connection: SwitchboardConnection | None = None
        self.reconnects = 0
        self.gave_up = False
        self._stopped = False
        self._died_at: float | None = None

    @property
    def _scheduler(self):
        return self.endpoint.transport.scheduler

    @property
    def healthy(self) -> bool:
        return (
            self.connection is not None
            and self.connection.state is ChannelState.OPEN
        )

    def start(self) -> "ChannelSupervisor":
        """Dial the initial connection and begin supervising it."""
        self._dial(is_reconnect=False)
        return self

    def stop(self) -> None:
        """End supervision and release the live connection, if any.  The
        connection may be shared, so its heartbeats stop with the last
        supervisor on it rather than with its last lease."""
        self._stopped = True
        connection = self.connection
        if connection is not None and connection.state in (
            ChannelState.OPEN,
            ChannelState.REVOKED,
        ):
            connection._supervisors -= 1
            if not connection._supervisors:
                connection.stop_heartbeats()
            connection.release()
        self.connection = None

    # -- internals ---------------------------------------------------------

    def _dial(self, *, is_reconnect: bool) -> None:
        schedule = self.policy.schedule()

        def attempt() -> None:
            if self._stopped:
                return
            try:
                pending = self.endpoint.connect(
                    self.remote_node, self.remote_service, self.suite
                )
            except NetworkError:
                pending = None  # no route yet; retry on the schedule
            self._scheduler.schedule(
                self.heartbeat_interval, lambda: settle(pending)
            )

        def settle(pending: PendingConnection | None) -> None:
            if self._stopped:
                return
            if pending is not None and pending.done:
                try:
                    self._adopt(pending.connection, is_reconnect=is_reconnect)
                    return
                except SwitchboardError:
                    pass  # handshake rejected; fall through to retry
            elif pending is not None:
                pending.abandon()  # too slow; the retry dials afresh
            wait = schedule.next_delay()
            if wait is None:
                self.gave_up = True
                return
            self._scheduler.schedule(wait, attempt)

        attempt()

    def _adopt(
        self, connection: SwitchboardConnection, *, is_reconnect: bool
    ) -> None:
        self.connection = connection
        connection._supervisors += 1
        connection.on_trust_change(self._on_channel_event)
        connection.start_heartbeats(
            self.heartbeat_interval, max_missed=self.max_missed
        )
        if is_reconnect:
            self.reconnects += 1
            obs.counter(metric_names.SWB_CHANNELS_REESTABLISHED).inc()
            if self._died_at is not None:
                obs.histogram(metric_names.SWB_RECONNECT_LATENCY).observe(
                    self._scheduler.now() - self._died_at
                )
                self._died_at = None

    def _on_channel_event(self, reason: str) -> None:
        connection = self.connection
        if self._stopped or connection is None:
            return
        if connection.state is ChannelState.DEAD:
            self.connection = None
            self._died_at = self._scheduler.now()
            self._dial(is_reconnect=True)
