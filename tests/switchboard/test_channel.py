"""Switchboard channel tests: handshake, confidentiality, replay,
heartbeats, continuous authorization, and revalidation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.crypto import KeyStore
from repro.drbac import DrbacEngine, EntityRef, Role
from repro.errors import ChannelClosedError, HandshakeError, SwitchboardError
from repro.net import EventScheduler, Network, Transport
from repro.obs import names as metric_names
from repro.switchboard import (
    AcceptAllAuthorizer,
    AuthorizationSuite,
    ChannelState,
    RoleAuthorizer,
    SwitchboardEndpoint,
)
from repro.switchboard.channel import DATA_MAGIC, _handshake_bytes


class MailBoxService:
    def __init__(self):
        self.notes = []

    def inbox(self):
        return ["m1", "m2"]

    def note(self, text):
        self.notes.append(text)
        return len(self.notes)


def _make_world(key_store: KeyStore):
    engine = DrbacEngine(key_store=key_store)
    net = Network()
    net.add_node("cnode")
    net.add_node("snode")
    net.add_link("cnode", "snode", latency_s=0.005, secure=False)
    scheduler = EventScheduler()
    transport = Transport(net, scheduler)
    directory = lambda name: (
        key_store.public(name) if name in key_store else None
    )
    client_ep = SwitchboardEndpoint(transport, "cnode", directory=directory)
    server_ep = SwitchboardEndpoint(transport, "snode", directory=directory)
    service = MailBoxService()
    server_ep.export("mail", service)
    return engine, transport, client_ep, server_ep, service


@pytest.fixture()
def world(key_store: KeyStore):
    return _make_world(key_store)


def _suite(engine, name, credentials=(), authorizer=None):
    return AuthorizationSuite(
        identity=engine.identity(name),
        credentials=list(credentials),
        authorizer=authorizer or AcceptAllAuthorizer(),
    )


def _open_channel(engine, client_ep, server_ep, *, server_authorizer=None, client="Alice"):
    cred = engine.delegate("Comp.NY", client, "Comp.NY.Member")
    server_ep.listen(
        "mail",
        _suite(
            engine,
            "MailService",
            authorizer=server_authorizer or RoleAuthorizer(engine, "Comp.NY.Member"),
        ),
    )
    pending = client_ep.connect("snode", "mail", _suite(engine, client, [cred]))
    return pending.wait(), cred


class TestHandshake:
    def test_successful_connect(self, world):
        engine, _, client_ep, server_ep, _ = world
        conn, _ = _open_channel(engine, client_ep, server_ep)
        assert conn.state is ChannelState.OPEN
        assert conn.peer_identity.name == "MailService"

    def test_unknown_service_rejected(self, world):
        engine, _, client_ep, server_ep, _ = world
        pending = client_ep.connect("snode", "ghost", _suite(engine, "Alice"))
        with pytest.raises(HandshakeError, match="no such service"):
            pending.wait()

    def test_unauthorized_client_rejected(self, world):
        engine, _, client_ep, server_ep, _ = world
        server_ep.listen(
            "mail",
            _suite(engine, "MailService", authorizer=RoleAuthorizer(engine, "Comp.NY.Member")),
        )
        pending = client_ep.connect("snode", "mail", _suite(engine, "Mallory"))
        with pytest.raises(HandshakeError, match="failed to prove"):
            pending.wait()

    def test_identity_binding_mismatch_rejected(self, world, key_store):
        engine, _, client_ep, server_ep, _ = world
        server_ep.listen("mail", _suite(engine, "MailService"))
        engine.identity("Alice")  # the real Alice exists in the PKI
        # Mallory claims to be Alice but signs with her own key.
        mallory = engine.identity("Mallory2")
        fake = AuthorizationSuite(
            identity=type(mallory)(name="Alice", private_key=mallory.private_key),
        )
        pending = client_ep.connect("snode", "mail", fake)
        with pytest.raises(HandshakeError, match="binding mismatch"):
            pending.wait()

    def test_server_identity_verified_by_client(self, world):
        engine, _, client_ep, server_ep, _ = world
        engine.identity("MailService")  # the real service exists in the PKI
        # Server claims to be "MailService" but uses Imposter's key.
        imposter = engine.identity("Imposter")
        server_ep.listen(
            "mail",
            AuthorizationSuite(
                identity=type(imposter)(name="MailService", private_key=imposter.private_key)
            ),
        )
        pending = client_ep.connect("snode", "mail", _suite(engine, "Alice"))
        with pytest.raises(HandshakeError, match="binding mismatch"):
            pending.wait()


class TestCalls:
    def test_round_trip(self, world):
        engine, _, client_ep, server_ep, _ = world
        conn, _ = _open_channel(engine, client_ep, server_ep)
        assert conn.call_sync("mail", "inbox") == ["m1", "m2"]

    def test_no_plaintext_on_wire(self, world):
        engine, transport, client_ep, server_ep, _ = world
        snoops = []
        transport.observe_link("cnode", "snode", lambda p, s, d: snoops.append(p))
        conn, _ = _open_channel(engine, client_ep, server_ep)
        conn.call_sync("mail", "note", ["EXTREMELY_SECRET"])
        assert not any(b"EXTREMELY_SECRET" in p for p in snoops)

    def test_server_state_mutated(self, world):
        engine, _, client_ep, server_ep, service = world
        conn, _ = _open_channel(engine, client_ep, server_ep)
        conn.call_sync("mail", "note", ["hello"])
        assert service.notes == ["hello"]

    def test_call_on_closed_channel(self, world):
        engine, transport, client_ep, server_ep, _ = world
        conn, _ = _open_channel(engine, client_ep, server_ep)
        conn.close()
        transport.scheduler.run()
        with pytest.raises(ChannelClosedError):
            conn.call("mail", "inbox")


def _client_envelopes(frames):
    """The client->server data envelopes among captured ``(payload, src, dst)``."""
    return [p for (p, s, d) in frames if s == "cnode" and p.startswith(DATA_MAGIC)]


def _split_envelope(envelope):
    """``(head, seq, sealed)``: the bytes up to and including the
    ``from_initiator`` flag, the sequence number, and the sealed frame."""
    end = len(DATA_MAGIC) + 1 + envelope[len(DATA_MAGIC)] + 1
    return envelope[:end], int.from_bytes(envelope[end : end + 8], "big"), envelope[end + 8 :]


def _envelope(head, seq, sealed):
    return head + seq.to_bytes(8, "big") + sealed


def _flip(data, index):
    return data[:index] + bytes((data[index] ^ 1,)) + data[index + 1 :]


class TestReplayAndTamper:
    def _capture_data_frames(self, transport):
        frames = []
        transport.observe_link("cnode", "snode", lambda p, s, d: frames.append((p, s, d)))
        return frames

    def test_replayed_frame_rejected(self, world):
        engine, transport, client_ep, server_ep, service = world
        frames = self._capture_data_frames(transport)
        conn, _ = _open_channel(engine, client_ep, server_ep)
        conn.call_sync("mail", "note", ["once"])
        # Find the client->server data frame and replay it verbatim.
        data_frames = _client_envelopes(frames)
        assert data_frames
        replay = data_frames[-1]
        server_conn = server_ep.connections()[0]
        before = server_conn.stats.replays_rejected
        transport.send("cnode", "snode", "switchboard", replay)
        transport.scheduler.run()
        assert server_conn.stats.replays_rejected == before + 1
        assert service.notes == ["once"]  # not applied twice

    def test_tampered_frame_rejected(self, world):
        engine, transport, client_ep, server_ep, service = world
        frames = self._capture_data_frames(transport)
        conn, _ = _open_channel(engine, client_ep, server_ep)
        conn.call_sync("mail", "note", ["real"])
        head, seq, sealed = _split_envelope(_client_envelopes(frames)[-1])
        # A fresh seq, but the MAC over it now fails.
        forged = _envelope(head, seq + 1000, sealed)
        server_conn = server_ep.connections()[0]
        before = server_conn.stats.tamper_rejected
        transport.send("cnode", "snode", "switchboard", forged)
        transport.scheduler.run()
        assert server_conn.stats.tamper_rejected == before + 1

    def test_corrupted_ciphertext_counts_as_tamper(self, world):
        engine, transport, client_ep, server_ep, service = world
        frames = self._capture_data_frames(transport)
        conn, _ = _open_channel(engine, client_ep, server_ep)
        conn.call_sync("mail", "note", ["real"])
        last = [p for (p, s, d) in frames if s == "cnode"][-1]
        assert last.startswith(DATA_MAGIC)
        head, seq, sealed = _split_envelope(last)
        server_conn = server_ep.connections()[0]
        transport.send(
            "cnode", "snode", "switchboard", _envelope(head, seq + 1, _flip(sealed, 20))
        )
        transport.scheduler.run()  # must not raise out of _on_frame
        assert server_conn.stats.tamper_rejected == 1
        assert server_conn.state is ChannelState.OPEN
        assert conn.call_sync("mail", "note", ["again"]) == 2


def _open_and_capture(world):
    """Open a channel, make one real call, and return the client end, the
    server end and that call's envelope."""
    engine, transport, client_ep, server_ep, _ = world
    frames = []
    transport.observe_link("cnode", "snode", lambda p, s, d: frames.append((p, s, d)))
    conn, _ = _open_channel(engine, client_ep, server_ep)
    conn.call_sync("mail", "note", ["real"])
    return conn, server_ep.connections()[0], _client_envelopes(frames)[-1]


MALFORMED_ENVELOPES = {
    "short-header": lambda head, seq, sealed: head[:-1],
    "truncated-seq": lambda head, seq, sealed: head + seq.to_bytes(8, "big")[:5],
    "flag-byte-2": lambda head, seq, sealed: _envelope(head[:-1] + b"\x02", seq, sealed),
    "bad-tag": lambda head, seq, sealed: _envelope(head, seq, _flip(sealed, len(sealed) - 1)),
}

UNROUTED_ENVELOPES = {
    "magic-only": lambda head: DATA_MAGIC,
    "undecodable-conn-id": lambda head: DATA_MAGIC + b"\x02\xff\xfe" + head[-1:],
    "unknown-conn-id": lambda head: DATA_MAGIC + b"\x0bconn-0-none" + head[-1:],
}


class TestMalformedDataFrames:
    """Anyone on an insecure link can read a live ``conn_id``.  A data frame
    built around one never raises a builtin error out of frame delivery: a
    JSON ``data`` frame is an unknown kind, and a malformed envelope is
    dropped and counted."""

    @pytest.mark.parametrize(
        "fields",
        [{"frame": "00"}, {"seq": "x", "frame": "00"}, {"seq": 5, "frame": 5}],
        ids=["missing-seq", "non-integer-seq", "non-string-frame"],
    )
    def test_json_data_frame_is_an_unknown_kind(self, world, fields):
        engine, transport, client_ep, server_ep, service = world
        conn, _ = _open_channel(engine, client_ep, server_ep)
        frame = {"type": "data", "conn_id": conn.conn_id, "from_initiator": True, **fields}
        transport.send("cnode", "snode", "switchboard", json.dumps(frame).encode())
        with pytest.raises(SwitchboardError, match="unknown switchboard frame"):
            transport.scheduler.run()
        assert server_ep.connections()[0].state is ChannelState.OPEN
        assert conn.call_sync("mail", "note", ["after"]) == 1

    @pytest.mark.parametrize("shape", sorted(MALFORMED_ENVELOPES))
    def test_malformed_envelope_counts_as_tamper(self, world, shape):
        _, transport, _, _, service = world
        conn, server_conn, captured = _open_and_capture(world)
        head, seq, sealed = _split_envelope(captured)
        envelope = MALFORMED_ENVELOPES[shape](head, seq + 1, sealed)
        transport.send("cnode", "snode", "switchboard", envelope)
        transport.scheduler.run()  # never raises out of frame delivery
        assert server_conn.stats.tamper_rejected == 1
        assert server_conn.stats.replays_rejected == 0
        assert service.notes == ["real"]
        assert server_conn.state is ChannelState.OPEN
        assert conn.call_sync("mail", "note", ["again"]) == 2

    def test_reflected_envelope_counts_as_tamper(self, world):
        # Both directions share one key: a call sent back to its own sender
        # before the real reply arrives must not be served there.
        engine, transport, client_ep, server_ep, service = world
        frames = []
        transport.observe_link("cnode", "snode", lambda p, s, d: frames.append((p, s, d)))
        conn, _ = _open_channel(engine, client_ep, server_ep)
        client_service = MailBoxService()
        client_ep.export("mail", client_service)
        pending = conn.call("mail", "note", ["once"])
        transport.send("snode", "cnode", "switchboard", _client_envelopes(frames)[-1])
        transport.scheduler.run()
        assert client_service.notes == []
        assert conn.stats.tamper_rejected == 1
        assert pending.wait() == 1
        assert service.notes == ["once"]

    @pytest.mark.parametrize("shape", sorted(UNROUTED_ENVELOPES))
    def test_envelope_naming_no_connection_is_dropped(self, world, shape):
        _, transport, _, _, service = world
        conn, server_conn, captured = _open_and_capture(world)
        head, seq, sealed = _split_envelope(captured)
        envelope = _envelope(UNROUTED_ENVELOPES[shape](head), seq + 1, sealed)
        transport.send("cnode", "snode", "switchboard", envelope)
        transport.scheduler.run()  # never raises out of frame delivery
        assert server_conn.stats.tamper_rejected == 0
        assert server_conn.stats.replays_rejected == 0
        assert service.notes == ["real"]
        assert conn.call_sync("mail", "note", ["again"]) == 2


MALFORMED_INNER_FRAMES = {
    "ping-without-t": b'{"kind":"ping"}',
    "pong-string-t": b'{"kind":"pong","t":"x"}',
    "call-without-call-id": b'{"kind":"call","target":"mail","method":"note","args":[]}',
    "call-without-target": b'{"kind":"call","call_id":9,"method":"note","args":[]}',
    "result-string-call-id": b'{"kind":"result","call_id":"1"}',
    "revalidate-without-call-id": b'{"kind":"revalidate","credentials":[]}',
    "revalidated-without-call-id": b'{"kind":"revalidated"}',
    "stream-without-id": b'{"kind":"stream","data":""}',
    "unknown-kind": b'{"kind":"nope"}',
    "no-kind": b'{"call_id":1}',
    "not-an-object": b"[1]",
    "undecodable": b"\xff",
}


class TestMalformedInnerFrames:
    """An authenticated peer can still seal anything: an inner frame that
    is undecodable, lacks a field its handler reads, carries one of the
    wrong type or names no kind is dropped and counted as tampering."""

    @staticmethod
    def _seal(conn, transport, plaintext: bytes) -> None:
        """Send ``plaintext`` as ``conn``'s next sealed frame, exactly as
        ``SwitchboardConnection._send`` seals an encoded one."""
        seq = conn._send_seq
        conn._send_seq += 1
        ad = conn._associated_data(sender_is_initiator=conn.is_initiator, seq=seq)
        transport.send(
            "cnode", "snode", "switchboard",
            conn._envelope_head + seq.to_bytes(8, "big") + conn.cipher.encrypt(plaintext, ad),
        )

    @pytest.mark.parametrize("shape", sorted(MALFORMED_INNER_FRAMES))
    def test_dropped_and_counted_as_tamper(self, world, shape):
        _, transport, _, _, service = world
        conn, server_conn, _ = _open_and_capture(world)
        self._seal(conn, transport, MALFORMED_INNER_FRAMES[shape])
        transport.scheduler.run_until(transport.scheduler.now() + 1.0)
        assert server_conn.stats.tamper_rejected == 1
        assert server_conn.state is ChannelState.OPEN
        assert service.notes == ["real"]
        assert conn.call_sync("mail", "note", ["again"]) == 2


_MUTATIONS = (
    st.tuples(st.just("flip-header"), st.integers(0, 255), st.integers(1, 255))
    | st.tuples(st.just("flip"), st.integers(0, 4095), st.integers(1, 255))
    | st.tuples(st.just("cut"), st.integers(0, 4095))
    | st.tuples(st.just("grow"), st.binary(min_size=1, max_size=16))
)
"""Byte flips (biased towards the clear header), truncations and appended
bytes, drawn apart from the envelope they apply to: its length varies
from run to run with the connection id."""


def _mutate(envelope, mutation):
    """Apply one of :data:`_MUTATIONS`.  The magic stays whole: without it
    a payload is a greeting, which has its own typed errors."""
    magic = len(DATA_MAGIC)
    kind, *args = mutation
    if kind == "grow":
        return envelope + args[0]
    if kind == "cut":
        return envelope[: magic + args[0] % (len(envelope) - magic)]
    header = magic + 1 + envelope[magic] + 1 + 8
    span = (header if kind == "flip-header" else len(envelope)) - magic
    index = magic + args[0] % span
    return envelope[:index] + bytes((envelope[index] ^ args[1],)) + envelope[index + 1 :]


def _names_connection(envelope, conn_id):
    at = len(DATA_MAGIC) + 1
    return len(envelope) >= at and envelope[at : at + envelope[at - 1]] == conn_id.encode()


@settings(max_examples=60, deadline=None)
@given(mutations=st.lists(_MUTATIONS, min_size=1, max_size=8))
def test_corrupted_envelopes_never_execute(key_store, mutations):
    world = _make_world(key_store)
    _, transport, _, _, service = world
    conn, server_conn, captured = _open_and_capture(world)
    mutants = [_mutate(captured, mutation) for mutation in mutations]
    for mutant in mutants:
        transport.send("cnode", "snode", "switchboard", mutant)
        transport.scheduler.run()  # never raises out of frame delivery
    assert service.notes == ["real"]
    named = sum(_names_connection(m, conn.conn_id) for m in mutants)
    assert server_conn.stats.replays_rejected + server_conn.stats.tamper_rejected == named
    assert server_conn.state is ChannelState.OPEN
    assert conn.call_sync("mail", "note", ["next"]) == 2


class TestHeartbeats:
    def test_rtt_measured(self, world):
        engine, transport, client_ep, server_ep, _ = world
        conn, _ = _open_channel(engine, client_ep, server_ep)
        conn.start_heartbeats(1.0)
        transport.scheduler.run_until(3.5)
        assert conn.last_rtt == pytest.approx(0.010, rel=0.2)
        assert conn.stats.heartbeats_answered >= 2

    def test_dead_after_missed_beats(self, world):
        engine, transport, client_ep, server_ep, _ = world
        conn, _ = _open_channel(engine, client_ep, server_ep)
        conn.start_heartbeats(1.0, max_missed=3)
        transport.network.link("cnode", "snode").up = False
        # Pings become unroutable (counted as loss, never raising into the
        # scheduler); missed pongs flip the channel to DEAD.
        transport.scheduler.run_until(10.0)
        assert conn.state is ChannelState.DEAD
        assert conn.stats.frames_unroutable > 0


class TestContinuousAuthorization:
    def test_revocation_flips_both_ends(self, world):
        engine, transport, client_ep, server_ep, _ = world
        conn, cred = _open_channel(engine, client_ep, server_ep)
        server_conn = server_ep.connections()[0]
        notified = []
        conn.on_trust_change(notified.append)
        engine.revoke(cred)
        transport.scheduler.run()
        assert server_conn.state is ChannelState.REVOKED
        assert conn.state is ChannelState.REVOKED
        assert notified

    def test_calls_blocked_after_revocation(self, world):
        engine, transport, client_ep, server_ep, _ = world
        conn, cred = _open_channel(engine, client_ep, server_ep)
        engine.revoke(cred)
        transport.scheduler.run()
        with pytest.raises(ChannelClosedError, match="revalidation"):
            conn.call("mail", "inbox")

    def test_revalidation_restores_service(self, world):
        engine, transport, client_ep, server_ep, service = world
        conn, cred = _open_channel(engine, client_ep, server_ep)
        engine.revoke(cred)
        transport.scheduler.run()
        assert conn.state is ChannelState.REVOKED
        # Alice obtains a fresh credential and revalidates.
        fresh = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        pending = conn.revalidate([fresh])
        assert pending.wait() is True
        assert conn.state is ChannelState.OPEN
        assert conn.call_sync("mail", "inbox") == ["m1", "m2"]

    def test_revalidation_with_bad_credentials_fails(self, world):
        engine, transport, client_ep, server_ep, _ = world
        conn, cred = _open_channel(engine, client_ep, server_ep)
        engine.revoke(cred)
        transport.scheduler.run()
        pending = conn.revalidate([])
        with pytest.raises(Exception, match="failed to prove"):
            pending.wait()
        assert conn.state is ChannelState.REVOKED

    def test_forged_revalidated_frame_cannot_reopen_a_revoked_end(self, world):
        engine, transport, client_ep, server_ep, service = world
        conn, cred = _open_channel(engine, client_ep, server_ep)
        server_conn = server_ep.connections()[0]
        engine.revoke(cred)
        transport.scheduler.run()
        assert server_conn.state is ChannelState.REVOKED
        # The revoked client answers a revalidation the server never asked
        # for, then tries to be served again.
        conn._send({"kind": "revalidated", "call_id": 1}, allow_when_revoked=True)
        conn._send(
            {"kind": "call", "call_id": 9, "target": "mail", "method": "note",
             "args": ["smuggled"]},
            allow_when_revoked=True,
        )
        transport.scheduler.run()
        assert server_conn.state is ChannelState.REVOKED
        assert not server_conn.monitor.valid
        assert service.notes == []


def _rewrite_greetings(transport, kind, rewrite):
    """Let ``rewrite(frame)`` edit every ``kind`` greeting in place on its
    way onto the wire, as a hostile peer would send it."""
    send = transport.send

    def rewriting_send(src, dst, service, payload, **kwargs):
        frame = json.loads(payload)
        if frame.get("type") == kind:
            rewrite(frame)
            payload = json.dumps(frame).encode()
        return send(src, dst, service, payload, **kwargs)

    transport.send = rewriting_send


def _signed_dh_of_one(frame, signer, role):
    # A degenerate DH value under a valid signature: only key agreement
    # can refuse it.
    nonces = [frame["nonce"]] if role == "initiator" else [frame["client_nonce"], frame["nonce"]]
    frame["dh"] = "1"
    frame["sig"] = signer.sign(_handshake_bytes(frame["conn_id"], role, 1, nonces)).hex()


def _identity_without_n(frame, signer, role):
    del frame["identity"]["n"]


def _garbage_credential(frame, signer, role):
    frame["credentials"].append({"junk": True})


def _non_string_sig(frame, signer, role):
    frame["sig"] = 7


HOSTILE_GREETINGS = {
    "signed-dh-of-one": _signed_dh_of_one,
    "identity-without-n": _identity_without_n,
    "garbage-credential": _garbage_credential,
    "non-string-sig": _non_string_sig,
}


class TestHostileHandshakes:
    """A malformed or hostile greeting ends as a typed reject (HELLO) or a
    failed dial (WELCOME); nothing escapes frame delivery."""

    @pytest.mark.parametrize("shape", sorted(HOSTILE_GREETINGS))
    def test_hostile_hello_is_rejected(self, world, shape):
        engine, transport, client_ep, server_ep, _ = world
        server_ep.listen("mail", _suite(engine, "MailService"))
        alice = engine.identity("Alice")
        _rewrite_greetings(
            transport, "hello", lambda f: HOSTILE_GREETINGS[shape](f, alice, "initiator")
        )
        with obs.scoped(enabled=True) as registry:
            pending = client_ep.connect("snode", "mail", _suite(engine, "Alice"))
            transport.scheduler.run_until(1.0)
        assert registry.counter_value(metric_names.SWB_HANDSHAKES_REJECTED) == 1
        assert server_ep.connections() == []
        with pytest.raises(HandshakeError):
            pending.connection

    def test_conn_id_too_long_for_an_envelope_is_rejected(self, world):
        engine, transport, client_ep, server_ep, _ = world
        server_ep.listen("mail", _suite(engine, "MailService"))
        alice = engine.identity("Alice")

        def long_conn_id(frame):
            # Validly signed, so only the length check can refuse it.
            frame["conn_id"] = "c" * 256
            transcript = _handshake_bytes(
                frame["conn_id"], "initiator", int(frame["dh"], 16), [frame["nonce"]]
            )
            frame["sig"] = alice.sign(transcript).hex()

        _rewrite_greetings(transport, "hello", long_conn_id)
        with obs.scoped(enabled=True) as registry:
            client_ep.connect("snode", "mail", _suite(engine, "Alice"))
            transport.scheduler.run_until(1.0)
        assert registry.counter_value(metric_names.SWB_HANDSHAKES_REJECTED) == 1
        assert server_ep.connections() == []

    @pytest.mark.parametrize("shape", sorted(HOSTILE_GREETINGS))
    def test_hostile_welcome_fails_the_dial(self, world, shape):
        engine, transport, client_ep, server_ep, _ = world
        server_ep.listen("mail", _suite(engine, "MailService"))
        service = engine.identity("MailService")
        _rewrite_greetings(
            transport, "welcome", lambda f: HOSTILE_GREETINGS[shape](f, service, "responder")
        )
        pending = client_ep.connect("snode", "mail", _suite(engine, "Alice"))
        transport.scheduler.run_until(1.0)
        assert client_ep.connections() == []
        with pytest.raises(HandshakeError):
            pending.connection


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.text("0123456789abcdef", min_size=1, max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
_DROPPED = object()

_CREDENTIAL_KEYS = (
    "subject", "role", "issuer", "type", "attributes", "expires_at",
    "requires_monitoring", "home", "id", "signature",
)
_GREETING_PATHS = {
    kind: [(key,) for key in keys]
    + [("identity", key) for key in ("name", "n", "e")]
    + [("credentials", 0, key) for key in _CREDENTIAL_KEYS]
    for kind, keys in {
        # ``type`` is left alone: it picks the handler, not a greeting field.
        "hello": ("conn_id", "service", "reply_to", "identity", "dh", "nonce",
                  "credentials", "sig"),
        "welcome": ("conn_id", "reply_to", "identity", "dh", "client_nonce",
                    "nonce", "credentials", "sig"),
    }.items()
}


def _replace(frame, path, value):
    parent = frame
    for step in path[:-1]:
        parent = parent[step]
    # The path must name a field the greeting has.
    assert path[-1] in (parent if isinstance(parent, dict) else range(len(parent)))
    if value is _DROPPED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(sorted(_GREETING_PATHS)),
    data=st.data(),
)
def test_mutated_greeting_is_rejected_or_opens(key_store, kind, data):
    path = data.draw(st.sampled_from(_GREETING_PATHS[kind]), label="path")
    value = data.draw(st.just(_DROPPED) | _JSON, label="value")
    engine, transport, client_ep, server_ep, _ = _make_world(key_store)
    server_ep.listen(
        "mail",
        _suite(
            engine, "MailService",
            [engine.delegate("Comp.NY", "MailService", "Comp.NY.Server")],
            authorizer=RoleAuthorizer(engine, "Comp.NY.Member"),
        ),
    )
    _rewrite_greetings(transport, kind, lambda frame: _replace(frame, path, value))
    member = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
    with obs.scoped(enabled=True) as registry:
        pending = client_ep.connect("snode", "mail", _suite(engine, "Alice", [member]))
        transport.scheduler.run_until(5.0)  # never raises out of a handler
        rejected = registry.counter_value(metric_names.SWB_HANDSHAKES_REJECTED)

    served = server_ep.connections()
    if kind == "hello":
        # The responder either rejected the greeting or opened on it.
        assert (rejected, len(served)) in ((1, 0), (0, 1))
    else:
        assert (rejected, len(served)) == (0, 1)
    assert all(conn.state is ChannelState.OPEN for conn in served)
    if not pending.done:
        # Only a greeting that no longer names the dial goes unanswered.
        assert path == ("conn_id",)
        return
    try:
        connection = pending.connection
    except HandshakeError:
        assert client_ep.connections() == []
    else:
        assert connection.state is ChannelState.OPEN
        assert served and served[0].conn_id == connection.conn_id
