"""E-SWB — Switchboard channel mechanics (§4.3) and SwitchboardStream.

A full handshake opens a channel, calls over it match plain RPC, and on
the virtual clock heartbeats report the link RTT, a revocation reaches
both ends within a bounded lag, and monitoring off carries no frames
(the continuous-monitoring ablation DESIGN.md calls out).  Streams,
"a custom socket" [6], move the same bytes in fewer sealed frames as the
chunk size grows.
"""

from __future__ import annotations

import pytest

from repro.drbac import DrbacEngine
from repro.net import EventScheduler, Network, Transport
from repro.switchboard import (
    AuthorizationSuite,
    ChannelState,
    PlainRpcEndpoint,
    RoleAuthorizer,
    SwitchboardEndpoint,
)

from . import print_table

LINK_LATENCY = 0.005


class Echo:
    def ping(self, x):
        return x


def _world(key_store):
    engine = DrbacEngine(key_store=key_store)
    net = Network()
    net.add_node("c")
    net.add_node("s")
    net.add_link("c", "s", latency_s=LINK_LATENCY, secure=False)
    transport = Transport(net, EventScheduler())
    client_ep = SwitchboardEndpoint(transport, "c")
    server_ep = SwitchboardEndpoint(transport, "s")
    server_ep.export("echo", Echo())
    return engine, transport, client_ep, server_ep


def _member_channel(key_store):
    """Alice dials a server that demands Comp.NY.Member."""
    engine, transport, client_ep, server_ep = _world(key_store)
    cred = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
    server_ep.listen(
        "echo",
        AuthorizationSuite(
            identity=engine.identity("EchoSvc"),
            authorizer=RoleAuthorizer(engine, "Comp.NY.Member"),
        ),
    )
    suite = AuthorizationSuite(identity=engine.identity("Alice"), credentials=[cred])
    return engine, transport, client_ep, suite, cred


def _open_channel(key_store):
    engine, transport, client_ep, server_ep = _world(key_store)
    server_ep.listen("echo", AuthorizationSuite(identity=engine.identity("EchoSvc")))
    connection = client_ep.connect(
        "s", "echo", AuthorizationSuite(identity=engine.identity("Alice"))
    ).wait()
    return transport, connection, server_ep.connections()[0]


def test_handshake_and_calls(key_store):
    """A closed channel is redialled with a full handshake; calls over a
    channel and over plain RPC return the same value."""
    _, transport, client_ep, suite, _ = _member_channel(key_store)
    client_ep.connect("s", "echo", suite).wait().close()
    connection = client_ep.connect("s", "echo", suite).wait()
    assert connection.state is ChannelState.OPEN
    assert client_ep.stats.dialled == 2
    assert connection.call_sync("echo", "ping", [42]) == 42

    rpc_c = PlainRpcEndpoint(transport, "c")
    PlainRpcEndpoint(transport, "s").exporter.export("echo", Echo())
    assert rpc_c.call_sync("s", "echo", "ping", [42]) == 42


def test_heartbeat_and_revocation_latency(key_store):
    """Virtual-clock properties: RTT report accuracy and the lag between a
    revocation at the home and both channel ends flipping to REVOKED."""
    engine, transport, client_ep, suite, cred = _member_channel(key_store)
    scheduler = transport.scheduler
    connection = client_ep.connect("s", "echo", suite).wait()
    connection.start_heartbeats(1.0)
    scheduler.run_until(5.0)
    t_revoke = scheduler.now()
    engine.revoke(cred)
    scheduler.run()
    detection_lag = scheduler.now() - t_revoke
    print_table(
        "E-SWB: channel monitoring on the virtual clock",
        ["metric", "value"],
        [
            ["heartbeat RTT (s)", f"{connection.last_rtt:.4f}"],
            ["heartbeats answered in 5 s", connection.stats.heartbeats_answered],
            ["state after revocation", connection.state.value],
            ["peer notification lag (s)", f"{detection_lag:.4f}"],
        ],
    )
    assert connection.last_rtt == pytest.approx(2 * LINK_LATENCY, rel=0.05)
    assert connection.state is ChannelState.REVOKED
    # Local monitor fires instantly; the revoked-notice frame plus any
    # in-flight heartbeat exchange bounds peer detection at ~2 RTT.
    assert detection_lag <= 4 * LINK_LATENCY + 1e-6


def test_monitoring_ablation_overhead(key_store):
    """Heartbeats on vs off: frames carried for an otherwise idle channel."""

    def idle_frames(with_heartbeats: bool) -> int:
        transport, connection, _ = _open_channel(key_store)
        base = transport.stats.messages_sent
        if with_heartbeats:
            connection.start_heartbeats(1.0)
        transport.scheduler.run_until(transport.scheduler.now() + 10.0)
        return transport.stats.messages_sent - base

    with_hb, without_hb = idle_frames(True), idle_frames(False)
    print_table(
        "E-SWB ablation: idle-channel frames over 10 s",
        ["continuous monitoring", "frames"],
        [["on (1 s heartbeats)", with_hb], ["off", without_hb]],
    )
    assert without_hb == 0
    assert with_hb >= 18  # ~10 pings + ~10 pongs


PAYLOAD = bytes(range(256)) * 256  # 64 KiB


def test_stream_chunk_size_economics(key_store):
    """A 64 KiB sealed transfer arrives intact at every chunk size, and
    smaller chunks pay more frames for the same bytes."""
    transport, client, server = _open_channel(key_store)
    rows = []
    for chunk_size in (1024, 8192, 65536):
        frames_before = client.stats.frames_sent
        bytes_before = transport.stats.bytes_sent
        stream = client.streams.open(chunk_size=chunk_size)
        stream.write(PAYLOAD)
        stream.close()
        transport.scheduler.run()
        assert server.streams.incoming(stream.stream_id).read_all()[-16:] == PAYLOAD[-16:]
        rows.append([
            chunk_size,
            stream.stats.chunks,
            client.stats.frames_sent - frames_before,
            transport.stats.bytes_sent - bytes_before,
        ])
    print_table(
        "E-SWB: 64 KiB sealed stream transfer by chunk size",
        ["chunk (B)", "chunks", "frames", "wire bytes"],
        rows,
    )
    frames = [row[2] for row in rows]
    assert frames[0] > frames[-1]
