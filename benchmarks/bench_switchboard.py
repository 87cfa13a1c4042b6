"""E-SWB — Switchboard channel mechanics.

Times channel establishment (handshake with signatures, credential
evaluation, and DH), the per-call overhead against plain RMI, and — on the
virtual clock — heartbeat RTT reporting and revocation-notification
latency (the continuous-monitoring ablation DESIGN.md calls out).
"""

from __future__ import annotations

import pytest

from repro.drbac import DrbacEngine
from repro.net import EventScheduler, Network, Transport
from repro.switchboard import (
    AcceptAllAuthorizer,
    AuthorizationSuite,
    ChannelState,
    PlainRpcEndpoint,
    RoleAuthorizer,
    SwitchboardEndpoint,
)

from conftest import print_table

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
    scheduler = EventScheduler()
    transport = Transport(net, scheduler)
    client_ep = SwitchboardEndpoint(transport, "c")
    server_ep = SwitchboardEndpoint(transport, "s")
    server_ep.export("echo", Echo())
    return engine, transport, client_ep, server_ep


def test_handshake_cost(benchmark, key_store):
    """Full authenticated+authorized channel establishment.

    Each timed dial is closed, so the endpoint's connection table never
    answers it: every round pays the whole handshake."""
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

    def connect():
        return client_ep.connect("s", "echo", suite).wait()

    benchmark(lambda: connect().close())
    assert connect().state is ChannelState.OPEN


def test_switchboard_call_cost(benchmark, key_store):
    """Per-call cost over an established secure channel."""
    engine, transport, client_ep, server_ep = _world(key_store)
    server_ep.listen("echo", AuthorizationSuite(identity=engine.identity("EchoSvc")))
    connection = client_ep.connect(
        "s", "echo", AuthorizationSuite(identity=engine.identity("Alice"))
    ).wait()

    assert benchmark(lambda: connection.call_sync("echo", "ping", [42])) == 42


def test_plain_rpc_call_cost(benchmark, key_store):
    """The unencrypted baseline for per-call overhead."""
    engine, transport, client_ep, server_ep = _world(key_store)
    rpc_c = PlainRpcEndpoint(transport, "c")
    rpc_s = PlainRpcEndpoint(transport, "s")
    rpc_s.exporter.export("echo", Echo())

    assert benchmark(lambda: rpc_c.call_sync("s", "echo", "ping", [42])) == 42


def test_heartbeat_and_revocation_latency(benchmark, key_store):
    """Virtual-clock properties: RTT report accuracy and the lag between a
    revocation at the home and both channel ends flipping to REVOKED."""

    def run():
        engine, transport, client_ep, server_ep = _world(key_store)
        cred = engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
        server_ep.listen(
            "echo",
            AuthorizationSuite(
                identity=engine.identity("EchoSvc"),
                authorizer=RoleAuthorizer(engine, "Comp.NY.Member"),
            ),
        )
        connection = client_ep.connect(
            "s", "echo",
            AuthorizationSuite(identity=engine.identity("Alice"), credentials=[cred]),
        ).wait()
        connection.start_heartbeats(1.0)
        transport.scheduler.run_until(5.0)
        rtt = connection.last_rtt
        beats = connection.stats.heartbeats_answered
        t_revoke = transport.scheduler.now()
        engine.revoke(cred)
        transport.scheduler.run()
        t_detected = transport.scheduler.now()
        return rtt, beats, connection.state, t_detected - t_revoke

    rtt, beats, state, detection_lag = benchmark.pedantic(run, rounds=3, iterations=1)
    print_table(
        "E-SWB: channel monitoring on the virtual clock",
        ["metric", "value"],
        [
            ["heartbeat RTT (s)", f"{rtt:.4f}"],
            ["heartbeats answered in 5 s", beats],
            ["state after revocation", state.value],
            ["peer notification lag (s)", f"{detection_lag:.4f}"],
        ],
    )
    assert rtt == pytest.approx(2 * LINK_LATENCY, rel=0.05)
    assert state is ChannelState.REVOKED
    # Local monitor fires instantly; the revoked-notice frame plus any
    # in-flight heartbeat exchange bounds peer detection at ~2 RTT.
    assert detection_lag <= 4 * LINK_LATENCY + 1e-6


def test_monitoring_ablation_overhead(benchmark, key_store):
    """Heartbeats on vs off: frames carried for an otherwise idle channel."""

    def run(with_heartbeats: bool) -> int:
        engine, transport, client_ep, server_ep = _world(key_store)
        server_ep.listen("echo", AuthorizationSuite(identity=engine.identity("EchoSvc")))
        connection = client_ep.connect(
            "s", "echo", AuthorizationSuite(identity=engine.identity("Alice"))
        ).wait()
        base = transport.stats.messages_sent
        if with_heartbeats:
            connection.start_heartbeats(1.0)
        transport.scheduler.run_until(transport.scheduler.now() + 10.0)
        return transport.stats.messages_sent - base

    results = benchmark.pedantic(
        lambda: (run(True), run(False)), rounds=2, iterations=1
    )
    with_hb, without_hb = results
    print_table(
        "E-SWB ablation: idle-channel frames over 10 s",
        ["continuous monitoring", "frames"],
        [["on (1 s heartbeats)", with_hb], ["off", without_hb]],
    )
    assert without_hb == 0
    assert with_hb >= 18  # ~10 pings + ~10 pongs
