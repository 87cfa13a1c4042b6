"""Every way a remote call can end leaves its call table clean.

Plain RPC and Switchboard channels share one
:class:`~repro.switchboard.rpc.CallTable`; whichever path completes a
call — a result, a remote error, a lost frame, a refusal, a teardown —
the future must be forgotten and its correlation id handed back exactly
once (or, for at-least-once retried calls, never reissued).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.crypto import KeyStore
from repro.drbac import DrbacEngine
from repro.faults.retry import RetryPolicy
from repro.flow import FlowConfig
from repro.net import EventScheduler, Network, Transport
from repro.switchboard import (
    AuthorizationSuite,
    ChannelState,
    PlainRpcEndpoint,
    RoleAuthorizer,
    SwitchboardEndpoint,
)


class Service:
    def add(self, a, b):
        return a + b

    def boom(self):
        raise ValueError("kaput")


@pytest.fixture()
def world(key_store: KeyStore):
    engine = DrbacEngine(key_store=key_store)
    net = Network()
    net.add_node("cnode")
    net.add_node("snode")
    net.add_link("cnode", "snode", latency_s=0.005, secure=False)
    transport = Transport(net, EventScheduler(), loss_seed=1)
    # One token, refilled (in effect) never: the second call is shed.
    flow = FlowConfig(bucket_rate=1e-6, bucket_burst=1.0)
    server = PlainRpcEndpoint(transport, "snode", flow=flow)
    server.exporter.export("svc", Service())
    client = PlainRpcEndpoint(transport, "cnode")
    client_ep = SwitchboardEndpoint(transport, "cnode")
    server_ep = SwitchboardEndpoint(transport, "snode")
    server_ep.export("svc", Service())
    server_ep.listen(
        "svc",
        AuthorizationSuite(
            identity=engine.identity("Service"),
            authorizer=RoleAuthorizer(engine, "Comp.NY.Member"),
        ),
    )
    return SimpleNamespace(
        engine=engine, net=net, transport=transport, run=transport.scheduler.run,
        client=client, client_ep=client_ep, server_ep=server_ep,
    )


def _channel(w):
    cred = w.engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
    suite = AuthorizationSuite(identity=w.engine.identity("Alice"), credentials=[cred])
    return w.client_ep.connect("snode", "svc", suite).wait(), cred


# -- plain RPC: each returns (table, future) with the call already over ------


def plain_result(w):
    pending = w.client.call("snode", "svc", "add", [1, 2])
    w.run()
    assert pending.value == 3
    return w.client.calls, pending


def plain_remote_error(w):
    pending = w.client.call("snode", "svc", "boom")
    w.run()
    assert pending._error is not None
    return w.client.calls, pending


def plain_dropped_in_flight(w):
    pending = w.client.call("snode", "svc", "add", [1, 2])
    w.net.link("cnode", "snode").up = False  # dies under the frame
    w.run()
    assert pending._exception is not None
    return w.client.calls, pending


def plain_network_error_at_send(w):
    w.net.link("cnode", "snode").up = False
    pending = w.client.call("snode", "svc", "add", [1, 2])
    assert pending.done and pending._error is not None
    return w.client.calls, pending


def plain_shed(w):
    w.client.call_sync("snode", "svc", "add", [0, 0])  # spends the only token
    pending = w.client.call("snode", "svc", "add", [1, 2])
    w.run()
    assert type(pending._exception).__name__ == "RpcShedError"
    return w.client.calls, pending


def retried_result(w):
    pending = w.client.call_with_retry(
        "snode", "svc", "add", [1, 2], policy=RetryPolicy.fixed(0.1, 3)
    )
    w.run()
    assert pending.value == 3
    return w.client.calls, pending


def retries_exhausted(w):
    w.net.link("cnode", "snode").loss_rate = 1.0
    pending = w.client.call_with_retry(
        "snode", "svc", "add", [1, 2], policy=RetryPolicy.fixed(0.1, 2)
    )
    w.run()
    assert "no response" in pending._error
    return w.client.calls, pending


# -- Switchboard channel ------------------------------------------------------


def channel_result(w):
    conn, _ = _channel(w)
    pending = conn.call("svc", "add", [1, 2])
    w.run()
    assert pending.value == 3
    return conn.calls, pending


def channel_remote_error(w):
    conn, _ = _channel(w)
    pending = conn.call("svc", "boom")
    w.run()
    assert pending._error is not None
    return conn.calls, pending


def channel_close(w):
    conn, _ = _channel(w)
    pending = conn.call("svc", "add", [1, 2])
    conn.close()
    assert type(pending._exception).__name__ == "RpcAbortedError"
    return conn.calls, pending


def channel_dead(w):
    conn, _ = _channel(w)
    conn.start_heartbeats(1.0, max_missed=2)
    pending = conn.call("svc", "add", [1, 2])
    # The peer end vanishes without a close frame: nothing answers.
    w.server_ep._forget(conn.conn_id)
    w.transport.scheduler.run_until(5.0)
    assert conn.state is ChannelState.DEAD
    return conn.calls, pending


def revalidate_ok(w):
    conn, cred = _channel(w)
    w.engine.revoke(cred)
    w.run()
    fresh = w.engine.delegate("Comp.NY", "Alice", "Comp.NY.Member")
    pending = conn.revalidate([fresh])
    w.run()
    assert pending.value is True and conn.state is ChannelState.OPEN
    return conn.calls, pending


def revalidate_refused(w):
    conn, cred = _channel(w)
    w.engine.revoke(cred)
    w.run()
    pending = conn.revalidate([])
    w.run()
    assert "failed to prove" in pending._error
    assert conn.state is ChannelState.REVOKED
    return conn.calls, pending


REUSABLE = [
    plain_result, plain_remote_error, plain_dropped_in_flight,
    plain_network_error_at_send, plain_shed,
    channel_result, channel_remote_error, channel_close, channel_dead,
    revalidate_ok, revalidate_refused,
]
RETRIED = [retried_result, retries_exhausted]


@pytest.mark.parametrize("path", REUSABLE + RETRIED, ids=lambda fn: fn.__name__)
def test_every_completion_path_empties_the_table(world, path):
    table, pending = path(world)
    assert pending.done
    assert len(table) == 0 and table.undone() == []
    if path in RETRIED:
        # A late duplicate response may still arrive: the id is retired.
        assert table.open("next").call_id == pending.call_id + 1
    else:
        assert table.high_water == 1
        # Released exactly once: the id comes back, and only one copy of it.
        assert table.open("next").call_id == pending.call_id == 1
        assert table.open("after").call_id == 2
