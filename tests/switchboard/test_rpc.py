"""Plain RPC (RMI stand-in) tests."""

from __future__ import annotations

import pytest

from repro import obs
from repro.net import EventScheduler, Network, Transport
from repro.obs import names as metric_names
from repro.switchboard.rpc import (
    PLAIN_RPC_SERVICE,
    ObjectExporter,
    PlainRpcEndpoint,
    RemoteError,
)
from repro.errors import SwitchboardError


class Calculator:
    def add(self, a, b):
        return a + b

    def boom(self):
        raise ValueError("kaput")

    def _secret(self):
        return "hidden"

    data = [1, 2, 3]


@pytest.fixture()
def world():
    net = Network()
    net.add_node("client")
    net.add_node("server")
    net.add_link("client", "server", latency_s=0.005, secure=False)
    scheduler = EventScheduler()
    transport = Transport(net, scheduler)
    client = PlainRpcEndpoint(transport, "client")
    server = PlainRpcEndpoint(transport, "server")
    server.exporter.export("calc", Calculator())
    return transport, client, server


class TestCalls:
    def test_sync_call(self, world):
        _, client, _ = world
        assert client.call_sync("server", "calc", "add", [2, 3]) == 5

    def test_async_future(self, world):
        transport, client, _ = world
        pending = client.call("server", "calc", "add", [1, 1])
        assert not pending.done
        transport.scheduler.run()
        assert pending.done and pending.value == 2

    def test_remote_exception_propagates(self, world):
        _, client, _ = world
        with pytest.raises(RemoteError, match="kaput"):
            client.call_sync("server", "calc", "boom")

    def test_unknown_target(self, world):
        _, client, _ = world
        with pytest.raises(RemoteError, match="no exported object"):
            client.call_sync("server", "ghost", "add", [1, 2])

    def test_unknown_method(self, world):
        _, client, _ = world
        with pytest.raises(RemoteError, match="no callable method"):
            client.call_sync("server", "calc", "subtract", [1, 2])

    def test_private_method_refused(self, world):
        _, client, _ = world
        with pytest.raises(RemoteError, match="private"):
            client.call_sync("server", "calc", "_secret")

    def test_non_callable_attribute_refused(self, world):
        _, client, _ = world
        with pytest.raises(RemoteError, match="no callable method"):
            client.call_sync("server", "calc", "data")

    def test_value_before_completion_raises(self, world):
        _, client, _ = world
        pending = client.call("server", "calc", "add", [1, 2])
        with pytest.raises(SwitchboardError):
            _ = pending.value

    def test_two_way(self, world):
        transport, client, server = world
        client.exporter.export("echo", Calculator())
        assert server.call_sync("client", "echo", "add", [4, 4]) == 8


class TestMalformedFrames:
    """Any node can send any bytes to the RPC service: a frame that is not
    a well-formed call or result is dropped and counted, and the
    simulation and both endpoints carry on."""

    @pytest.mark.parametrize("payload", [
        b'{"type":"call"}',
        b'{"type":"call","call_id":1}',
        b'{"type":"result"}',
        b'{"type":"nope"}',
        b'{"type":"call","kind":"nope"}',
        b'{"type":"result","kind":"ping","t":1}',
        b"\xff",
    ])
    def test_dropped_and_counted(self, world, payload):
        transport, client, _ = world
        with obs.scoped(enabled=True) as registry:
            transport.send("client", "server", PLAIN_RPC_SERVICE, payload)
            transport.send("server", "client", PLAIN_RPC_SERVICE, payload)
            transport.scheduler.run_until(1.0)
        assert registry.counter_value(metric_names.RPC_FRAMES_REJECTED) == 2
        assert client.call_sync("server", "calc", "add", [2, 3]) == 5

    @pytest.mark.parametrize("shed", [b'"busy"', b'{"retry_after":"soon"}'])
    def test_an_ill_typed_shed_is_refused(self, world, shed):
        transport, client, _ = world
        pending = client.call("server", "calc", "add", [1, 1])
        payload = b'{"type":"result","call_id":%d,"shed":%s}' % (pending.call_id, shed)
        with obs.scoped(enabled=True) as registry:
            transport.send("server", "client", PLAIN_RPC_SERVICE, payload)
            transport.scheduler.run_until(1.0)
        assert registry.counter_value(metric_names.RPC_FRAMES_REJECTED) == 1
        assert pending.value == 2


class TestVisibility:
    def test_plaintext_arguments_visible_on_insecure_link(self, world):
        transport, client, _ = world
        snoops = []
        transport.observe_link("client", "server", lambda p, s, d: snoops.append(p))
        client.call_sync("server", "calc", "add", ["SENSITIVE", "DATA"])
        assert any(b"SENSITIVE" in frame for frame in snoops)


class TestExporter:
    def test_exported_names(self):
        exporter = ObjectExporter()
        exporter.export("b", object())
        exporter.export("a", object())
        assert exporter.exported_names() == ["a", "b"]

    def test_unexport(self):
        exporter = ObjectExporter()
        exporter.export("x", Calculator())
        exporter.unexport("x")
        with pytest.raises(SwitchboardError):
            exporter.dispatch("x", "add", [1, 2])
