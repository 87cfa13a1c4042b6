"""Wire trace-context propagation through plain RPC.

The ``dist`` gate is the load-bearing property here: frames only grow a
``"tc"`` key — changing their byte size and therefore simulated transfer
delays — when a harness explicitly opts in, so every existing
byte-identical report (chaos, bench-load, simtest) is untouched.  With
the gate open, client and server spans share one trace id across the
simulated wire, and every failure path tags its span ``error=<type>``.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import RpcTimeoutError
from repro.faults import RetryPolicy
from repro.net import EventScheduler, Network, Transport
from repro.switchboard.rpc import PlainRpcEndpoint, decode_frame


class Echo:
    def ping(self, value):
        return value

    def boom(self):
        raise ValueError("kaput")


def _world(*, loss_rate: float = 0.0):
    net = Network()
    net.add_node("client")
    net.add_node("server")
    net.add_link(
        "client", "server", latency_s=0.005, secure=False, loss_rate=loss_rate
    )
    scheduler = EventScheduler()
    transport = Transport(net, scheduler, loss_seed=1)
    client = PlainRpcEndpoint(transport, "client")
    server = PlainRpcEndpoint(transport, "server")
    server.exporter.export("echo", Echo())
    return net, scheduler, transport, client


class TestDistGate:
    def test_frames_carry_no_context_without_dist(self):
        _, scheduler, transport, client = _world()
        seen: list[dict] = []
        transport.observe_link(
            "client", "server",
            lambda payload, src, dst: seen.append(decode_frame(payload)),
        )
        with obs.scoped(enabled=True, dist=False):
            obs.set_tracer_clock(scheduler)
            client.call("server", "echo", "ping", [1]).wait()
        assert seen
        assert all("tc" not in frame for frame in seen)

    def test_untraced_calls_allocate_no_span_and_no_activation(self):
        _, scheduler, _, client = _world()
        with obs.scoped(enabled=True, dist=False):
            obs.set_tracer_clock(scheduler)
            tracer = obs.get_tracer()
            pending = client.call("server", "echo", "ping", [1])
            pending.wait()
            # One shared no-op span, and activating it is the span itself:
            # no Span and no context-manager generator per call.
            assert pending.span is obs.NULL_SPAN
            assert obs.activate(pending.span) is obs.NULL_SPAN
            assert tracer.start("child", parent=pending.span) is obs.NULL_SPAN
            assert tracer.find("rpc.client") == tracer.find("rpc.server") == []

    def test_dist_requires_enabled(self):
        with obs.scoped(enabled=False, dist=True):
            assert not obs.dist_enabled()
        with obs.scoped(enabled=True, dist=True):
            assert obs.dist_enabled()

    def test_frames_carry_context_with_dist(self):
        _, scheduler, transport, client = _world()
        seen: list[dict] = []
        transport.observe_link(
            "client", "server",
            lambda payload, src, dst: seen.append(decode_frame(payload)),
        )
        with obs.scoped(enabled=True, dist=True):
            obs.set_tracer_clock(scheduler)
            client.call("server", "echo", "ping", [1]).wait()
        request = next(f for f in seen if f["type"] == "call")
        response = next(f for f in seen if f["type"] == "result")
        assert request["tc"] == response["tc"]
        assert len(request["tc"]) == 2


class TestStitching:
    def test_client_and_server_share_a_trace(self):
        _, scheduler, _, client = _world()
        with obs.scoped(enabled=True, dist=True):
            obs.set_tracer_clock(scheduler)
            assert client.call("server", "echo", "ping", ["x"]).wait() == "x"
            tracer = obs.get_tracer()
            (client_span,) = tracer.find("rpc.client")
            (server_span,) = tracer.find("rpc.server")
        assert client_span.trace_id == server_span.trace_id
        assert server_span.parent_id == client_span.span_id
        assert client_span.ok and server_span.ok
        # The server span closes before the client learns the result.
        assert server_span.end <= client_span.end

    def test_transmit_spans_nest_under_the_call(self):
        _, scheduler, _, client = _world()
        with obs.scoped(enabled=True, dist=True):
            obs.set_tracer_clock(scheduler)
            client.call("server", "echo", "ping", [1]).wait()
            tracer = obs.get_tracer()
            transmits = tracer.find("net.transmit")
            assert len(transmits) == 2  # request + response
            (client_span,) = tracer.find("rpc.client")
            (server_span,) = tracer.find("rpc.server")
            assert transmits[0].trace_id == client_span.trace_id
            parents = {t.parent_id for t in transmits}
        assert parents == {client_span.span_id, server_span.span_id}

    def test_spans_serialize_to_json(self):
        _, scheduler, _, client = _world()
        with obs.scoped(enabled=True, dist=True):
            obs.set_tracer_clock(scheduler)
            client.call("server", "echo", "ping", [1]).wait()
            dumps = [root.to_dict() for root in obs.get_tracer().roots()]
        assert json.loads(json.dumps(dumps)) == dumps


class TestErrorTagging:
    def test_remote_exception_tags_both_sides(self):
        _, scheduler, _, client = _world()
        with obs.scoped(enabled=True, dist=True):
            obs.set_tracer_clock(scheduler)
            pending = client.call("server", "echo", "boom")
            pending.wait_done()
            tracer = obs.get_tracer()
            (client_span,) = tracer.find("rpc.client")
            (server_span,) = tracer.find("rpc.server")
        assert client_span.attributes["error"] == "RemoteError"
        assert server_span.attributes["error"] == "ValueError"

    def test_wait_timeout_tags_without_finishing(self):
        net, scheduler, _, client = _world()
        net.link("client", "server").up = False
        with obs.scoped(enabled=True, dist=True):
            obs.set_tracer_clock(scheduler)
            pending = client.call("server", "echo", "ping", [1])
            # The link is down: the call failed fast with NetworkError.
            assert pending.done
            (client_span,) = obs.get_tracer().roots()
        assert client_span.attributes["error"] == "NetworkError"

    def test_timeout_on_a_silent_peer(self):
        net, scheduler, _, client = _world()
        with obs.scoped(enabled=True, dist=True):
            obs.set_tracer_clock(scheduler)
            pending = client.call("server", "echo", "ping", [1])
            # Kill the link after the send so no response can return.
            net.link("client", "server").up = False
            with pytest.raises((RpcTimeoutError, Exception)):
                pending.wait(timeout=0.5)
            span = pending.span
        assert span is not None
        assert not span.ok

    def test_retries_exhausted_tags_the_call_span(self):
        _, scheduler, _, client = _world(loss_rate=1.0)
        with obs.scoped(enabled=True, dist=True):
            obs.set_tracer_clock(scheduler)
            pending = client.call_with_retry(
                "server", "echo", "ping", [1], policy=RetryPolicy.fixed(0.1, 2)
            )
            pending.wait_done()
            tracer = obs.get_tracer()
            (call_span,) = tracer.find("rpc.client")
            attempts = tracer.find("rpc.attempt")
            log = obs.get_event_log()
            retry_events = log.find("rpc.retry")
            exhausted = log.find("rpc.exhausted")
        assert call_span.attributes["error"] == "RetriesExhausted"
        assert len(attempts) == 3  # initial + 2 retries
        assert [a.attributes["attempt"] for a in attempts] == [1, 2, 3]
        assert all(a.parent_id == call_span.span_id for a in attempts)
        assert len(retry_events) == 2
        assert len(exhausted) == 1
