"""Trace context propagation through plain RPC.

A call is traced when it is made inside a span, and its trace context
travels beside its frames, never inside them: frame bytes — and so
simulated transfer delays — are the same whether a trace is recorded or
not (``tests/obs/test_inert_tracing.py`` checks whole harness runs).
Client and server spans share one trace id across the simulated wire,
and every failure path tags its span ``error=<type>``.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import RpcTimeoutError
from repro.faults import RetryPolicy
from repro.net import EventScheduler, Network, Transport
from repro.switchboard.rpc import PLAIN_RPC_SERVICE, PlainRpcEndpoint, decode_frame


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


def _traced_call(client, method="ping", args=(1,)):
    """Issue one call inside a root span (the wait happens outside it)."""
    with obs.span("request"):
        return client.call("server", "echo", method, list(args))


class TestDistGate:
    """Distributed tracing has no switch of its own: a span is the gate."""

    def test_frames_carry_no_context_without_dist(self):
        frames = {}
        for traced in (True, False):
            _, scheduler, transport, client = _world()
            seen: list[bytes] = []
            transport.observe_link(
                "client", "server", lambda payload, src, dst: seen.append(payload)
            )
            with obs.scoped(enabled=True):
                obs.set_tracer_clock(scheduler)
                pending = (
                    _traced_call(client) if traced
                    else client.call("server", "echo", "ping", [1])
                )
                pending.wait()
                assert bool(obs.get_tracer().find("rpc.server")) is traced
            frames[traced] = seen
        assert frames[True] == frames[False]
        assert all("tc" not in decode_frame(payload) for payload in frames[True])

    def test_untraced_calls_allocate_no_span_and_no_activation(self):
        _, scheduler, _, client = _world()
        with obs.scoped(enabled=True):
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
        _, scheduler, _, client = _world()
        for enabled in (False, True):
            with obs.scoped(enabled=enabled):
                obs.set_tracer_clock(scheduler)
                pending = _traced_call(client)
                pending.wait()
            assert (pending.span is obs.NULL_SPAN) is not enabled

    def test_server_continues_the_context_delivered_beside_the_frame(self):
        net, scheduler, transport, client = _world()
        server = PlainRpcEndpoint(transport, "server")
        server.exporter.export("echo", Echo())
        delivered = []

        def spy(payload, sender):
            delivered.append((decode_frame(payload)["type"], transport.delivery_ctx))
            server._on_frame(payload, sender)

        net.node("server").bind(PLAIN_RPC_SERVICE, spy)
        with obs.scoped(enabled=True):
            obs.set_tracer_clock(scheduler)
            pending = _traced_call(client)
            pending.wait()
            (server_span,) = obs.get_tracer().find("rpc.server")
        assert delivered == [("call", pending.span.context())]
        assert server_span.trace_id == pending.span.trace_id
        assert server_span.parent_id == pending.span.span_id

    def test_a_tc_key_inside_a_frame_is_not_trace_context(self):
        _, scheduler, transport, client = _world()
        answers: list[dict] = []
        transport.network.node("client").bind(
            PLAIN_RPC_SERVICE, lambda payload, sender: answers.append(
                decode_frame(payload)
            ),
        )
        payload = (b'{"type":"call","call_id":1,"reply_to":"client","target":"echo",'
                   b'"method":"ping","args":[5],"tc":[7,9]}')
        with obs.scoped(enabled=True):
            transport.send("client", "server", PLAIN_RPC_SERVICE, payload)
            scheduler.run_until(1.0)
            assert obs.get_tracer().find("rpc.server") == []
        assert answers == [{"type": "result", "call_id": 1, "value": 5}]


class TestStitching:
    def test_client_and_server_share_a_trace(self):
        _, scheduler, _, client = _world()
        with obs.scoped(enabled=True):
            obs.set_tracer_clock(scheduler)
            assert _traced_call(client, args=["x"]).wait() == "x"
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
        with obs.scoped(enabled=True):
            obs.set_tracer_clock(scheduler)
            _traced_call(client).wait()
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
        with obs.scoped(enabled=True):
            obs.set_tracer_clock(scheduler)
            _traced_call(client).wait()
            dumps = [root.to_dict() for root in obs.get_tracer().roots()]
        assert json.loads(json.dumps(dumps)) == dumps

    def test_a_completion_callback_inherits_no_span(self):
        # The result frame arrives with the server span's context beside
        # it; that context is data for a server, not an active span, so a
        # call made from the completion is as untraced as its caller.
        _, scheduler, _, client = _world()
        follow_ups = []
        with obs.scoped(enabled=True):
            obs.set_tracer_clock(scheduler)
            first = _traced_call(client)
            first.add_done_callback(
                lambda done: follow_ups.append(client.call("server", "echo", "ping", [2]))
            )
            first.wait()
            follow_ups[0].wait()
            assert len(obs.get_tracer().find("rpc.server")) == 1
        assert first.span is not obs.NULL_SPAN
        assert follow_ups[0].span is obs.NULL_SPAN

    def test_a_queued_pipeline_call_keeps_the_span_it_was_queued_under(self):
        _, scheduler, _, client = _world()
        with obs.scoped(enabled=True):
            obs.set_tracer_clock(scheduler)
            pipeline = client.pipeline("server", "echo", depth=1)
            roots = []
            for value in (1, 2, 3):
                with obs.span("request", value=value) as root:
                    pipeline.call("ping", [value])
                roots.append(root)
            assert pipeline.drain() == [1, 2, 3]
            calls = obs.get_tracer().find("rpc.client")
        # Two of the three were issued later, from a completion.
        assert [call.parent for call in calls] == roots
        assert [call.trace_id for call in calls] == [r.trace_id for r in roots]


class TestErrorTagging:
    def test_remote_exception_tags_both_sides(self):
        _, scheduler, _, client = _world()
        with obs.scoped(enabled=True):
            obs.set_tracer_clock(scheduler)
            pending = _traced_call(client, "boom", ())
            pending.wait_done()
            tracer = obs.get_tracer()
            (client_span,) = tracer.find("rpc.client")
            (server_span,) = tracer.find("rpc.server")
        assert client_span.attributes["error"] == "RemoteError"
        assert server_span.attributes["error"] == "ValueError"

    def test_wait_timeout_tags_without_finishing(self):
        net, scheduler, _, client = _world()
        net.link("client", "server").up = False
        with obs.scoped(enabled=True):
            obs.set_tracer_clock(scheduler)
            pending = _traced_call(client)
            # The link is down: the call failed fast with NetworkError.
            assert pending.done
            (client_span,) = obs.get_tracer().find("rpc.client")
        assert client_span.attributes["error"] == "NetworkError"

    def test_timeout_on_a_silent_peer(self):
        net, scheduler, _, client = _world()
        with obs.scoped(enabled=True):
            obs.set_tracer_clock(scheduler)
            pending = _traced_call(client)
            # Kill the link after the send so no response can return.
            net.link("client", "server").up = False
            with pytest.raises((RpcTimeoutError, Exception)):
                pending.wait(timeout=0.5)
            span = pending.span
        assert span is not None
        assert not span.ok

    def test_retries_exhausted_tags_the_call_span(self):
        _, scheduler, _, client = _world(loss_rate=1.0)
        with obs.scoped(enabled=True):
            obs.set_tracer_clock(scheduler)
            with obs.span("request"):
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
