"""Chrome/Perfetto trace-event export: shape, tracks, determinism."""

from __future__ import annotations

import json

from repro.clock import ManualClock
from repro.obs.events import EventLog
from repro.obs.export import MAIN_TID, PID, to_chrome_trace
from repro.obs.trace import Tracer, format_span_id, format_trace_id


def _sample_tracer() -> tuple[Tracer, EventLog, ManualClock]:
    clock = ManualClock()
    tracer = Tracer(clock)
    log = EventLog(clock)
    with tracer.span("request", node="client") as request:
        client = tracer.start("rpc.client", parent=request, node="client", method="get")
    clock.advance(0.004)
    server = tracer.start("rpc.server", remote=client.context(), node="server")
    with tracer.activate(server):
        with tracer.span("drbac.proof.search"):
            clock.advance(0.001)
    log.emit("auth.decision", node="server", verdict="grant")
    server.finish()
    clock.advance(0.004)
    client.finish()
    return tracer, log, clock


class TestExportShape:
    def test_thread_metadata_names_every_node_track(self):
        tracer, log, _ = _sample_tracer()
        trace = to_chrome_trace(tracer, log)
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        names = {e["tid"]: e["args"]["name"] for e in meta}
        assert names[MAIN_TID] == "main"
        assert set(names.values()) == {"main", "client", "server"}

    def test_spans_become_complete_events_in_microseconds(self):
        tracer, log, _ = _sample_tracer()
        trace = to_chrome_trace(tracer, log)
        spans = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
        client = spans["rpc.client"]
        assert client["ts"] == 0
        assert client["dur"] == 9000  # 9 ms of virtual time
        assert client["pid"] == PID
        assert client["cat"] == "rpc"
        search = spans["drbac.proof.search"]
        assert search["dur"] == 1000
        assert search["cat"] == "drbac"

    def test_args_carry_the_stitching_ids(self):
        tracer, log, _ = _sample_tracer()
        trace = to_chrome_trace(tracer, log)
        spans = {e["name"]: e for e in trace["traceEvents"] if e["ph"] == "X"}
        client, server = spans["rpc.client"], spans["rpc.server"]
        # One shared trace id; the server's parent is the client span,
        # itself the child of the request span that started the trace.
        assert server["args"]["trace_id"] == client["args"]["trace_id"]
        assert server["args"]["parent_id"] == client["args"]["span_id"]
        assert client["args"]["trace_id"] == format_trace_id(1)
        assert client["args"]["parent_id"] == format_span_id(1)
        assert server["args"]["parent_id"] == format_span_id(2)
        # Attributes ride along; the node moved to the track name.
        assert client["args"]["method"] == "get"
        assert "node" not in client["args"]

    def test_events_become_instants_on_their_node_track(self):
        tracer, log, _ = _sample_tracer()
        trace = to_chrome_trace(tracer, log)
        instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        (instant,) = instants
        assert instant["name"] == "auth.decision"
        assert instant["s"] == "t"
        meta = {
            e["args"]["name"]: e["tid"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        assert instant["tid"] == meta["server"]

    def test_export_is_deterministic(self):
        first = json.dumps(
            to_chrome_trace(*_sample_tracer()[:2]), sort_keys=True
        )
        second = json.dumps(
            to_chrome_trace(*_sample_tracer()[:2]), sort_keys=True
        )
        assert first == second

    def test_dropped_roots_surface_in_other_data(self):
        clock = ManualClock()
        tracer = Tracer(clock, max_spans=1)
        for i in range(3):
            with tracer.span(f"s{i}"):
                pass
        trace = to_chrome_trace(tracer)
        assert trace["otherData"]["spans_dropped"] == 2
