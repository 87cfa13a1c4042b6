"""Structured event log and flight-recorder snapshots."""

from __future__ import annotations

from repro import obs
from repro.clock import ManualClock
from repro.obs.events import NULL_EVENT, NULL_EVENT_LOG, EventLog
from repro.obs.flight import SCHEMA as FLIGHT_SCHEMA


class TestEventLog:
    def test_emit_assigns_seq_and_clock_time(self):
        clock = ManualClock()
        log = EventLog(clock)
        first = log.emit("auth.decision", principal="alice", verdict="grant")
        clock.advance(2.0)
        second = log.emit("rpc.retry", attempt=2)
        assert (first.seq, first.at) == (1, 0.0)
        assert (second.seq, second.at) == (2, 2.0)
        assert first.kind == "auth.decision"
        assert first.fields == {"principal": "alice", "verdict": "grant"}

    def test_ring_buffer_evicts_and_counts(self):
        log = EventLog(ManualClock(), max_events=3)
        for i in range(5):
            log.emit("tick", n=i)
        assert len(log) == 3
        assert log.dropped == 2
        assert [e.fields["n"] for e in log.tail()] == [2, 3, 4]
        # seq keeps counting across evictions: ordering stays total.
        assert [e.seq for e in log.tail()] == [3, 4, 5]

    def test_tail_and_find(self):
        log = EventLog(ManualClock())
        log.emit("a", n=1)
        log.emit("b", n=2)
        log.emit("a", n=3)
        assert [e.kind for e in log.tail(2)] == ["b", "a"]
        assert [e.fields["n"] for e in log.find("a")] == [1, 3]

    def test_a_field_may_be_named_kind(self):
        # The positional-only first parameter exists exactly for this.
        log = EventLog(ManualClock())
        event = log.emit("fault.inject", kind="link_down", fault_class="net")
        assert event.kind == "fault.inject"
        assert event.fields["kind"] == "link_down"

    def test_reset_clears_everything(self):
        log = EventLog(ManualClock(), max_events=2)
        for i in range(4):
            log.emit("tick", n=i)
        log.reset()
        assert len(log) == 0
        assert log.dropped == 0
        assert log.emit("fresh").seq == 1

    def test_to_dict_sorts_fields(self):
        log = EventLog(ManualClock())
        event = log.emit("e", zebra=1, alpha=2)
        assert list(event.to_dict()["fields"]) == ["alpha", "zebra"]


class TestModuleApi:
    def test_obs_event_lands_in_the_scoped_log(self):
        with obs.scoped():
            obs.event("auth.decision", principal="alice", verdict="grant")
            log = obs.get_event_log()
            assert len(log) == 1
            assert log.find("auth.decision")[0].fields["verdict"] == "grant"

    def test_disabled_event_is_the_null_twin(self):
        with obs.scoped(enabled=False):
            assert obs.get_event_log() is NULL_EVENT_LOG
            event = obs.event("anything", n=1)
            assert event is NULL_EVENT
            assert len(NULL_EVENT_LOG) == 0

    def test_set_tracer_clock_also_moves_the_event_log(self):
        with obs.scoped():
            clock = ManualClock()
            clock.advance(7.0)
            obs.set_tracer_clock(clock)
            assert obs.event("e").at == 7.0


class TestFlightRecorder:
    def test_snapshot_shape(self):
        with obs.scoped():
            clock = ManualClock()
            obs.set_tracer_clock(clock)
            obs.event("auth.decision", verdict="deny")
            tracer = obs.get_tracer()
            with tracer.span("finished.root"):
                pass
            live = tracer.start("live.span", remote=(7, 3))
            with tracer.activate(live):
                snap = obs.flight_snapshot("simtest.divergence")
            live.finish()
        assert snap["schema"] == FLIGHT_SCHEMA
        assert snap["reason"] == "simtest.divergence"
        assert [e["kind"] for e in snap["events"]] == ["auth.decision"]
        assert snap["events_dropped"] == 0
        assert [s["name"] for s in snap["live_spans"]] == ["live.span"]
        assert snap["live_spans"][0]["open"] is True
        assert [r["name"] for r in snap["recent_roots"]] == ["finished.root"]

    def test_snapshot_bounds_the_tails(self):
        with obs.scoped():
            for i in range(30):
                obs.event("tick", n=i)
            tracer = obs.get_tracer()
            for i in range(20):
                with tracer.span(f"r{i}"):
                    pass
            snap = obs.flight_snapshot("x", tail_events=5, recent_roots=3)
        assert [e["fields"]["n"] for e in snap["events"]] == list(range(25, 30))
        assert [r["name"] for r in snap["recent_roots"]] == ["r17", "r18", "r19"]

    def test_snapshot_is_json_compatible(self):
        import json

        with obs.scoped():
            obs.event("e", n=1, label="x")
            with obs.get_tracer().span("s", node="client"):
                pass
            snap = obs.flight_snapshot("test")
        assert json.loads(json.dumps(snap, sort_keys=True)) == snap
