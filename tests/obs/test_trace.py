"""Tracer and span behaviour: nesting, durations, retention, identities."""

from __future__ import annotations

from repro import obs
from repro.clock import ManualClock
from repro.obs import names
from repro.obs.trace import NULL_SPAN, Tracer, format_span_id, format_trace_id


class TestNesting:
    def test_children_attach_to_enclosing_span(self):
        tracer = Tracer(ManualClock())
        with tracer.span("outer") as outer:
            with tracer.span("mid") as mid:
                with tracer.span("inner") as inner:
                    assert tracer.current is inner
        assert mid.parent is outer
        assert inner.parent is mid
        assert outer.children == [mid]
        assert mid.children == [inner]
        assert (outer.depth, mid.depth, inner.depth) == (0, 1, 2)

    def test_siblings_share_a_parent(self):
        tracer = Tracer(ManualClock())
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        assert [c.name for c in root.children] == ["a", "b"]

    def test_only_roots_retained(self):
        tracer = Tracer(ManualClock())
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert [s.name for s in tracer.roots()] == ["root"]
        # but find() walks the whole retained tree
        assert len(tracer.find("child")) == 1

    def test_current_clears_after_exit(self):
        tracer = Tracer(ManualClock())
        with tracer.span("s"):
            pass
        assert tracer.current is None


class TestDurations:
    def test_duration_uses_the_injected_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        with tracer.span("timed") as span:
            clock.advance(2.5)
        assert span.duration == 2.5
        assert span.start == 0.0
        assert span.end == 2.5

    def test_open_span_measures_to_now(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        with tracer.span("open") as span:
            clock.advance(1.0)
            assert span.duration == 1.0
            clock.advance(1.0)
            assert span.duration == 2.0

    def test_nested_durations_are_disjoint(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        with tracer.span("outer") as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(3.0)
            clock.advance(1.0)
        assert inner.duration == 3.0
        assert outer.duration == 5.0


class TestAttributes:
    def test_attributes_at_creation_and_via_set(self):
        tracer = Tracer(ManualClock())
        with tracer.span("s", role="Member") as span:
            span.set(result="found")
        assert span.attributes == {"role": "Member", "result": "found"}


class TestRetention:
    def test_bounded_root_retention(self):
        tracer = Tracer(ManualClock(), max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.roots()] == ["s2", "s3", "s4"]

    def test_reset_clears_retained_spans(self):
        tracer = Tracer(ManualClock())
        with tracer.span("s"):
            pass
        tracer.reset()
        assert tracer.roots() == []
        assert tracer.current is None

    def test_leaked_child_does_not_corrupt_the_stack(self):
        # An exception between a child's enter and exit leaves it on the
        # stack; the parent's exit must pop through it.
        tracer = Tracer(ManualClock())
        outer = tracer.span("outer")
        outer.__enter__()
        tracer.span("leaked").__enter__()  # never exited
        outer.__exit__(None, None, None)
        assert tracer.current is None
        with tracer.span("after") as after:
            pass
        assert after.parent is None

    def test_evicting_a_root_counts_dropped(self):
        with obs.scoped() as registry:
            tracer = obs.get_tracer()
            tracer.finished = type(tracer.finished)(maxlen=2)
            for i in range(5):
                with tracer.span(f"s{i}"):
                    pass
            assert tracer.dropped == 3
            assert registry.counter_value(names.TRACE_DROPPED) == 3


class TestIdentifiers:
    def test_each_root_starts_a_fresh_trace(self):
        tracer = Tracer(ManualClock())
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id
        assert a.parent_id == 0 and b.parent_id == 0

    def test_children_inherit_the_trace_and_link_to_parents(self):
        tracer = Tracer(ManualClock())
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                pass
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_ids_are_deterministic_after_reset(self):
        tracer = Tracer(ManualClock())

        def mint():
            with tracer.span("root") as root:
                with tracer.span("child") as child:
                    pass
            return (root.trace_id, root.span_id, child.span_id)

        first = mint()
        tracer.reset()
        assert mint() == first

    def test_hex_formatting_is_w3c_shaped(self):
        assert format_trace_id(255) == "0" * 30 + "ff"
        assert len(format_trace_id(1)) == 32
        assert len(format_span_id(1)) == 16


class TestManualSpans:
    """A manual span continues a trace — under a local parent or from a
    remote context — and never starts one."""

    def test_without_parent_or_remote_there_is_no_trace(self):
        tracer = Tracer(ManualClock())
        assert tracer.start("rpc.client", node="client") is NULL_SPAN
        assert tracer.start("rpc.client", parent=None, remote=None) is NULL_SPAN
        assert tracer.roots() == []

    def test_start_finish_lifecycle(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        span = tracer.start("rpc.client", remote=(7, 3), node="client")
        clock.advance(1.5)
        span.finish()
        assert span.end == 1.5
        assert [s.name for s in tracer.roots()] == ["rpc.client"]

    def test_finish_is_idempotent(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        span = tracer.start("once", remote=(7, 3))
        span.finish()
        clock.advance(5.0)
        span.finish()
        assert span.end == 0.0
        assert len(tracer.roots()) == 1

    def test_explicit_parent_attaches_without_stack(self):
        tracer = Tracer(ManualClock())
        parent = tracer.start("parent", remote=(7, 3))
        child = tracer.start("child", parent=parent)
        child.finish()
        parent.finish()
        assert child.parent is parent
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        # Only the parent is a root.
        assert [s.name for s in tracer.roots()] == ["parent"]

    def test_remote_parent_makes_a_stitched_local_root(self):
        tracer = Tracer(ManualClock())
        server = tracer.start("rpc.server", remote=(77, 13))
        server.finish()
        assert server.trace_id == 77
        assert server.parent_id == 13
        assert [s.name for s in tracer.roots()] == ["rpc.server"]

    def test_activation_nests_stack_spans_under_a_manual_span(self):
        tracer = Tracer(ManualClock())
        manual = tracer.start("rpc.server", remote=(1, 1))
        with tracer.activate(manual):
            with tracer.span("drbac.proof.search") as search:
                pass
        manual.finish()
        assert search.parent is manual
        assert search.trace_id == manual.trace_id
        assert tracer.current is None

    def test_error_tagging(self):
        tracer = Tracer(ManualClock())
        span = tracer.start("rpc.client", remote=(7, 3))
        assert span.ok
        span.set_error("RpcTimeoutError")
        assert not span.ok
        assert span.attributes["error"] == "RpcTimeoutError"

    def test_to_dict_round_trips_the_subtree(self):
        clock = ManualClock()
        tracer = Tracer(clock)
        root = tracer.start("root", remote=(7, 3), node="client")
        child = tracer.start("child", parent=root)
        clock.advance(0.5)
        child.finish()
        root.finish()
        dump = root.to_dict()
        assert dump["name"] == "root"
        assert dump["attributes"] == {"node": "client"}
        assert dump["children"][0]["name"] == "child"
        assert dump["children"][0]["parent_id"] == format_span_id(root.span_id)

    def test_open_span_dumps_as_open(self):
        tracer = Tracer(ManualClock())
        span = tracer.start("live", remote=(7, 3))
        assert span.to_dict()["open"] is True
