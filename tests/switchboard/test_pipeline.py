"""RPC pipelining: windowing, ordering, id reuse, failure propagation."""

from __future__ import annotations

import pytest

from repro.errors import RpcTimeoutError, SwitchboardError
from repro.net import EventScheduler, Network, Transport
from repro.switchboard.rpc import CallIdPool, PlainRpcEndpoint, RemoteError


class Echo:
    def echo(self, value):
        return value

    def boom(self, value):
        raise ValueError(f"boom {value}")


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
    server.exporter.export("echo", Echo())
    return scheduler, transport, client


class TestCallIdPool:
    def test_fresh_ids_are_sequential(self):
        pool = CallIdPool()
        assert [pool.acquire() for _ in range(3)] == [1, 2, 3]

    def test_released_ids_are_reused_smallest_first(self):
        pool = CallIdPool()
        ids = [pool.acquire() for _ in range(4)]
        pool.release(ids[2])
        pool.release(ids[0])
        assert pool.acquire() == ids[0]
        assert pool.acquire() == ids[2]
        assert pool.acquire() == 5

    def test_non_reusable_ids_never_recycle(self):
        pool = CallIdPool()
        retry_id = pool.acquire(reusable=False)
        pool.release(retry_id)  # ignored
        assert pool.acquire() == retry_id + 1

    def test_release_is_idempotent(self):
        pool = CallIdPool()
        call_id = pool.acquire()
        pool.release(call_id)
        pool.release(call_id)
        assert pool.acquire() == call_id
        assert pool.acquire() == 2

    def test_high_water_stays_bounded_under_reuse(self, world):
        _, _, client = world
        for _ in range(20):
            client.call_sync("server", "echo", "echo", ["x"])
        # Every call completed before the next was issued, so one id
        # serves the whole sequence.
        assert client.calls.high_water == 1


class TestPipeline:
    def test_results_in_issue_order(self, world):
        _, _, client = world
        pipe = client.pipeline("server", "echo", depth=4)
        for index in range(10):
            pipe.call("echo", [index])
        assert pipe.drain() == list(range(10))

    def test_window_limits_in_flight(self, world):
        _, _, client = world
        pipe = client.pipeline("server", "echo", depth=3)
        for index in range(10):
            pipe.call("echo", [index])
        # Backlogged calls are queued locally, not on the wire.
        assert pipe.in_flight == 3
        assert pipe.outstanding == 10
        pipe.drain()
        assert pipe.in_flight == 0
        assert pipe.outstanding == 0

    def test_depth_one_is_serial(self, world):
        scheduler, _, client = world
        pipe = client.pipeline("server", "echo", depth=1)
        for index in range(3):
            pipe.call("echo", [index])
        assert pipe.drain() == [0, 1, 2]
        # Three strictly sequential round trips over a 5 ms link.
        assert scheduler.now() >= 3 * 2 * 0.005

    def test_pipelined_faster_than_serial(self, world):
        scheduler, _, client = world
        serial = client.pipeline("server", "echo", depth=1)
        for index in range(8):
            serial.call("echo", [index])
        serial.drain()
        serial_makespan = scheduler.now()
        fast = client.pipeline("server", "echo", depth=8)
        for index in range(8):
            fast.call("echo", [index])
        fast.drain()
        fast_makespan = scheduler.now() - serial_makespan
        assert serial_makespan / fast_makespan >= 2.0

    def test_remote_errors_do_not_hide_neighbours(self, world):
        _, _, client = world
        pipe = client.pipeline("server", "echo", depth=4)
        pipe.call("echo", [1])
        pipe.call("boom", [2])
        pipe.call("echo", [3])
        results = pipe.drain(return_exceptions=True)
        assert results[0] == 1
        assert isinstance(results[1], RemoteError)
        assert "boom 2" in str(results[1])
        assert results[2] == 3

    def test_drain_raises_without_opt_in(self, world):
        _, _, client = world
        pipe = client.pipeline("server", "echo", depth=4)
        pipe.call("boom", [1])
        with pytest.raises(RemoteError):
            pipe.drain()

    def test_caller_exception_aborts_only_that_call(self, world):
        _, _, client = world
        calls = 0

        def flaky(value):
            nonlocal calls
            calls += 1
            if calls == 2:
                raise RuntimeError("local send blew up")
            return client.call("server", "echo", "echo", [value])

        from repro.switchboard.rpc import RpcPipeline

        scheduler = client.transport.scheduler
        pipe = RpcPipeline(flaky, scheduler, depth=2)
        for index in range(3):
            pipe.call(index)
        results = pipe.drain(return_exceptions=True)
        assert results[0] == 0
        assert isinstance(results[1], RuntimeError)
        assert results[2] == 2

    def test_id_reuse_keeps_id_space_small(self, world):
        _, _, client = world
        pipe = client.pipeline("server", "echo", depth=4)
        for index in range(40):
            pipe.call("echo", [index])
        pipe.drain()
        # Ids cycle within (roughly) the window, not one per call.
        assert client.calls.high_water <= 8

    def test_rejects_bad_depth(self, world):
        _, _, client = world
        with pytest.raises(SwitchboardError):
            client.pipeline("server", "echo", depth=0)

    def test_drain_timeout_on_dead_server(self, world):
        scheduler, transport, client = world
        transport.network.node("server").up = False
        pipe = client.pipeline("server", "echo", depth=2)
        pipe.call("echo", [1])
        with pytest.raises((RpcTimeoutError, SwitchboardError)):
            pipe.drain(timeout=1.0)


class TestPipelineBatchingTogether:
    def test_batched_pipeline_results_identical(self, world):
        scheduler, transport, client = world
        plain = client.pipeline("server", "echo", depth=4)
        for index in range(12):
            plain.call("echo", [index])
        expected = plain.drain()
        transport.configure_batching(max_frames=4, window=0.002)
        batched = client.pipeline("server", "echo", depth=4)
        for index in range(12):
            batched.call("echo", [index])
        assert batched.drain() == expected
        assert transport.stats.batches_sent > 0
