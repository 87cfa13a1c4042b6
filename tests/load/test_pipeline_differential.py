"""The differential guarantee: fast mode changes the clock, not the data.

Pipelining reorders completions and batching coalesces wire transfers,
but neither may change what any client *observes*: per-client results in
issue order must be byte-identical between a serial run and a
pipelined + batched run of the same seeded workload.  These tests pin
that guarantee, the determinism of the report, and the throughput win
the optimisations exist for.
"""

from __future__ import annotations

import json

import pytest

from repro.load import LoadGenerator, run_bench
from repro.load.generator import transcript_digest

from ..obs import run_observed

SEED = 7
CLIENTS = 4
REQUESTS = 25


@pytest.fixture(scope="module")
def generator(key_store):
    return LoadGenerator(
        seed=SEED, clients=CLIENTS, requests=REQUESTS, key_store=key_store
    )


@pytest.fixture(scope="module")
def serial(generator):
    return generator.run(pipelined=False, batching=False)


@pytest.fixture(scope="module")
def fast(generator):
    return generator.run(pipelined=True, batching=True)


class TestDifferential:
    def test_transcripts_byte_identical(self, serial, fast):
        assert serial.transcripts == fast.transcripts
        assert transcript_digest(serial.transcripts) == transcript_digest(
            fast.transcripts
        )

    def test_every_client_produced_every_result(self, serial):
        assert len(serial.transcripts) == CLIENTS
        assert all(len(t) == REQUESTS for t in serial.transcripts)

    def test_same_logical_frames_either_way(self, serial, fast):
        # Batching changes wire framing, never the logical frame stream.
        assert serial.net["messages_sent"] == fast.net["messages_sent"]
        assert serial.net["bytes_sent"] == fast.net["bytes_sent"]
        assert serial.net["messages_delivered"] == fast.net["messages_delivered"]

    def test_errors_are_part_of_the_transcript(self, serial, fast):
        # The seeded workload includes dRBAC denials and view-narrowing
        # denials; both must appear identically in both modes.
        assert serial.errors == fast.errors
        assert serial.errors > 0
        flat = [entry for t in serial.transcripts for entry in t]
        assert any("AuthorizationError" in entry for entry in flat)
        assert any("no callable method" in entry for entry in flat)

    def test_pipelining_actually_pipelines(self, serial, fast):
        assert serial.depth == 1
        assert fast.depth > 1
        assert fast.net["batches_sent"] > 0
        assert fast.net["frames_coalesced"] > 0
        assert serial.net["batches_sent"] == 0


class TestTraceTopology:
    """The differential guarantee extended to distributed traces: the
    fast path may change timing and wire framing, but not the causal
    shape — same calls from the same clients, each stitched to the same
    number of server-side spans."""

    @pytest.fixture(scope="class")
    def traced_runs(self, key_store):
        generator = LoadGenerator(
            seed=SEED, clients=2, requests=10, key_store=key_store
        )
        # Each request is issued inside its own root span, so both runs
        # are traced; test_inert_tracing checks the traces change nothing.
        serial = generator.run(pipelined=False, batching=False)
        fast = generator.run(pipelined=True, batching=True)
        return serial, fast

    def test_topology_captured_only_under_dist(self, key_store):
        # Distributed tracing is on exactly for ops issued inside a span:
        # without the per-request root spans no call is traced.
        def run():
            return LoadGenerator(
                seed=SEED, clients=2, requests=10, key_store=key_store
            ).run(pipelined=True, batching=True)

        traced, _ = run_observed(run, traced=True)
        untraced, _ = run_observed(run, traced=False)
        assert len(traced.topology) == 2 * 10
        assert untraced.topology == []

    def test_fast_path_preserves_span_topology(self, traced_runs):
        serial, fast = traced_runs
        assert serial.topology
        assert fast.topology
        assert serial.topology == fast.topology

    def test_every_call_stitched_to_one_server_span(self, traced_runs):
        serial, _fast = traced_runs
        assert len(serial.topology) == 2 * 10
        assert all(servers == 1 for _n, _t, _m, servers in serial.topology)

    def test_transcripts_still_match_with_tracing_on(self, traced_runs):
        serial, fast = traced_runs
        assert serial.transcripts == fast.transcripts


class TestThroughput:
    def test_at_least_2x_speedup(self, serial, fast):
        assert fast.makespan_s > 0
        assert serial.makespan_s / fast.makespan_s >= 2.0

    def test_cache_worked_under_load(self, fast):
        assert fast.cache["hits"] > 0
        assert fast.cache["negative_hits"] > 0
        assert fast.cache["hit_rate"] > 0.5


class TestReportDeterminism:
    def test_same_seed_byte_identical_reports(self, key_store):
        reports = [
            json.dumps(
                run_bench(
                    seed=11, clients=2, requests=8, key_store=key_store
                ),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_different_seeds_differ(self, key_store):
        a = run_bench(seed=11, clients=2, requests=8, key_store=key_store)
        b = run_bench(seed=12, clients=2, requests=8, key_store=key_store)
        assert a["transcript_digest"] != b["transcript_digest"]

    def test_report_shape(self, key_store):
        report = run_bench(seed=3, clients=2, requests=6, key_store=key_store)
        assert report["schema"] == "bench-load/v1"
        assert report["transcripts_match"] is True
        for mode in ("serial", "pipelined"):
            section = report[mode]
            assert {"p50", "p95", "p99", "mean"} <= section["latency_s"].keys()
            assert section["ops"] == 2 * 6
