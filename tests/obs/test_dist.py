"""The traced scenario behind ``python -m repro trace``.

These are the end-to-end distributed-tracing assertions from the issue:
one chaos-mode RPC shows client span → per-retry attempt spans →
transport/batch spans → server-side proof-search span, all under one
shared trace id, exported as valid Chrome trace-event JSON — and the
whole export is byte-identical for one seed.
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

from repro import obs
from repro.obs.dist import SCHEMA, run_trace


def _spans(trace: dict) -> list[dict]:
    return [e for e in trace["traceEvents"] if e.get("ph") == "X"]


def _by_trace(trace: dict) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for span in _spans(trace):
        grouped[span["args"]["trace_id"]].append(span)
    return grouped


@pytest.fixture(scope="module")
def clean_trace(key_store):
    return run_trace(7, key_store=key_store)


@pytest.fixture(scope="module")
def chaos_trace(key_store):
    return run_trace(7, chaos=True, key_store=key_store)


class TestCleanTrace:
    def test_report_metadata(self, clean_trace):
        other = clean_trace["otherData"]
        assert other["schema"] == SCHEMA
        assert other["seed"] == 7
        assert other["chaos"] is False
        assert other["retries"] == 0
        assert other["frames_lost"] == 0

    def test_workload_outcomes(self, clean_trace):
        ops = clean_trace["otherData"]["ops"]
        assert [op[0] for op in ops] == ["put", "get", "check", "get", "check"]
        # alice's ops succeed; mallory's get is denied over the wire;
        # mallory's check resolves the anonymous default view.
        assert ops[1] == ["get", "ok", "'hello'"]
        assert ops[2][2] == "[True, 'ViewTraceKV_Member']"
        assert ops[3] == ["get", "error", "RemoteError"]
        assert ops[4][2] == "[False, 'ViewTraceKV_Anonymous']"

    def test_one_trace_per_op_stitched_client_to_server(self, clean_trace):
        grouped = _by_trace(clean_trace)
        client_traces = [
            spans for spans in grouped.values()
            if any(s["name"] == "rpc.client" for s in spans)
        ]
        assert len(client_traces) == 5
        for spans in client_traces:
            names = {s["name"] for s in spans}
            assert {"rpc.client", "net.transmit", "rpc.server"} <= names

    def test_server_work_nests_under_the_server_span(self, clean_trace):
        grouped = _by_trace(clean_trace)
        # The first op is a cache miss: its trace must contain the dRBAC
        # proof search and the view resolution under the server span.
        first = next(
            spans for spans in grouped.values()
            if any(s["name"] == "drbac.proof.search" for s in spans)
        )
        by_id = {s["args"]["span_id"]: s for s in first}
        search = next(s for s in first if s["name"] == "drbac.proof.search")
        resolve = next(s for s in first if s["name"] == "views.acl.resolve")
        assert by_id[search["args"]["parent_id"]]["name"] == "rpc.server"
        assert by_id[resolve["args"]["parent_id"]]["name"] == "rpc.server"

    def test_denial_tags_the_server_and_client_spans(self, clean_trace):
        spans = _spans(clean_trace)
        assert any(
            s["name"] == "rpc.server"
            and s["args"].get("error") == "AuthorizationError"
            for s in spans
        )
        assert any(
            s["name"] == "rpc.client"
            and s["args"].get("error") == "RemoteError"
            for s in spans
        )

    def test_audit_instants_present(self, clean_trace):
        instants = [
            e["name"] for e in clean_trace["traceEvents"] if e.get("ph") == "i"
        ]
        assert "auth.decision" in instants
        assert "view.resolve" in instants


class TestChaosTrace:
    def test_losses_and_retries_happened(self, chaos_trace):
        other = chaos_trace["otherData"]
        assert other["chaos"] is True
        assert other["frames_lost"] > 0
        assert other["retries"] > 0

    def test_attempts_are_children_of_the_retrying_client_span(
        self, chaos_trace
    ):
        grouped = _by_trace(chaos_trace)
        retried = next(
            spans for spans in grouped.values()
            if sum(s["name"] == "rpc.attempt" for s in spans) > 1
        )
        by_id = {s["args"]["span_id"]: s for s in retried}
        for attempt in (s for s in retried if s["name"] == "rpc.attempt"):
            parent = by_id[attempt["args"]["parent_id"]]
            assert parent["name"] == "rpc.client"
            assert parent["args"]["retrying"] is True

    def test_full_chain_under_one_trace_id(self, chaos_trace):
        grouped = _by_trace(chaos_trace)
        chain = {
            "rpc.client", "rpc.attempt", "net.transmit",
            "rpc.server", "drbac.proof.search",
        }
        assert any(
            chain <= {s["name"] for s in spans} for spans in grouped.values()
        )

    def test_lost_frames_tag_their_transmit_spans(self, chaos_trace):
        assert any(
            s["name"] == "net.transmit" and s["args"].get("error") == "FrameLost"
            for s in _spans(chaos_trace)
        )

    def test_server_stitches_to_the_attempt_that_reached_it(self, chaos_trace):
        grouped = _by_trace(chaos_trace)
        for spans in grouped.values():
            attempts = {
                s["args"]["span_id"] for s in spans if s["name"] == "rpc.attempt"
            }
            if not attempts:
                continue
            for server in (s for s in spans if s["name"] == "rpc.server"):
                assert server["args"]["parent_id"] in attempts


class TestDeterminismAndIsolation:
    def test_same_seed_byte_identical(self, key_store):
        first = json.dumps(
            run_trace(3, chaos=True, key_store=key_store), sort_keys=True
        )
        second = json.dumps(
            run_trace(3, chaos=True, key_store=key_store), sort_keys=True
        )
        assert first == second

    def test_different_seeds_differ_under_chaos(self, key_store):
        a = run_trace(3, chaos=True, key_store=key_store)
        b = run_trace(4, chaos=True, key_store=key_store)
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_export_is_valid_json(self, clean_trace):
        assert json.loads(json.dumps(clean_trace, sort_keys=True)) == clean_trace

    def test_scenario_restores_ambient_obs_state(self, key_store):
        before = (obs.is_enabled(), obs.get_tracer(), obs.get_registry())
        run_trace(5, key_store=key_store)
        assert (obs.is_enabled(), obs.get_tracer(), obs.get_registry()) == before
