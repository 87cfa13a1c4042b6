"""Tracing does not change the run.

The trace context of a call rides beside its frames, never inside them,
so running every op inside a root span (traced end to end) and running
it outside any span (untraced) must put the same bytes on every link,
send the same byte count, end at the same virtual instant and return the
same results.  Both harnesses that issue traced ops are checked at three
seeds: the ``repro trace --chaos`` scenario (loss, retries, batching)
and ``repro bench-load`` (serial, then pipelined and batched).
"""

from __future__ import annotations

import pytest

from repro.load import run_bench
from repro.obs.dist import run_trace

from . import Observed, run_observed

SEEDS = (1, 7, 11)


def _same_run(traced: Observed, untraced: Observed) -> None:
    assert traced.spans("rpc.server") > 0
    assert untraced.spans("rpc.client") == untraced.spans("rpc.server") == 0
    assert traced.frames
    assert traced.frames == untraced.frames
    assert traced.bytes_sent == untraced.bytes_sent
    assert traced.makespans == untraced.makespans


@pytest.mark.parametrize("seed", SEEDS)
def test_trace_chaos_scenario(seed, key_store):
    def run():
        return run_trace(seed, chaos=True, key_store=key_store)["otherData"]

    traced, seen = run_observed(run, traced=True)
    untraced, unseen = run_observed(run, traced=False)
    _same_run(seen, unseen)
    assert traced["retries"] > 0
    for key in ("virtual_makespan_s", "ops", "retries", "frames_lost"):
        assert traced[key] == untraced[key], key


@pytest.mark.parametrize("seed", SEEDS)
def test_bench_load(seed, key_store):
    def run():
        return run_bench(seed=seed, clients=8, key_store=key_store)

    traced, seen = run_observed(run, traced=True)
    untraced, unseen = run_observed(run, traced=False)
    _same_run(seen, unseen)
    # The whole report: makespans, net.bytes_sent, latencies and the
    # transcript digest of every op's result, serial and pipelined.
    assert traced == untraced
    assert traced["transcripts_match"] is True
