"""The bench-overload harness: invariants, determinism, and the CLI."""

from __future__ import annotations

import json
import subprocess
import sys

from repro.load import OverloadBench, run_bench_overload
from repro.load.overload import SCHEMA


def _small_bench(seed: int = 3) -> OverloadBench:
    return OverloadBench(seed=seed, clients=2, duration_s=0.5)


class TestReport:
    def test_invariants_hold_on_the_default_seed(self):
        report = _small_bench().report()
        assert report["schema"] == SCHEMA
        verdicts = report["invariants"]
        assert verdicts["ok"], verdicts
        assert report["flight"] is None

    def test_protection_beats_collapse_at_overload(self):
        report = _small_bench().report()
        ten_x = report["arms"][-1]
        assert ten_x["multiplier"] == 10
        protected = ten_x["with_flow"]
        unprotected = ten_x["without_flow"]
        assert protected["goodput_rps"] > unprotected["goodput_rps"]
        # The unprotected arm completes everything — eventually — so its
        # failure mode is latency, not errors.
        assert unprotected["errors"] == 0
        assert protected["shed"] > 0
        lat_off = unprotected["latency_s"]["p99"]
        lat_on = protected["latency_s"]["p99"]
        assert lat_on < lat_off

    def test_monitor_class_exempt_in_every_arm(self):
        report = _small_bench().report()
        for arm in report["arms"]:
            assert arm["with_flow"]["by_class"]["shed"][0] == 0

    def test_both_arms_see_identical_offered_load(self):
        report = _small_bench().report()
        for arm in report["arms"]:
            assert arm["with_flow"]["requests"] == arm["without_flow"]["requests"]

    def test_same_seed_byte_identical_report(self):
        first = json.dumps(_small_bench().report(), sort_keys=True)
        second = json.dumps(_small_bench().report(), sort_keys=True)
        assert first == second

    def test_different_seeds_differ(self):
        a = json.dumps(_small_bench(seed=3).report(), sort_keys=True)
        b = json.dumps(_small_bench(seed=4).report(), sort_keys=True)
        assert a != b

    def test_run_bench_overload_wrapper(self):
        report = run_bench_overload(seed=3, clients=2, duration_s=0.5)
        assert report["invariants"]["ok"]


class TestCli:
    def test_cli_json_is_deterministic_and_exits_zero(self):
        outputs = []
        for _ in range(2):
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "bench-overload",
                    "--seed", "3", "--clients", "2", "--duration", "0.5",
                    "--json",
                ],
                capture_output=True,
                text=True,
                timeout=180,
            )
            assert result.returncode == 0, result.stderr[-1500:]
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["schema"] == SCHEMA
        assert report["invariants"]["ok"]
