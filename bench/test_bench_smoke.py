"""Smoke test of the benchmark itself; not part of tier-1.

Run with ``python -m pytest bench -q`` (``testpaths = ["tests"]`` keeps it
out of the default run).  Every workload is driven once with ``--smoke``
(one tiny repetition, the same ``KEY_BITS``), untraced and traced.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_spec_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(run("--workload", workload, "--smoke", "--trace", "0"))
    expected = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for name, cell in result["metrics"].items():
        assert cell["unit"] == expected[name]
        assert isinstance(cell["value"], (int, float)) and cell["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_spans(workload, tmp_path):
    spans_file = tmp_path / "spans.json"
    done = run("--workload", workload, "--smoke", "--trace", "1",
               "--out", str(spans_file))
    result = result_of(done)
    expected = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(expected)
    lost = "LAYER-COVERAGE-LOST" in done.stdout
    for name, cell in result["metrics"].items():
        assert cell["unit"] == expected[name]
        # A null is only ever the explained loss of a layer's coverage.
        assert isinstance(cell["value"], (int, float)) or (
            cell["value"] is None and lost
        ), name
    assert result["metrics"]["bench.fail_ratio"]["value"] == 0

    shares = [
        cell["value"] for name, cell in result["metrics"].items()
        if name.endswith(".self_frac") or name == "bench.other_frac"
    ]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)

    spans = json.loads(spans_file.read_text())
    assert spans and spans[0]["parent"] == -1 and spans[0]["layer"] == "bench"
    for index, span in enumerate(spans[1:], start=1):
        assert 0 <= span["parent"] < index
        parent = spans[span["parent"]]
        assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]
        assert isinstance(span["op"], int)
        assert NAME.fullmatch(span["layer"])


def test_a_vanished_callable_is_lost_coverage_not_a_crash():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import layers\n"
        "layers.BOUNDARIES += (('repro.net.simnet', 'Network.no_such_method', 'net'),)\n"
        "with layers.installed(layers.Tracer(None)) as lost:\n"
        "    assert lost['net'] == ['repro.net.simnet:Network.no_such_method'], lost\n"
        "    assert lost['crypto'] == []\n"
    ) % (str(BENCH), str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "LAYER-COVERAGE-LOST repro.net.simnet:Network.no_such_method" in done.stdout


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
