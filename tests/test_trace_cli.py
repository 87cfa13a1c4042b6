"""CLI tests for ``repro trace`` and the simtest flight-recorder dump."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


class TestTraceCommand:
    def test_stdout_is_the_trace_json(self, capsys):
        assert main(["trace", "--seed", "3"]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["otherData"]["schema"] == "repro-trace/v1"
        assert trace["otherData"]["seed"] == 3
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])

    def test_out_writes_file_and_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "--seed", "3", "--chaos", "--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert trace["otherData"]["chaos"] is True
        summary = capsys.readouterr().out
        assert "spans" in summary and "perfetto" in summary

    def test_dispatch_through_main(self, capsys):
        assert main(["trace", "--seed", "3"]) == 0
        json.loads(capsys.readouterr().out)


@pytest.mark.slow
class TestSimtestFlightDump:
    def test_divergence_writes_flight_beside_the_repro(self, tmp_path, capsys):
        out = tmp_path / "repro.json"
        code = main([
            "simtest", "--seed", "7", "--steps", "300",
            "--mutate", "ignore-revoke", "--out", str(out),
        ])
        assert code == 1
        assert out.exists()
        flight_path = tmp_path / "repro-flight.json"
        assert flight_path.exists()
        flight = json.loads(flight_path.read_text())
        assert flight["schema"] == "flightrec/v1"
        assert flight["reason"] == "simtest.divergence"
        assert flight["events"], "flight dump carries the recent event tail"
        kinds = {e["kind"] for e in flight["events"]}
        assert "check.op" in kinds
