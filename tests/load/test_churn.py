"""Churn-bench unit tests: determinism, schedule shape, CLI contract."""

from __future__ import annotations

import json

from repro.__main__ import main
from repro.load.churn import REPORT_SCHEMA, ChurnBench, generate_schedule


class TestSchedule:
    def test_seeded_and_deterministic(self):
        assert generate_schedule(3, 200) == generate_schedule(3, 200)
        assert generate_schedule(3, 200) != generate_schedule(4, 200)

    def test_mix_has_every_op_kind(self):
        kinds = {op[0] for op in generate_schedule(7, 300)}
        assert kinds == {"delegate", "revoke", "authorize", "advance"}


class TestChurnBench:
    def test_report_is_deterministic(self, key_store):
        first = ChurnBench(seed=5, ops=150, key_store=key_store).run()
        second = ChurnBench(seed=5, ops=150, key_store=key_store).run()
        assert first == second

    def test_arms_agree_and_incremental_wins(self, key_store):
        report = ChurnBench(seed=7, ops=300, key_store=key_store).run()
        assert report["schema"] == REPORT_SCHEMA
        assert report["transcripts_match"] and report["oracle_agrees"]
        full, incr = report["arms"]["full"], report["arms"]["incremental"]
        assert (full["grants"], full["denials"]) == (incr["grants"], incr["denials"])
        assert incr["work_units"] < full["work_units"]
        assert report["speedup"]["authorize_after_revoke"] > 1.0


class TestCli:
    def test_bench_churn_json(self, capsys, tmp_path):
        out = tmp_path / "churn.json"
        code = main(["bench-churn", "--seed", "7", "--ops", "150", "--json",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == REPORT_SCHEMA
        assert json.loads(capsys.readouterr().out) == report

    def test_bench_churn_human_mode_summarizes_both_arms(self, capsys):
        assert main(["bench-churn", "--seed", "7", "--ops", "150"]) == 0
        text = capsys.readouterr().out
        assert "speedup" in text
        assert "full" in text and "incremental" in text
        assert "transcripts match: yes" in text
