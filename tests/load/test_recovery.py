"""Recovery-bench unit tests: determinism, gates, mutation, CLI contract."""

from __future__ import annotations

import json

from repro.__main__ import main
from repro.load.recovery import (
    REPORT_SCHEMA,
    RecoveryBench,
    generate_schedule,
)


class TestSchedule:
    def test_seeded_and_deterministic(self):
        assert generate_schedule(3, 120, 2) == generate_schedule(3, 120, 2)
        assert generate_schedule(3, 120, 2) != generate_schedule(4, 120, 2)

    def test_every_crash_cycle_is_complete(self):
        schedule = generate_schedule(7, 120, 3)
        kinds = [op[0] for op in schedule]
        assert kinds.count("crash") == 3
        assert kinds.count("restart") == 3
        assert kinds.count("battery") == 3
        # No authorization is attempted inside a downtime window.
        down = False
        for op in schedule:
            if op[0] == "crash":
                down = True
            elif op[0] == "restart":
                down = False
            elif op[0] == "authorize":
                assert not down

    def test_downtime_windows_carry_revocations(self):
        schedule = generate_schedule(7, 240, 4)
        down = False
        downtime_kinds = set()
        for op in schedule:
            if op[0] == "crash":
                down = True
            elif op[0] == "restart":
                down = False
            elif down:
                downtime_kinds.add(op[0])
        assert "revoke" in downtime_kinds


class TestRecoveryBench:
    def test_report_is_deterministic(self, key_store):
        first = RecoveryBench(seed=5, ops=120, crashes=2, key_store=key_store).run()
        second = RecoveryBench(seed=5, ops=120, crashes=2, key_store=key_store).run()
        assert first == second

    def test_gates_pass_and_recovery_is_accounted(self, key_store):
        report = RecoveryBench(seed=7, ops=180, crashes=3, key_store=key_store).run()
        assert report["schema"] == REPORT_SCHEMA
        assert report["ok"]
        assert report["verdicts_match"]
        assert report["oracle_agrees"]
        assert report["digests_match"]
        assert len(report["recoveries"]) == 3
        total = report["recovery"]
        assert total["work_units"] >= total["wal_records_replayed"]
        assert total["catchup_updates"] > 0  # downtime updates were pulled
        assert report["verdicts"]["checked"] > 0

    def test_skip_catchup_mutation_fails_the_gates(self, key_store):
        report = RecoveryBench(
            seed=7, ops=180, crashes=3, key_store=key_store,
            mutation="skip-catchup",
        ).run()
        assert not report["ok"]
        assert not report["digests_match"]


class TestCli:
    def test_bench_recovery_json(self, capsys, tmp_path):
        out = tmp_path / "recovery.json"
        code = main(["bench-recovery", "--seed", "7", "--ops", "120",
                     "--crashes", "2", "--json", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == REPORT_SCHEMA
        assert json.loads(capsys.readouterr().out) == report

    def test_bench_recovery_human_mode_lists_restarts(self, capsys):
        assert main(["bench-recovery", "--seed", "7", "--ops", "120",
                     "--crashes", "2"]) == 0
        text = capsys.readouterr().out
        assert "restart 0:" in text and "restart 1:" in text
        assert "[PASS] verdicts_match" in text
        assert "[PASS] digests_match" in text

    def test_bench_recovery_mutation_exits_nonzero(self, capsys):
        assert main(["bench-recovery", "--seed", "7", "--ops", "120",
                     "--crashes", "2", "--mutate", "skip-catchup"]) == 1
        assert "[FAIL]" in capsys.readouterr().out
