"""The CLI contract, checked once over the command table, and the
scenario table ``python -m repro verify`` executes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import verify
from repro.__main__ import COMMANDS, JSON, OUT, SEED, main
from repro.verify import SCENARIOS, Scenario

ROOT = Path(__file__).resolve().parents[1]

BY_NAME = {command.name: command for command in COMMANDS}
SEEDED = [command.name for command in COMMANDS if SEED in command.options]

#: Small-but-real argv for every command that takes both --json and --out.
SMALL = {
    "bench-load": ["--clients", "2", "--requests", "6"],
    "bench-overload": ["--clients", "2", "--duration", "0.5"],
    "bench-churn": ["--ops", "150"],
    "bench-recovery": ["--ops", "120", "--crashes", "2"],
}


class TestCommandTable:
    def test_the_documented_commands_are_all_rows(self):
        assert list(BY_NAME) == [
            "stats", "chaos", "bench-load", "bench-overload", "bench-churn",
            "bench-recovery", "simtest", "trace", "verify",
        ]

    @pytest.mark.parametrize("name", list(BY_NAME))
    def test_unknown_flag_exits_2_with_usage(self, name, capsys):
        assert main([name, "--bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("name", SEEDED)
    def test_missing_value_exits_2(self, name, capsys):
        assert main([name, "--seed"]) == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("name", SEEDED)
    def test_non_numeric_seed_exits_2(self, name, capsys):
        assert main([name, "--seed", "x"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_2_with_usage(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name",
        [c.name for c in COMMANDS if JSON in c.options and OUT in c.options],
    )
    def test_json_stdout_parses_and_equals_the_out_file(
        self, name, capsys, tmp_path
    ):
        out = tmp_path / "report.json"
        code = main([name, "--seed", "7", *SMALL[name], "--json",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text()
        assert json.loads(printed)["seed"] == 7


class TestScenarioTable:
    def test_list_equals_the_table(self, capsys):
        assert main(["verify", "--list"]) == 0
        listed = [
            line.split(": python -m repro ")
            for line in capsys.readouterr().out.splitlines()
        ]
        assert listed == [[row.name, row.argv] for row in SCENARIOS]

    def test_rows_are_uniquely_named_and_run_real_commands(self):
        names = [row.name for row in SCENARIOS]
        assert len(set(names)) == len(names)
        for row in SCENARIOS:
            assert row.argv.split()[0] in BY_NAME, row.name

    def test_every_root_snapshot_is_declared_by_exactly_one_row(self):
        declared = sorted(row.snapshot for row in SCENARIOS if row.snapshot)
        on_disk = sorted(path.name for path in ROOT.glob("BENCH_*.json"))
        assert declared == on_disk

    def test_unknown_scenario_name_exits_2(self, capsys):
        assert main(["verify", "no-such-row"]) == 2
        assert "usage" in capsys.readouterr().err


class TestVerifyEngine:
    """Each generic check, against rows cheap enough for tier-1."""

    def test_clean_row_passes(self):
        assert verify.check(Scenario("ok", "verify --list")) is None

    def test_nonzero_exit_fails_the_row(self):
        failure = verify.check(Scenario("bad", "stats --bogus"))
        assert failure.startswith("exited 2")

    def test_a_drill_that_passes_fails_the_row(self):
        failure = verify.check(
            Scenario("drill", "verify --list", expect_fail=True)
        )
        assert "must exit 1" in failure

    def test_stale_snapshot_fails_the_row(self):
        failure = verify.check(
            Scenario("snap", "verify --list", snapshot="BENCH_load.json")
        )
        assert "BENCH_load.json is stale" in failure

    def test_failed_gate_is_named(self):
        row = Scenario(
            "gated", "trace --seed 3",
            gates=(("has events", lambda t: bool(t["traceEvents"])),
                   ("impossible", lambda t: t["no-such-key"])),
        )
        assert verify.check(row) == "gate failed: impossible"

    def test_missing_artefact_fails_the_row(self):
        row = Scenario("art", "verify --list", artefacts=(("nope.json", ()),))
        assert verify.check(row) == "nope.json was not written"

    def test_a_failing_row_is_named_and_exits_1(self, monkeypatch, capsys):
        rows = (Scenario("ok", "verify --list"),
                Scenario("broken", "stats --bogus"))
        monkeypatch.setattr(verify, "SCENARIOS", rows)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "[PASS] ok" in out
        assert "[FAIL] broken: exited 2" in out
