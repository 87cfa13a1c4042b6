"""The scenario table: every harness check CI performs, one row each.

``python -m repro verify [NAME...]`` executes the rows generically.  A
row pins one ``python -m repro`` command line; what must hold for it:

* **smoke** — it exits 0.  ``expect_fail`` rows are mutation drills (a
  deliberately broken oracle or recovery step): they must exit 1.
* **gates** — predicates over the JSON report the run printed.
* **determinism** — a second *fresh interpreter process* prints the same
  bytes.  Each process draws its own string-hash seed, so a report that
  leaks set iteration order fails here even though two in-process runs
  would agree.
* **snapshot** — the output equals the checked-in ``BENCH_*.json`` at
  the repo root: a change that moves a benchmark number re-baselines it
  in the same diff.
* **artefacts** — JSON files the run must leave behind (the shrunk repro
  and flight-recorder dump of a simtest drill), gated the same way.

Runs use a throw-away working directory, so artefacts never land in the
checkout.  ``.github/workflows/ci.yml`` runs the whole table as one step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from .faults.plan import FaultKind

Gate = tuple[str, Callable[[Any], bool]]
"""(what must hold, predicate over a parsed JSON document)."""

_SRC = Path(__file__).resolve().parents[1]
_ROOT = _SRC.parent


@dataclass(frozen=True, slots=True)
class Scenario:
    name: str
    argv: str
    """The pinned command line, as typed after ``python -m repro``."""
    gates: tuple[Gate, ...] = ()
    snapshot: str | None = None
    expect_fail: bool = False
    artefacts: tuple[tuple[str, tuple[Gate, ...]], ...] = ()


def _stitched(trace: dict) -> bool:
    """One trace id ties client, attempt, transport, server and proof spans."""
    chain = {"rpc.client", "rpc.attempt", "net.transmit", "rpc.server",
             "drbac.proof.search"}
    names_by_trace: dict[Any, set[str]] = {}
    for event in trace["traceEvents"]:
        if event.get("ph") == "X":
            names_by_trace.setdefault(event["args"]["trace_id"], set()).add(
                event["name"]
            )
    return any(chain <= names for names in names_by_trace.values())


def _every_class_recovered(report: dict) -> bool:
    """Each fault class the storm injected recovered at least once."""
    injected = {
        FaultKind(entry["kind"]).fault_class
        for entry in report["injections"]
        if entry["phase"] == "inject"
    }
    return all(report["recoveries"].get(cls, 0) >= 1 for cls in injected)


_NO_DIVERGENCE: Gate = ("oracles agree", lambda r: r["divergence"] is None)

SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        "chaos",
        "chaos --seed 7 --duration 5 --json",
        gates=(("every injected fault class recovered", _every_class_recovered),),
    ),
    Scenario(
        "bench-load",
        "bench-load --seed 7 --clients 4 --requests 20 --json",
        gates=(
            ("schema", lambda r: r["schema"] == "bench-load/v1"),
            ("transcripts match", lambda r: r["transcripts_match"] is True),
            ("speedup >= 2x", lambda r: r["speedup"] >= 2.0),
            ("both modes report percentiles and throughput", lambda r: all(
                {"p50", "p95", "p99"} <= r[mode]["latency_s"].keys()
                and r[mode]["throughput_ops_per_s"] > 0
                for mode in ("serial", "pipelined")
            )),
        ),
    ),
    Scenario(
        "bench-load-snapshot",
        "bench-load --seed 7 --clients 8 --json",
        snapshot="BENCH_load.json",
    ),
    Scenario(
        "bench-overload",
        "bench-overload --seed 7 --json",
        gates=(
            ("schema", lambda r: r["schema"] == "bench-overload/v1"),
            ("invariants hold", lambda r: r["invariants"]["ok"]),
            ("last arm is 10x", lambda r: r["arms"][-1]["multiplier"] == 10),
            ("flow control wins at 10x", lambda r: (
                r["arms"][-1]["with_flow"]["goodput_rps"]
                > r["arms"][-1]["without_flow"]["goodput_rps"]
            )),
            ("monitor class never shed at 10x", lambda r: (
                r["arms"][-1]["with_flow"]["by_class"]["shed"][0] == 0
            )),
        ),
        snapshot="BENCH_overload.json",
    ),
    Scenario(
        "bench-churn",
        "bench-churn --seed 7 --json",
        gates=(
            ("schema", lambda r: r["schema"] == "bench-churn/v1"),
            ("transcripts match", lambda r: r["transcripts_match"] is True),
            ("oracle agrees", lambda r: r["oracle_agrees"] is True),
            ("authorize-after-revoke speedup >= 3x", lambda r: (
                r["speedup"]["authorize_after_revoke"] >= 3.0
            )),
            ("incremental arm does less work", lambda r: (
                r["arms"]["incremental"]["work_units"]
                < r["arms"]["full"]["work_units"]
            )),
        ),
        snapshot="BENCH_churn.json",
    ),
    Scenario(
        "bench-recovery",
        "bench-recovery --seed 7 --json",
        gates=(
            ("schema", lambda r: r["schema"] == "bench-recovery/v1"),
            ("every gate holds", lambda r: (
                r["ok"] and r["verdicts_match"] and r["oracle_agrees"]
                and r["digests_match"]
            )),
            ("four restarts", lambda r: r["recovery"]["restarts"] == 4),
            ("catch-up pulled updates", lambda r: (
                r["recovery"]["catchup_updates"] > 0
            )),
            ("a WAL tail was torn", lambda r: r["recovery"]["torn_bytes"] > 0),
        ),
        snapshot="BENCH_recovery.json",
    ),
    Scenario(
        "bench-recovery-skip-catchup",
        "bench-recovery --seed 7 --mutate skip-catchup",
        expect_fail=True,
    ),
    Scenario(
        "simtest",
        "simtest --seed 7 --steps 500 --json",
        gates=(("incremental arm", lambda r: r["engine"] == "incr"),
               _NO_DIVERGENCE),
    ),
    Scenario(
        "simtest-full-search",
        "simtest --seed 7 --steps 500 --engine full --json",
        gates=(("full-search arm", lambda r: r["engine"] == "full"),
               _NO_DIVERGENCE),
    ),
    Scenario("simtest-chaos", "simtest --seed 3 --steps 300 --chaos --json"),
    Scenario(
        "simtest-crash-restart",
        "simtest --seed 1 --steps 200 --chaos --json",
        gates=(_NO_DIVERGENCE,),
    ),
    Scenario(
        "simtest-skip-catchup",
        "simtest --seed 1 --steps 200 --chaos --mutate skip-catchup"
        " --out crash-repro.json",
        expect_fail=True,
    ),
    Scenario(
        "simtest-ignore-revoke",
        "simtest --seed 7 --steps 300 --mutate ignore-revoke --out repro.json",
        expect_fail=True,
        artefacts=(
            ("repro.json", (
                ("schema", lambda t: t["schema"] == "simtest/v1"),
                ("shrunk to <= 10 ops", lambda t: len(t["ops"]) <= 10),
            )),
            ("repro-flight.json", (
                ("schema", lambda f: f["schema"] == "flightrec/v1"),
                ("reason", lambda f: f["reason"] == "simtest.divergence"),
                ("carries the check.op event tail", lambda f: any(
                    e["kind"] == "check.op" for e in f["events"]
                )),
            )),
        ),
    ),
    Scenario(
        "trace",
        "trace --seed 7 --chaos",
        gates=(
            ("schema", lambda t: t["otherData"]["schema"] == "repro-trace/v1"),
            ("client -> attempt -> transport -> server -> proof search"
             " stitched under one trace id", _stitched),
        ),
    ),
)


def scenario(name: str) -> Scenario:
    """The row called ``name`` (``ValueError`` if none: an argparse type)."""
    for row in SCENARIOS:
        if row.name == name:
            return row
    raise ValueError(name)


def _invoke(argv: str, cwd: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(_SRC), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv.split()],
        cwd=cwd, env=env, capture_output=True, check=False,
    )


def _failed_gate(gates: Iterable[Gate], raw: bytes) -> str | None:
    """The first gate ``raw`` (JSON bytes) does not satisfy, if any."""
    try:
        document = json.loads(raw)
    except ValueError:
        return "not JSON"
    for label, holds in gates:
        try:
            if holds(document):
                continue
        except (LookupError, TypeError):
            pass
        return f"gate failed: {label}"
    return None


def check(row: Scenario) -> str | None:
    """Run one row; the first check it fails, or ``None`` when all hold."""
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as cwd:
        first = _invoke(row.argv, cwd)
        if row.expect_fail:
            if first.returncode != 1:
                return f"mutation drill exited {first.returncode}, must exit 1"
        elif first.returncode != 0:
            said = (first.stderr or first.stdout).decode(errors="replace")
            return f"exited {first.returncode}: {said.strip()[-300:]}"
        elif _invoke(row.argv, cwd).stdout != first.stdout:
            return "two fresh processes printed different bytes"
        if row.snapshot is not None:
            if (_ROOT / row.snapshot).read_bytes() != first.stdout:
                return f"{row.snapshot} is stale: re-baseline it in this change"
        if row.gates:
            failure = _failed_gate(row.gates, first.stdout)
            if failure is not None:
                return failure
        for filename, gates in row.artefacts:
            try:
                raw = (Path(cwd) / filename).read_bytes()
            except FileNotFoundError:
                return f"{filename} was not written"
            failure = _failed_gate(gates, raw)
            if failure is not None:
                return f"{filename}: {failure}"
        return None


def verify(rows: Iterable[Scenario], *, listing: bool) -> dict[str, Any]:
    """Check ``rows`` (or, with ``listing``, only enumerate them)."""
    return {
        "ran": not listing,
        "rows": [
            {
                "name": row.name,
                "argv": row.argv,
                "failure": None if listing else check(row),
            }
            for row in rows
        ],
    }


def passed(report: dict[str, Any]) -> bool:
    return all(row["failure"] is None for row in report["rows"])


def summarize(report: dict[str, Any], elapsed_s: float) -> str:
    rows = report["rows"]
    if not report["ran"]:
        return "\n".join(
            f"{row['name']}: python -m repro {row['argv']}" for row in rows
        )
    lines = [
        f"[PASS] {row['name']}" if row["failure"] is None
        else f"[FAIL] {row['name']}: {row['failure']}"
        for row in rows
    ]
    failed = sum(row["failure"] is not None for row in rows)
    lines.append(
        f"verify: {len(rows)} scenarios, {failed} failed, wall {elapsed_s:.0f}s"
    )
    return "\n".join(lines)
