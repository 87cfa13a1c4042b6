"""Delta-debugging trace shrinker.

Given a trace the checker flagged as divergent, reduce it to a (local)
minimum that *still* diverges: classic ddmin over the operation list —
try removing complement chunks at doubling granularity — followed by a
one-at-a-time sweep to catch stragglers.  The fault schedule is held
fixed; only operations are deleted, never reordered, so causality within
the surviving subsequence is preserved.

Everything here is deterministic: replays go through the same
:class:`~repro.check.executor.SimTester` (same key store, same seeds),
and candidate subsets are memoized on their serialized op list so the
sweep never re-runs a probe ddmin already answered.

Shrinking is what turns "seed 23417 diverges after 412 operations" into
a three-line repro a human can read: delegate, revoke, authorize.

:func:`simtest` is the ``python -m repro simtest`` workhorse: check one
trace and, on divergence, shrink it and write the repro files.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .. import obs
from ..obs import names as metric_names
from .executor import SimReport, SimTester
from .gen import generate_trace
from .trace import Op, Trace


@dataclass(slots=True)
class ShrinkResult:
    """The minimized trace plus the evidence and the cost of getting it."""

    trace: Trace
    report: SimReport
    original_ops: int
    probes: int

    @property
    def removed(self) -> int:
        return self.original_ops - len(self.trace.ops)

    def summary(self) -> str:
        lines = [
            f"shrink: {self.original_ops} -> {len(self.trace.ops)} ops "
            f"({self.probes} probes)"
        ]
        for index, op in enumerate(self.trace.ops):
            lines.append(f"  {index}: {op.describe()}")
        d = self.report.divergence
        if d is not None:
            lines.append(f"  still diverges [{d.kind}]: "
                         f"expected {d.expected}, observed {d.observed}")
        return "\n".join(lines)


def _key(ops: list[Op]) -> str:
    return json.dumps([op.to_dict() for op in ops], sort_keys=True)


def shrink_trace(trace: Trace, tester: SimTester) -> ShrinkResult:
    """ddmin + final sweep; ``trace`` must diverge under ``tester``."""
    cache: dict[str, SimReport] = {}

    def probe(ops: list[Op]) -> SimReport:
        key = _key(ops)
        hit = cache.get(key)
        if hit is not None:
            return hit
        obs.counter(metric_names.CHECK_SHRINK_PROBES).inc()
        report = tester.run(trace.with_ops(ops))
        cache[key] = report
        return report

    def diverges(ops: list[Op]) -> SimReport | None:
        report = probe(ops)
        return report if report.divergence is not None else None

    best = list(trace.ops)
    best_report = diverges(best)
    if best_report is None:
        raise ValueError("shrink_trace needs a diverging trace to start from")

    # -- ddmin: remove complement chunks, doubling granularity on failure --
    chunks = 2
    while len(best) >= 2:
        size = max(1, len(best) // chunks)
        reduced = False
        start = 0
        while start < len(best):
            candidate = best[:start] + best[start + size :]
            if candidate:
                report = diverges(candidate)
                if report is not None:
                    best, best_report = candidate, report
                    chunks = max(chunks - 1, 2)
                    reduced = True
                    # Re-scan from the top at the same granularity.
                    start = 0
                    continue
            start += size
        if not reduced:
            if size <= 1:
                break
            chunks = min(len(best), chunks * 2)

    # -- final sweep: one op at a time, right to left ----------------------
    index = len(best) - 1
    while index >= 0 and len(best) > 1:
        candidate = best[:index] + best[index + 1 :]
        report = diverges(candidate)
        if report is not None:
            best, best_report = candidate, report
        index -= 1

    removed = len(trace.ops) - len(best)
    if removed:
        obs.counter(metric_names.CHECK_SHRINK_REMOVED).inc(removed)
    return ShrinkResult(
        trace=trace.with_ops(best),
        report=best_report,
        original_ops=len(trace.ops),
        probes=len(cache),
    )


@dataclass(slots=True)
class SimtestRun:
    """What ``repro simtest`` produced: the report and, when the oracles
    and the stack disagreed, the shrunk repro written beside it."""

    report: SimReport
    shrunk: ShrinkResult | None = None

    @property
    def ok(self) -> bool:
        return self.report.ok

    def to_dict(self) -> dict[str, Any]:
        return self.report.to_dict()

    def summary(self) -> str:
        if self.shrunk is None:
            return self.report.summary()
        return f"{self.report.summary()}\n{self.shrunk.summary()}"


def simtest(
    *,
    seed: int,
    steps: int,
    chaos: bool,
    engine: str,
    mutation: str | None,
    replay: str | None,
    out_path: str,
) -> SimtestRun:
    """Generate (or ``replay``) a trace and check it; on divergence shrink
    it, write the minimal repro to ``out_path`` and the flight-recorder
    dump frozen at the diverging op to ``<out_path stem>-flight.json``.
    """
    if replay is not None:
        trace = Trace.from_json(Path(replay).read_text(encoding="utf-8"))
    else:
        trace = generate_trace(seed=seed, steps=steps, chaos=chaos)
    tester = SimTester(mutation=mutation, engine=engine)
    report = tester.run(trace)
    if report.ok:
        return SimtestRun(report)
    shrunk = shrink_trace(trace, tester)
    Path(out_path).write_text(shrunk.trace.to_json() + "\n", encoding="utf-8")
    print(f"repro simtest: minimal repro written to {out_path}", file=sys.stderr)
    if report.flight is not None:
        flight_path = f"{out_path.removesuffix('.json')}-flight.json"
        Path(flight_path).write_text(
            json.dumps(report.flight, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(
            f"repro simtest: flight-recorder dump written to {flight_path}",
            file=sys.stderr,
        )
    return SimtestRun(report, shrunk)
