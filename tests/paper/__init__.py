"""The paper's experiments as shape assertions.

One module per group of EXPERIMENTS.md sections: Tables 1-5, the planner
experiments (E-PLAN, E-ADAPT, planner quality), dRBAC (E-PROOF, E-STORE,
policy translation), views (E-SSO, E-VIG), Switchboard (E-SWB, streams)
and the E-CHAOS intensity sweep.  Every assertion is a count, a
structure or a virtual-clock figure, never wall-clock time; wall-clock
numbers come from ``bench/`` (``python3 bench/run.py``).  Each experiment
prints its paper-shaped table: ``pytest tests/paper -s``.
"""

from __future__ import annotations


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Uniform fixed-width table printer for experiment outputs."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
