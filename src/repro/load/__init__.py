"""Deterministic load harness: seeded virtual-time throughput runs.

``python -m repro bench-load`` drives :func:`run_bench`; tests import
:class:`LoadGenerator` directly to assert the differential guarantee
(pipelined + batched runs produce byte-identical per-client results).
``python -m repro bench-overload`` drives :func:`run_bench_overload`:
the same service model under 1x/3x/10x offered load, with and without
the :mod:`repro.flow` overload-protection stack.
``python -m repro bench-churn`` drives :class:`ChurnBench`: one
seeded credential-churn schedule through the full-search and
incremental authorization engines, compared in deterministic work units.
``python -m repro bench-recovery`` drives :class:`RecoveryBench`:
one seeded schedule with embedded crash/restart cycles through a
crashing :class:`~repro.durable.node.DurableNode` arm and a
never-crashed control arm, oracle-checked after every recovery.
"""

from .churn import ChurnBench
from .generator import LoadGenerator, LoadRun, run_bench
from .overload import OverloadBench, run_bench_overload
from .recovery import RecoveryBench

__all__ = [
    "ChurnBench",
    "LoadGenerator",
    "LoadRun",
    "run_bench",
    "OverloadBench",
    "run_bench_overload",
    "RecoveryBench",
]
