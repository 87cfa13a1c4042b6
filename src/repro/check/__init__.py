"""repro.check — deterministic simulation testing with model-based oracles.

FoundationDB-style differential testing for the reproduction's whole
stack: a seeded generator produces an interleaved workload of dRBAC,
view-ACL, RPC, and clock operations (:mod:`repro.check.gen`); an
executor replays it against the real engines over the simulated network
and cross-checks every observable result against pure-Python reference
models small enough to audit by eye (:mod:`repro.check.oracles`,
:mod:`repro.check.executor`); any divergence is dumped as a replayable
JSON trace and delta-debugged down to a minimal repro
(:mod:`repro.check.shrink`).

CLI: ``python -m repro simtest --seed N [--steps S] [--chaos] [--json]``
and ``--replay FILE``.
"""

from __future__ import annotations

from .executor import Divergence, SimReport, SimTester, run_simtest
from .gen import generate_trace
from .oracles import DrbacOracle, RpcOracle, ViewAclOracle
from .shrink import ShrinkResult, SimtestRun, shrink_trace, simtest
from .trace import Op, Trace

__all__ = [
    "Op",
    "Trace",
    "generate_trace",
    "DrbacOracle",
    "ViewAclOracle",
    "RpcOracle",
    "Divergence",
    "SimReport",
    "SimTester",
    "run_simtest",
    "ShrinkResult",
    "shrink_trace",
    "SimtestRun",
    "simtest",
]
