"""repro.flow — deterministic overload protection for the serving path.

Server-side admission control and priority load shedding, over virtual
time so every decision replays byte-identically:

* :class:`TokenBucket` — per-principal/per-domain rate limiting with
  lazy deterministic refill.
* :class:`WeightedFairQueue` — priority classes with weighted service
  shares (revocation/monitor > authorization checks > view reads >
  bulk puts) that never starve the lowest class.
* :class:`FlowController` — the admission pipeline (bucket → WFQ →
  service slots) that :class:`~repro.switchboard.rpc.PlainRpcEndpoint`
  consults when built with a :class:`FlowConfig`.

A refused call is answered with a shed frame carrying a retry-after
hint; the calling endpoint completes the call with
:class:`~repro.errors.RpcShedError` and leaves the retry to its caller.
There is no client-side overload control.

Everything defaults **off**: an endpoint without a :class:`FlowConfig`
is byte-for-byte the pre-flow serving path, so the chaos, load, simtest,
and trace harness reports are untouched.  ``python -m repro
bench-overload`` drives the whole stack under 1x/3x/10x offered load.
"""

from .bucket import TokenBucket
from .config import (
    DEFAULT_WEIGHTS,
    PRIO_AUTH,
    PRIO_BULK,
    PRIO_MONITOR,
    PRIO_READ,
    FlowConfig,
    classify_priority,
)
from .controller import FlowController, Shed
from .wfq import WeightedFairQueue

__all__ = [
    "TokenBucket",
    "WeightedFairQueue",
    "FlowController",
    "Shed",
    "FlowConfig",
    "classify_priority",
    "DEFAULT_WEIGHTS",
    "PRIO_MONITOR",
    "PRIO_AUTH",
    "PRIO_READ",
    "PRIO_BULK",
]
