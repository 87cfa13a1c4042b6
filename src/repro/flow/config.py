"""Flow-control configuration and the default priority classifier.

Everything in :mod:`repro.flow` is opt-in: an endpoint without a
:class:`FlowConfig` behaves byte-for-byte like it did before the
subsystem existed, which is what keeps every seeded harness report
(`BENCH_load.json`, chaos, simtest, trace) stable.  All knobs live here
so a harness can describe its overload posture in one literal.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FaultError

#: Priority classes, highest first.  Revocation/monitor traffic outranks
#: everything: a drowning authorizer that sheds the very messages that
#: would revoke bad credentials has inverted its security posture.
PRIO_MONITOR = 0
PRIO_AUTH = 1
PRIO_READ = 2
PRIO_BULK = 3

#: WFQ weights for the four classes above.
DEFAULT_WEIGHTS = (8.0, 4.0, 2.0, 1.0)

#: Classes <= this are never shed (and bypass the token bucket).
EXEMPT_CLASS = PRIO_MONITOR

_MONITOR_TARGETS = frozenset({"Monitor", "RevocationMonitor", "TrustMonitor"})
_MONITOR_PREFIXES = ("monitor", "revoke", "revalidate", "heartbeat", "invalidate")
_AUTH_PREFIXES = ("check", "authorize", "is_authorized", "resolve")
_READ_PREFIXES = ("get", "fetch", "read", "peek", "list", "query")


def classify_priority(target: str, method: str) -> int:
    """Map a dispatch (target, method) onto a priority class.

    The heuristic mirrors the serving path's traffic mix: revocation and
    monitor control traffic first, authorization checks next, view/state
    reads after that, and bulk mutations last.
    """
    name = method.lower()
    if target in _MONITOR_TARGETS or name.startswith(_MONITOR_PREFIXES):
        return PRIO_MONITOR
    if name.startswith(_AUTH_PREFIXES):
        return PRIO_AUTH
    if name.startswith(_READ_PREFIXES):
        return PRIO_READ
    return PRIO_BULK


@dataclass(frozen=True)
class FlowConfig:
    """Knobs for one endpoint's server-side admission control.

    ``service_time_s`` models the virtual-time cost of serving one
    admitted request (the resource the concurrency limit guards); it
    applies whether or not admission control is ``enabled``, so an
    overload experiment can compare "same service cost, no protection"
    against "same service cost, protected" — exactly the two arms
    ``python -m repro bench-overload`` runs.
    """

    # admission control (shedding) on/off; service model applies regardless
    enabled: bool = True

    # -- service model ------------------------------------------------------
    service_time_s: float = 0.0
    """Virtual seconds one worker spends per admitted request (0 =
    dispatch immediately, the legacy behaviour)."""
    workers: int = 4
    """Concurrent service slots."""

    # -- per-principal token bucket -----------------------------------------
    bucket_rate: float = 100.0
    bucket_burst: float = 20.0

    # -- weighted fair queue -------------------------------------------------
    max_backlog: int = 64
    """Total queued requests before arrivals above :data:`EXEMPT_CLASS`
    are shed (class 0 is admitted regardless)."""

    # -- shedding -------------------------------------------------------------
    retry_after_s: float = 0.05
    """Base retry-after hint for backlog sheds (bucket sheds hint the
    exact refill time instead)."""

    def __post_init__(self) -> None:
        if self.service_time_s < 0:
            raise FaultError("service_time_s must be >= 0")
        if self.workers < 1:
            raise FaultError("workers must be >= 1")
        if self.max_backlog < 1:
            raise FaultError("max_backlog must be >= 1")
        if self.retry_after_s < 0:
            raise FaultError("retry_after_s must be >= 0")
