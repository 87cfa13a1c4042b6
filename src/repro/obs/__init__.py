"""repro.obs — process-local observability: metrics and trace spans.

Usage from instrumented code::

    from .. import obs
    from ..obs import names

    obs.counter(names.PROOF_SEARCHES).inc()
    obs.histogram(names.PROOF_EDGES_VISITED).observe(edges)
    with obs.span("psf.deploy", plan=len(plan.components)):
        ...

The module holds one active :class:`MetricsRegistry`, one
:class:`Tracer`, and one :class:`EventLog` per process.  :func:`disable`
swaps all three for shared null twins, making every instrumentation site
a single no-op method call — the zero-cost mode benchmarks run under
(also reachable via the ``REPRO_OBS=0`` environment variable).
:func:`scoped` installs fresh state for the duration of a ``with`` block
so tests and differential experiments read counters in isolation.

Distributed tracing adds a second, independent gate: the ``dist`` flag
(:func:`dist_enabled`, set per :func:`scoped` block).  It controls
whether RPC layers *mint and propagate* trace context inside wire frames
— which changes frame bytes, hence virtual transfer timings — so it
defaults off and is switched on only by harnesses that want stitched
cross-node traces (``python -m repro trace``) and by tests.  Local spans,
events, and the flight recorder work regardless of ``dist``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

from ..clock import Clock
from . import names
from .events import NULL_EVENT_LOG, Event, EventLog, NullEventLog
from .metrics import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from .trace import NULL_SPAN, NULL_TRACER, NullTracer, PerfClock, Span, Tracer
from . import flight as _flight

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "Span", "Tracer", "NullTracer", "PerfClock", "NULL_SPAN",
    "Event", "EventLog", "NullEventLog",
    "COUNT_BUCKETS", "DEFAULT_BUCKETS",
    "counter", "gauge", "histogram", "span", "activate", "event",
    "get_registry", "get_tracer", "get_event_log", "set_tracer_clock",
    "enable", "disable", "is_enabled", "dist_enabled", "reset", "scoped",
    "flight_snapshot",
    "snapshot", "format_snapshot", "names",
]

_CATALOGUE_BUCKETS: dict[str, tuple[float, ...]] = {
    spec.name: spec.buckets
    for spec in names.CATALOGUE
    if spec.buckets is not None
}


class _ObsState:
    """The process-wide active registry + tracer + event-log triple."""

    __slots__ = ("registry", "tracer", "events", "enabled", "dist")

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.dist = False
        self.registry: MetricsRegistry = (
            MetricsRegistry() if enabled else NULL_REGISTRY
        )
        self.tracer: Tracer = Tracer() if enabled else NULL_TRACER
        self.events: EventLog = EventLog() if enabled else NULL_EVENT_LOG


_state = _ObsState(os.environ.get("REPRO_OBS", "1").lower() not in ("0", "false", "off"))


# -- instrument access (the calls instrumented modules make) ----------------

def counter(name: str) -> Counter:
    return _state.registry.counter(name)


def gauge(name: str) -> Gauge:
    return _state.registry.gauge(name)


def histogram(name: str, buckets: Sequence[float] | None = None) -> Histogram:
    """A histogram, defaulting to the catalogue's bucket layout for known
    names (so count-shaped metrics get count-shaped buckets)."""
    if buckets is None:
        buckets = _CATALOGUE_BUCKETS.get(name)
    return _state.registry.histogram(name, buckets)


def span(name: str, **attributes: Any) -> Span:
    return _state.tracer.span(name, **attributes)


def activate(span: Span):
    """``with obs.activate(span):`` nests the block's spans under ``span``
    (see :meth:`Tracer.activate`).  :data:`NULL_SPAN` is handed straight
    back as its own no-op context manager, so an untraced call site pays
    one function call and allocates nothing."""
    return span if span is NULL_SPAN else _state.tracer.activate(span)


def event(kind: str, /, **fields: Any) -> Event:
    """Emit a structured event record (a no-op when observation is off)."""
    return _state.events.emit(kind, **fields)


# -- mode control -----------------------------------------------------------

def is_enabled() -> bool:
    return _state.enabled


def dist_enabled() -> bool:
    """True when RPC layers should mint/propagate wire trace context."""
    return _state.enabled and _state.dist


def enable() -> None:
    """Turn observation on (fresh state if it was off)."""
    if not _state.enabled:
        _state.enabled = True
        _state.registry = MetricsRegistry()
        _state.tracer = Tracer()
        _state.events = EventLog()


def disable() -> None:
    """Swap in the null twins; every instrumentation site becomes a no-op."""
    _state.enabled = False
    _state.dist = False
    _state.registry = NULL_REGISTRY
    _state.tracer = NULL_TRACER
    _state.events = NULL_EVENT_LOG


def get_registry() -> MetricsRegistry:
    return _state.registry


def get_tracer() -> Tracer:
    return _state.tracer


def get_event_log() -> EventLog:
    return _state.events


def set_tracer_clock(clock: Clock) -> None:
    """Point the active tracer (and event log) at a different time source
    (e.g. the simulation's event scheduler, so spans and events carry
    virtual time)."""
    _state.tracer.clock = clock
    _state.events.clock = clock


def reset() -> None:
    """Clear all metrics, spans, and events without changing the mode."""
    _state.registry.reset()
    _state.tracer.reset()
    _state.events.reset()


@contextmanager
def scoped(
    *, enabled: bool = True, clock: Clock | None = None, dist: bool | None = None
) -> Iterator[MetricsRegistry]:
    """Install a fresh registry/tracer/event log for the block, then restore.

    ``dist=True`` additionally turns on wire trace-context propagation for
    the block; ``None`` inherits the surrounding setting.  Yields the
    scoped registry so callers can read counters directly::

        with obs.scoped() as reg:
            engine.find_proof(...)
        assert reg.counter_value(names.PROOF_FOUND) == 1
    """
    saved = (_state.enabled, _state.dist, _state.registry, _state.tracer, _state.events)
    _state.enabled = enabled
    if dist is not None:
        _state.dist = dist and enabled
    _state.registry = MetricsRegistry() if enabled else NULL_REGISTRY
    _state.tracer = Tracer(clock) if enabled else NULL_TRACER
    _state.events = EventLog(clock) if enabled else NULL_EVENT_LOG
    try:
        yield _state.registry
    finally:
        (_state.enabled, _state.dist, _state.registry,
         _state.tracer, _state.events) = saved


# -- flight recorder --------------------------------------------------------

def flight_snapshot(reason: str, **kwargs: Any) -> dict:
    """Freeze the last-N events + live/recent spans as replayable JSON
    (see :mod:`repro.obs.flight`)."""
    return _flight.snapshot(_state.tracer, _state.events, reason=reason, **kwargs)


# -- reporting --------------------------------------------------------------

def snapshot() -> dict:
    """JSON-compatible dump of the active registry."""
    return _state.registry.snapshot()


def format_snapshot(snap: dict | None = None) -> str:
    """Human-readable snapshot (the ``repro stats`` text format)."""
    snap = snapshot() if snap is None else snap
    lines: list[str] = []
    counters = snap.get("counters", {})
    gauges = snap.get("gauges", {})
    histograms = snap.get("histograms", {})
    if counters:
        lines.append("== counters ==")
        width = max(len(n) for n in counters)
        for name, value in counters.items():
            lines.append(f"  {name.ljust(width)}  {value}")
    if gauges:
        lines.append("== gauges ==")
        width = max(len(n) for n in gauges)
        for name, value in gauges.items():
            lines.append(f"  {name.ljust(width)}  {_fmt(value)}")
    if histograms:
        lines.append("== histograms ==")
        width = max(len(n) for n in histograms)
        for name, summary in histograms.items():
            if summary.get("count", 0) == 0:
                lines.append(f"  {name.ljust(width)}  count=0")
                continue
            lines.append(
                f"  {name.ljust(width)}  count={summary['count']}"
                f" sum={_fmt(summary['sum'])}"
                f" min={_fmt(summary['min'])} max={_fmt(summary['max'])}"
                f" p50={_fmt(summary['p50'])} p95={_fmt(summary['p95'])}"
                f" p99={_fmt(summary['p99'])}"
            )
    if not lines:
        lines.append("(no metrics recorded; observability may be disabled)")
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"
