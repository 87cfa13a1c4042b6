"""Trace spans: nested, named timing scopes over any :class:`repro.clock.Clock`.

A :class:`Tracer` hands out :class:`Span` context managers; entering a
span pushes it on the tracer's stack so spans opened inside it become its
children (proof searches nested under a deployment, image pulls nested
under an RPC).  Durations come from the tracer's clock — wall time by
default, but passing the simulation's :class:`~repro.net.events.
EventScheduler` (or a :class:`~repro.clock.ManualClock`) makes spans
measure *virtual* time, which is what deterministic experiments want.

Beyond stack-scoped ``with`` spans, the tracer supports the distributed
tracing shapes :mod:`repro.obs.dist` needs:

* **Identifiers.**  Every entered span carries a ``trace_id`` / ``span_id``
  pair minted from per-tracer counters (deterministic under
  ``obs.scoped``), with ``parent_id`` linking children to parents — the
  W3C trace-context triple, kept as ints and hex-formatted only at
  export time.
* **Manual spans** (:meth:`Tracer.start` / :meth:`Span.finish`) for
  operations that outlive a call frame — an RPC future that completes
  events later — without touching the ambient stack.
* **Remote parents.**  ``tracer.start(name, remote=(trace_id, span_id))``
  continues a trace propagated across the simulated wire: the span is a
  local root (it lands in ``finished`` on its own) but records the remote
  parent so exports stitch client and server sides into one trace.
* **Activation** (:meth:`Tracer.activate`) temporarily pushes an
  already-started manual span onto the stack so synchronous work done on
  its behalf (a transport send, a server dispatch) nests under it.

The :data:`NULL_TRACER` twin turns every ``span()`` into a shared no-op
context manager so disabled runs pay one call per site.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Optional


from ..clock import Clock


class PerfClock:
    """Monotonic wall clock (the default tracer time source)."""

    def now(self) -> float:
        return time.perf_counter()


class Span:
    """One named timing scope, usable as a context manager."""

    __slots__ = (
        "name", "attributes", "start", "end",
        "parent", "children", "_tracer",
        "trace_id", "span_id", "parent_id",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self.name = name
        self.attributes = attributes
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.parent: Optional[Span] = None
        self.children: list[Span] = []
        self._tracer = tracer
        self.trace_id: int = 0
        self.span_id: int = 0
        self.parent_id: int = 0
        """Span id of the parent — local or *remote* (propagated across
        the wire); 0 means this span starts its trace."""

    @property
    def duration(self) -> float:
        """Elapsed clock time; measured up to *now* while still open."""
        end = self.end if self.end is not None else self._tracer.clock.now()
        return end - self.start

    @property
    def depth(self) -> int:
        depth, node = 0, self.parent
        while node is not None:
            depth, node = depth + 1, node.parent
        return depth

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes after the span is open."""
        self.attributes.update(attributes)
        return self

    def set_error(self, error: str) -> "Span":
        """Tag the span as failed with a typed error name."""
        self.attributes["error"] = error
        return self

    @property
    def ok(self) -> bool:
        return "error" not in self.attributes

    def finish(self) -> "Span":
        """End a manually started span (idempotent)."""
        if self.end is None:
            self._tracer._finish_manual(self)
        return self

    def context(self) -> tuple[int, int]:
        """The (trace_id, span_id) pair to propagate across the wire."""
        return (self.trace_id, self.span_id)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible subtree dump (flight recorder / exports)."""
        out: dict[str, Any] = {
            "name": self.name,
            "trace_id": format_trace_id(self.trace_id),
            "span_id": format_span_id(self.span_id),
            "start": round(self.start, 9),
        }
        if self.parent_id:
            out["parent_id"] = format_span_id(self.parent_id)
        if self.end is not None:
            out["end"] = round(self.end, 9)
        else:
            out["open"] = True
        if self.attributes:
            out["attributes"] = {k: self.attributes[k] for k in sorted(self.attributes)}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._exit(self)

    def __repr__(self) -> str:
        state = f"{self.duration:.6f}s" if self.end is not None else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


def format_trace_id(trace_id: int) -> str:
    """W3C-style 16-byte hex trace id."""
    return f"{trace_id:032x}"


def format_span_id(span_id: int) -> str:
    """W3C-style 8-byte hex span id."""
    return f"{span_id:016x}"


class Tracer:
    """Produces nested spans and retains the most recent finished ones.

    Retention is bounded (``max_spans``) so long-lived processes do not
    grow without limit; only *root* spans count against the bound, and a
    root carries its whole subtree.  Evicting a root is counted in
    ``dropped`` and the catalogued ``obs.trace.dropped`` metric so
    truncated exports are visible instead of silent.
    """

    def __init__(self, clock: Clock | None = None, *, max_spans: int = 4096) -> None:
        self.clock: Clock = clock if clock is not None else PerfClock()
        self.finished: deque[Span] = deque(maxlen=max_spans)
        self.dropped = 0
        """Root spans evicted from ``finished`` by the retention bound."""
        self._stack: list[Span] = []
        self._next_trace_id = 1
        self._next_span_id = 1

    def span(self, name: str, **attributes: Any) -> Span:
        """A new span; use ``with tracer.span("psf.deploy"):``."""
        return Span(self, name, attributes)

    def start(
        self,
        name: str,
        *,
        parent: Span | None = None,
        remote: tuple[int, int] | None = None,
        **attributes: Any,
    ) -> Span:
        """Start a manually managed span (ended with :meth:`Span.finish`).

        ``parent`` attaches the span under a local span (its subtree);
        ``remote`` continues a trace propagated from another node — the
        span becomes a local root carrying the remote ``parent_id``.
        With neither, the span roots a fresh trace.  The span is *not*
        pushed on the stack; use :meth:`activate` for that.  A child of
        the untraced :data:`NULL_SPAN` is untraced too.
        """
        if parent is NULL_SPAN:
            return parent
        span = Span(self, name, attributes)
        span.start = self.clock.now()
        self._assign_ids(span, parent=parent, remote=remote)
        if parent is not None:
            span.parent = parent
            parent.children.append(span)
        return span

    @contextmanager
    def activate(self, span: Span) -> Iterator[Span]:
        """Push an already-started span for the duration of the block so
        stack-scoped spans opened inside nest under it."""
        self._stack.append(span)
        try:
            yield span
        finally:
            while self._stack:
                if self._stack.pop() is span:
                    break

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def roots(self) -> list[Span]:
        """Finished top-level spans, oldest first."""
        return list(self.finished)

    def find(self, name: str) -> list[Span]:
        """Every retained span (at any depth) with the given name."""
        out: list[Span] = []

        def walk(span: Span) -> None:
            if span.name == name:
                out.append(span)
            for child in span.children:
                walk(child)

        for root in self.finished:
            walk(root)
        return out

    def reset(self) -> None:
        self.finished.clear()
        self._stack.clear()
        self.dropped = 0
        self._next_trace_id = 1
        self._next_span_id = 1

    # -- id minting ---------------------------------------------------------

    def _assign_ids(
        self,
        span: Span,
        *,
        parent: Span | None,
        remote: tuple[int, int] | None = None,
    ) -> None:
        span.span_id = self._next_span_id
        self._next_span_id += 1
        if parent is not None:
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        elif remote is not None:
            span.trace_id, span.parent_id = remote
        else:
            span.trace_id = self._next_trace_id
            self._next_trace_id += 1

    # -- span lifecycle (driven by Span.__enter__/__exit__) ---------------

    def _enter(self, span: Span) -> None:
        span.start = self.clock.now()
        parent = self._stack[-1] if self._stack else None
        span.parent = parent
        self._assign_ids(span, parent=parent)
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)

    def _exit(self, span: Span) -> None:
        span.end = self.clock.now()
        # Pop through abandoned children defensively: a span leaked by an
        # exception between enter and exit must not corrupt the stack.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if span.parent is None:
            self._record(span)

    def _finish_manual(self, span: Span) -> None:
        span.end = self.clock.now()
        if span.parent is None:
            self._record(span)

    def _record(self, span: Span) -> None:
        if (
            self.finished.maxlen is not None
            and len(self.finished) == self.finished.maxlen
        ):
            self.dropped += 1
            _count_dropped()
        self.finished.append(span)


def _count_dropped() -> None:
    # Function-level import: the obs package is importing this module at
    # load time, but is fully initialised by the first eviction.
    from . import counter
    from .names import TRACE_DROPPED

    counter(TRACE_DROPPED).inc()


class NullSpan:
    """Shared no-op span for disabled tracing."""

    __slots__ = ()
    name = "<null>"
    attributes: dict = {}
    start = 0.0
    end = 0.0
    duration = 0.0
    children: list = []
    parent = None
    trace_id = 0
    span_id = 0
    parent_id = 0
    ok = True

    def set(self, **attributes: Any) -> "NullSpan":
        return self

    def set_error(self, error: str) -> "NullSpan":
        return self

    def finish(self) -> "NullSpan":
        return self

    def context(self) -> tuple[int, int]:
        return (0, 0)

    def to_dict(self) -> dict[str, Any]:
        return {}

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class NullTracer(Tracer):
    """Disabled-mode tracer: every span is the shared :class:`NullSpan`."""

    def __init__(self) -> None:
        super().__init__(PerfClock(), max_spans=1)

    def span(self, name: str, **attributes: Any) -> Span:  # type: ignore[override]
        return NULL_SPAN  # type: ignore[return-value]

    def start(self, name: str, **kwargs: Any) -> Span:  # type: ignore[override]
        return NULL_SPAN  # type: ignore[return-value]


NULL_SPAN = NullSpan()
NULL_TRACER = NullTracer()
