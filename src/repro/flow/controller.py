"""Server-side admission control: bucket → fair queue → service slots.

The :class:`FlowController` sits in front of RPC dispatch
(:meth:`repro.switchboard.rpc.PlainRpcEndpoint._serve` hands it every
arriving call frame when the endpoint was built with a
:class:`~repro.flow.config.FlowConfig`).  Each submission is:

1. **classified** into a priority class (revocation/monitor traffic
   outranks authorization checks outranks view reads outranks bulk puts);
2. **rate-checked** against the caller's per-principal
   :class:`~repro.flow.bucket.TokenBucket` and the global backlog cap —
   refusals return a :class:`Shed` carrying an honest retry-after hint,
   and classes at or below ``EXEMPT_CLASS`` are never refused;
3. **queued** in a :class:`~repro.flow.wfq.WeightedFairQueue` so a flood
   of bulk writes cannot starve higher classes (nor vice versa — WFQ
   gives the lowest class its weighted share, not zero);
4. **served** by up to ``workers`` concurrent slots, each charging
   ``service_time_s`` of virtual time per request — the service model
   that makes overload *exist* in a discrete-event world where dispatch
   itself is instantaneous.

Every stage is instrumented: ``flow.*`` metrics, a ``flow.shed``
structured event per refusal, and — for a request submitted inside a
span — a ``flow.queue.wait`` span covering its time in queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .. import obs
from ..net.events import EventScheduler
from ..obs import names as metric_names
from .bucket import TokenBucket
from .config import DEFAULT_WEIGHTS, EXEMPT_CLASS, FlowConfig, classify_priority
from .wfq import WeightedFairQueue


@dataclass(frozen=True, slots=True)
class Shed:
    """An admission refusal: why, for whom, and when to retry."""

    retry_after: float
    reason: str  # "rate" | "backlog"
    cls: int


@dataclass(slots=True)
class _Item:
    execute: Callable[[], None]
    cls: int
    arrived: float
    span: obs.Span = field(repr=False)


class FlowController:
    """One endpoint's admission pipeline over a shared event scheduler."""

    def __init__(
        self, config: FlowConfig, scheduler: EventScheduler, *, name: str = ""
    ) -> None:
        self.config = config
        self.scheduler = scheduler
        self.name = name
        self.queue = WeightedFairQueue(DEFAULT_WEIGHTS)
        self.busy = 0
        self.admitted_by_class = [0] * len(DEFAULT_WEIGHTS)
        self.shed_by_class = [0] * len(DEFAULT_WEIGHTS)
        self.completed_by_class = [0] * len(DEFAULT_WEIGHTS)
        self._buckets: dict[str, TokenBucket] = {}

    @property
    def admitted(self) -> int:
        return sum(self.admitted_by_class)

    @property
    def sheds(self) -> int:
        return sum(self.shed_by_class)

    def bucket_for(self, principal: str) -> TokenBucket:
        bucket = self._buckets.get(principal)
        if bucket is None:
            bucket = TokenBucket(
                self.config.bucket_rate, self.config.bucket_burst, self.scheduler
            )
            self._buckets[principal] = bucket
        return bucket

    # -- admission -----------------------------------------------------------

    def submit(
        self,
        principal: str,
        target: str,
        method: str,
        execute: Callable[[], None],
    ) -> Shed | None:
        """Admit (returns ``None``) or refuse (returns a :class:`Shed`).

        An admitted request's ``execute`` runs later — after its queue
        wait and ``service_time_s`` — via the scheduler, so callers must
        not rely on synchronous dispatch when flow control is attached.
        """
        config = self.config
        now = self.scheduler.now()
        cls = classify_priority(target, method)
        if config.enabled and cls > EXEMPT_CLASS:
            bucket = self.bucket_for(principal)
            if not bucket.try_acquire(now):
                obs.counter(metric_names.FLOW_BUCKET_DENIED).inc()
                return self._shed(
                    cls, "rate", bucket.time_until(now), target, method, principal
                )
            if len(self.queue) >= config.max_backlog:
                return self._shed(
                    cls, "backlog", config.retry_after_s, target, method, principal
                )
        tracer = obs.get_tracer()
        span = tracer.start(
            "flow.queue.wait", parent=tracer.current,
            node=self.name, target=target, method=method, cls=cls,
        )
        self.admitted_by_class[cls] += 1
        obs.counter(metric_names.FLOW_ADMITTED).inc()
        obs.histogram(metric_names.FLOW_QUEUE_DEPTH).observe(len(self.queue))
        self.queue.push(cls, _Item(execute=execute, cls=cls, arrived=now, span=span))
        self._drain()
        return None

    def _shed(
        self,
        cls: int,
        reason: str,
        retry_after: float,
        target: str,
        method: str,
        principal: str,
    ) -> Shed:
        retry_after = max(retry_after, 0.0)
        self.shed_by_class[cls] += 1
        obs.counter(metric_names.FLOW_SHED).inc()
        obs.event(
            "flow.shed", node=self.name, principal=principal, target=target,
            method=method, cls=cls, reason=reason,
            retry_after=round(retry_after, 6),
        )
        return Shed(retry_after=retry_after, reason=reason, cls=cls)

    # -- service -------------------------------------------------------------

    def _drain(self) -> None:
        while len(self.queue) and self.busy < self.config.workers:
            cls, item = self.queue.pop()
            now = self.scheduler.now()
            obs.histogram(metric_names.FLOW_QUEUE_WAIT).observe(now - item.arrived)
            item.span.finish()
            self.busy += 1
            obs.gauge(metric_names.FLOW_SERVICE_BUSY).set(self.busy)
            if self.config.service_time_s > 0:
                self.scheduler.schedule(
                    self.config.service_time_s,
                    lambda item=item: self._finish(item),
                )
            else:
                self._finish(item)

    def _finish(self, item: _Item) -> None:
        try:
            item.execute()
        finally:
            self.busy -= 1
            self.completed_by_class[item.cls] += 1
            obs.gauge(metric_names.FLOW_SERVICE_BUSY).set(self.busy)
            self._drain()
