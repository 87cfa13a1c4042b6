"""AIMD adaptive concurrency limiting driven by observed latency.

The limiter owns one integer: how many requests may be in flight at
once.  Every completed request reports its virtual-time latency through
:meth:`AimdLimiter.observe`; latencies above ``target_latency_s`` (or
outright failures — sheds, timeouts, dead links) trigger a
multiplicative decrease, while healthy completions accumulate additive
credit of ``1 / limit`` each, raising the window by one per full
window's worth of successes — TCP's AIMD shape, over virtual time.

Backoffs are rate-limited by ``cooldown_s`` of virtual time so one burst
of queued failures (all symptoms of the same congestion instant)
collapses the window once, not once per failure.

:class:`~repro.switchboard.rpc.RpcPipeline` accepts a limiter and
clamps its issue window to ``limiter.limit`` (client-side backpressure).
"""

from __future__ import annotations

from .. import obs
from ..clock import Clock
from ..errors import FaultError
from ..obs import names as metric_names


class AimdLimiter:
    """Additive-increase / multiplicative-decrease concurrency window."""

    def __init__(
        self,
        clock: Clock,
        *,
        initial: int = 8,
        min_limit: int = 1,
        max_limit: int = 64,
        target_latency_s: float = 0.1,
        backoff: float = 0.5,
        cooldown_s: float = 0.05,
    ) -> None:
        if not 1 <= min_limit <= initial <= max_limit:
            raise FaultError(
                f"need 1 <= min_limit <= initial <= max_limit, got "
                f"{min_limit}/{initial}/{max_limit}"
            )
        if not 0.0 < backoff < 1.0:
            raise FaultError(f"backoff must be in (0, 1), got {backoff}")
        if target_latency_s <= 0:
            raise FaultError("target_latency_s must be positive")
        self._clock = clock
        self._limit = initial
        self.min_limit = min_limit
        self.max_limit = max_limit
        self.target_latency_s = target_latency_s
        self.backoff = backoff
        self.cooldown_s = cooldown_s
        self._credit = 0.0
        self._last_backoff = float("-inf")
        self.backoffs = 0
        self.raises = 0

    @property
    def limit(self) -> int:
        """Current concurrency allowance (always >= min_limit)."""
        return self._limit

    def observe(self, latency_s: float, *, ok: bool = True) -> None:
        """Record one completed attempt and adapt the window."""
        if not ok or latency_s > self.target_latency_s:
            now = self._clock.now()
            if now - self._last_backoff >= self.cooldown_s:
                self._last_backoff = now
                shrunk = max(self.min_limit, int(self._limit * self.backoff))
                if shrunk < self._limit:
                    self._limit = shrunk
                    self.backoffs += 1
                    obs.counter(metric_names.FLOW_LIMITER_BACKOFFS).inc()
            self._credit = 0.0
        else:
            self._credit += 1.0 / self._limit
            if self._credit >= 1.0 and self._limit < self.max_limit:
                self._limit += 1
                self._credit = 0.0
                self.raises += 1
                obs.counter(metric_names.FLOW_LIMITER_RAISES).inc()
        obs.gauge(metric_names.FLOW_LIMITER_LIMIT).set(self._limit)
