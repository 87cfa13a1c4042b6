"""Discrete-event scheduler with a virtual clock.

The simulated network, Switchboard heartbeats, and credential expiry all
run against this scheduler so every experiment is deterministic and
independent of wall-clock time.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from ..clock import Clock


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventScheduler(Clock):
    """A deterministic discrete-event loop.

    Events scheduled for the same time fire in scheduling order.  The
    scheduler *is* a :class:`~repro.clock.Clock`, so components that only
    need to read time can take it directly.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._queue: list[_Event] = []
        self._seq = itertools.count()
        self.events_processed = 0

    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, action: Callable[[], None]) -> Callable[[], None]:
        """Schedule ``action`` at ``now + delay``; returns a cancel function."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self._now + delay, action)

    def schedule_at(self, timestamp: float, action: Callable[[], None]) -> Callable[[], None]:
        """Schedule ``action`` at exactly ``timestamp``; returns a cancel function."""
        if timestamp < self._now:
            raise ValueError("cannot schedule into the past")
        event = _Event(time=timestamp, seq=next(self._seq), action=action)
        heapq.heappush(self._queue, event)

        def cancel() -> None:
            event.cancelled = True

        return cancel

    def schedule_every(
        self, interval: float, action: Callable[[], None]
    ) -> Callable[[], None]:
        """Schedule a repeating action, first firing one ``interval`` from
        now; returns a cancel function."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        cancelled = False
        inner_cancel: Callable[[], None] = lambda: None

        def fire() -> None:
            nonlocal inner_cancel
            if cancelled:
                return
            action()
            if not cancelled:
                inner_cancel = self.schedule(interval, fire)

        inner_cancel = self.schedule(interval, fire)

        def cancel() -> None:
            nonlocal cancelled
            cancelled = True
            inner_cancel()

        return cancel

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Run the next pending event; returns False when the queue is dry."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self.events_processed += 1
            event.action()
            return True
        return False

    def run_until(self, timestamp: float) -> None:
        """Run all events up to and including ``timestamp``, then set the
        clock to exactly ``timestamp``."""
        if timestamp < self._now:
            raise ValueError("time cannot go backwards")
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > timestamp:
                break
            self.step()
        self._now = timestamp

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the queue; returns the number of events processed."""
        count = 0
        while self.step():
            count += 1
            if count >= max_events:
                raise RuntimeError(
                    f"event loop did not quiesce within {max_events} events"
                )
        return count

    @property
    def pending(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)
