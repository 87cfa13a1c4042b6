"""Reusable retry policies: exponential backoff, seeded jitter, deadlines.

Every recovery loop in the repro — RPC retransmission, Switchboard channel
re-establishment, chaos-harness probes — draws its pacing from a
:class:`RetryPolicy` instead of a hand-rolled fixed interval, so retry
behaviour is tunable in one place and, critically, *deterministic*: jitter
comes from a seeded RNG, never the wall clock, which is what lets a chaos
run replay byte-for-byte.

A policy is an immutable description; :meth:`RetryPolicy.schedule` mints a
fresh :class:`RetrySchedule` holding the per-use mutable state (attempt
counter, jitter RNG, elapsed budget).  Two schedules minted from the same
policy produce identical delay sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How to pace repeated attempts at a failing operation.

    ``base_delay`` is the wait before the second attempt; each further
    wait multiplies by ``multiplier`` and clamps to ``max_delay``.
    ``jitter`` spreads each wait uniformly over ``[delay*(1-j), delay*(1+j)]``
    using a ``seed``-derived RNG.  ``deadline`` bounds the *sum* of waits:
    a delay that would overshoot it is clamped to the remaining budget
    (never skipped outright), and once the budget is spent the schedule
    gives up.
    """

    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 5.0
    max_attempts: int = 4
    jitter: float = 0.0
    deadline: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_delay <= 0:
            raise ValueError("base_delay must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be within [0, 1)")

    @classmethod
    def fixed(cls, interval: float, retries: int) -> "RetryPolicy":
        """The constant-interval policy: ``retries`` re-sends, ``interval`` apart."""
        return cls(
            base_delay=interval,
            multiplier=1.0,
            max_delay=interval,
            max_attempts=retries + 1,
        )

    @classmethod
    def exponential(
        cls,
        *,
        base_delay: float = 0.1,
        max_attempts: int = 6,
        max_delay: float = 5.0,
        jitter: float = 0.1,
        deadline: Optional[float] = None,
        seed: int = 0,
    ) -> "RetryPolicy":
        return cls(
            base_delay=base_delay,
            multiplier=2.0,
            max_delay=max_delay,
            max_attempts=max_attempts,
            jitter=jitter,
            deadline=deadline,
            seed=seed,
        )

    def schedule(self) -> "RetrySchedule":
        """A fresh, independent attempt sequence for one operation."""
        return RetrySchedule(self)

    def delays(self) -> list[float]:
        """The full delay sequence (for inspection and tests)."""
        sched = self.schedule()
        out: list[float] = []
        while True:
            delay = sched.next_delay()
            if delay is None:
                return out
            out.append(delay)


class RetrySchedule:
    """Mutable per-operation state walked by a retry loop."""

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self.attempts_made = 1  # the initial try counts as attempt #1
        self.waited = 0.0
        self._rng = random.Random(policy.seed)

    @property
    def exhausted(self) -> bool:
        return self.attempts_made >= self.policy.max_attempts

    def next_delay(self) -> Optional[float]:
        """Delay before the next attempt, or None when giving up.

        Advances the attempt counter; call exactly once per retry.
        """
        if self.exhausted:
            return None
        exponent = self.attempts_made - 1
        delay = min(
            self.policy.base_delay * (self.policy.multiplier**exponent),
            self.policy.max_delay,
        )
        if self.policy.jitter:
            spread = self.policy.jitter * delay
            delay += self._rng.uniform(-spread, spread)
        if self.policy.deadline is not None:
            # Clamp to the remaining budget instead of refusing outright:
            # a schedule with 1s left and a 4s backoff due should spend
            # that last second trying, not give up with budget unused.
            remaining = self.policy.deadline - self.waited
            if remaining <= 0:
                return None
            delay = min(delay, remaining)
        self.attempts_made += 1
        self.waited += delay
        return delay

    def __iter__(self) -> Iterator[float]:
        while True:
            delay = self.next_delay()
            if delay is None:
                return
            yield delay
