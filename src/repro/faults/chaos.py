"""Seeded chaos schedules: same seed, same storm, every time.

:func:`generate_chaos_plan` draws every choice — which link dies, when,
for how long, which credentials get revoked — from one
``random.Random(seed)``, so a chaos run is a pure function of its seed
and the topology inputs.  The generator guarantees at least one event of
every requested fault class per run, which is what lets the harness
assert "one verified recovery per class" instead of hoping the dice
cooperated.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..errors import FaultError
from .plan import FaultEvent, FaultKind, FaultPlan

MAX_TORN_TAIL = 24
"""Most bytes a crash-restart rips off the WAL tail."""


def generate_chaos_plan(
    *,
    seed: int,
    duration: float,
    links: Sequence[tuple[str, str]],
    domains: Sequence[str] = (),
    crash_nodes: Sequence[str] = (),
    restart_nodes: Sequence[str] = (),
    credential_ids: Sequence[str] = (),
    intensity: float = 1.0,
) -> FaultPlan:
    """Build a deterministic fault schedule for one chaos run.

    ``links`` are the (a, b) pairs eligible for link-level faults —
    typically the WAN links, where the paper's environment is hostile.
    ``domains``/``crash_nodes``/``restart_nodes``/``credential_ids`` gate
    the partition, crash, crash-restart, and revocation classes: pass an
    empty sequence to skip a class entirely (e.g. no ``crash_nodes`` in a
    world with nothing to re-plan).  ``restart_nodes`` must be hosts
    registered as :class:`~repro.durable.node.DurableNode`\\ s with the
    injector; each crash-restart carries a seeded ``torn_tail`` in
    ``[0, MAX_TORN_TAIL]`` bytes ripped off the WAL before recovery.
    The restart draws happen *after* every legacy class's draws for the
    round, and only when ``restart_nodes`` is non-empty — so plans
    generated by pre-durability callers are byte-identical to before.
    Faults are injected inside the first 60% of ``duration`` and heal
    within it, leaving the tail for recovery verification.
    """
    if duration <= 0:
        raise FaultError(f"chaos duration must be positive, got {duration}")
    if not links:
        raise FaultError("chaos generation needs at least one eligible link")
    rng = random.Random(seed)
    plan = FaultPlan()
    rounds = max(1, int(duration * intensity / 10.0))

    def window() -> tuple[float, float]:
        """(start, hold) placed so the fault heals by 0.8 * duration."""
        at = round(rng.uniform(0.05 * duration, 0.55 * duration), 3)
        hold = round(rng.uniform(0.05 * duration, min(0.25 * duration, 0.8 * duration - at)), 3)
        return at, max(hold, 0.01)

    for _ in range(rounds):
        a, b = links[rng.randrange(len(links))]
        at, hold = window()
        plan.add(FaultEvent(at=at, kind=FaultKind.LINK_DOWN, duration=hold,
                            params={"a": a, "b": b}))

        if domains:
            domain = domains[rng.randrange(len(domains))]
            at, hold = window()
            plan.add(FaultEvent(at=at, kind=FaultKind.PARTITION, duration=hold,
                                params={"domain": domain}))

        if crash_nodes:
            node = crash_nodes[rng.randrange(len(crash_nodes))]
            at, hold = window()
            plan.add(FaultEvent(at=at, kind=FaultKind.NODE_CRASH, duration=hold,
                                params={"node": node}))

        a, b = links[rng.randrange(len(links))]
        at, hold = window()
        plan.add(FaultEvent(at=at, kind=FaultKind.LATENCY_SPIKE, duration=hold,
                            params={"a": a, "b": b,
                                    "factor": round(rng.uniform(2.0, 8.0), 2)}))

        a, b = links[rng.randrange(len(links))]
        at, hold = window()
        plan.add(FaultEvent(at=at, kind=FaultKind.LOSS_BURST, duration=hold,
                            params={"a": a, "b": b,
                                    "rate": round(rng.uniform(0.2, 0.5), 2)}))

        if credential_ids:
            count = 1 + rng.randrange(min(2, len(credential_ids)))
            storm = sorted(rng.sample(list(credential_ids), count))
            at = round(rng.uniform(0.05 * duration, 0.55 * duration), 3)
            plan.add(FaultEvent(at=at, kind=FaultKind.REVOKE_STORM,
                                params={"credentials": storm}))

        if restart_nodes:
            node = restart_nodes[rng.randrange(len(restart_nodes))]
            at, hold = window()
            torn = rng.randrange(MAX_TORN_TAIL + 1)
            plan.add(FaultEvent(at=at, kind=FaultKind.NODE_CRASH_RESTART,
                                duration=hold,
                                params={"node": node, "torn_tail": torn}))

    return plan
