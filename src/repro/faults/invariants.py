"""Safety invariants checked over (and after) a chaos run.

A fault harness that only counts "probes succeeded" proves liveness, not
safety.  The invariants here catch the silent failure modes:

* **No hanging calls** — every :class:`~repro.switchboard.rpc.PendingCall`
  created during the run must complete (resolved, failed, or aborted);
  a fault must never strand a caller on a future nobody will fill.
* **Revocation enforced** — an authorization must not succeed on the
  strength of a revoked credential; recovery is *re-issuance*, never a
  stale proof.
* **View/image coherence** — a cached view must agree with its origin
  once the network quiesces.
* **Crashed deployments re-planned** — no managed session may end the
  run with components placed on a dead host or with evicted instances
  that were never replaced.

Checks are registered on an :class:`InvariantSuite`; online violations
(observed mid-run by the harness) are ``record``-ed and reported next to
the end-of-run sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    invariant: str
    detail: str

    def to_dict(self) -> dict[str, str]:
        return {"invariant": self.invariant, "detail": self.detail}


class InvariantSuite:
    """Named checks plus online-recorded violations."""

    def __init__(self) -> None:
        self._checks: list[tuple[str, Callable[[], list[str]]]] = []
        self._recorded: list[InvariantViolation] = []

    def add_check(self, name: str, check: Callable[[], list[str]]) -> None:
        """Register an end-of-run check returning a list of violation
        details (empty when the invariant holds)."""
        self._checks.append((name, check))

    def record(self, invariant: str, detail: str) -> None:
        """Report a violation observed live, mid-run."""
        self._recorded.append(InvariantViolation(invariant, detail))

    def run(self) -> list[InvariantViolation]:
        violations = list(self._recorded)
        for name, check in self._checks:
            violations.extend(InvariantViolation(name, detail) for detail in check())
        return violations


# -- prebuilt end-of-run checks ---------------------------------------------


def calls_settled(endpoints: Iterable[Any]) -> Callable[[], list[str]]:
    """No RPC future — plain or on a live channel — may still be undone
    once the queue drains.  Reads each endpoint's ``call_tables()``."""
    endpoints = list(endpoints)

    def check() -> list[str]:
        return [
            f"{label}: call #{call.call_id} {call.method!r} still pending"
            for endpoint in endpoints
            for label, table in endpoint.call_tables()
            for call in table.undone()
        ]

    return check


def sessions_on_live_nodes(network: Any, sessions: Iterable[Any]) -> Callable[[], list[str]]:
    """Every managed session's plan must sit entirely on live hosts, with
    no eviction left unredeployed."""
    sessions = list(sessions)

    def check() -> list[str]:
        out: list[str] = []
        for index, session in enumerate(sessions):
            if session.needs_redeploy:
                out.append(f"session[{index}] evicted instances never redeployed")
            for placed in session.plan.components:
                if not network.node(placed.node).up:
                    out.append(
                        f"session[{index}] places {placed.component.name} "
                        f"on dead node {placed.node}"
                    )
        return out

    return check


def views_coherent(
    label: str, view_read: Callable[[], Any], origin_read: Callable[[], Any]
) -> Callable[[], list[str]]:
    """After quiescence a view must observe the same state as its origin."""

    def check() -> list[str]:
        through_view = view_read()
        at_origin = origin_read()
        if through_view != at_origin:
            return [
                f"{label}: view sees {through_view!r} but origin holds {at_origin!r}"
            ]
        return []

    return check
