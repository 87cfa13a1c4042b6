"""Hermetic execution guards and world plumbing shared by every
deterministic harness.

Call ids, credential serials, connection ids, and planner instance ids
are process-global monotonic counters; their *digit counts* leak into
frame sizes and therefore into simulated transmission delay.  Pinning
them for the scope of a run makes two in-process runs byte-identical,
not just two freshly started CLI invocations.

:func:`hermetic_counters` alone guards the harnesses that bring their
own world — the chaos runner (:mod:`repro.faults.runner`), the churn and
recovery benches (:mod:`repro.load.churn`, :mod:`repro.load.recovery`),
and the shared test fixture (``tests/conftest.py``).  The harnesses that
run plain RPC over a star of simulated links — the load generator
(:mod:`repro.load.generator`), the overload bench
(:mod:`repro.load.overload`), the simulation tester
(:mod:`repro.check.executor`), and the tracing scenario
(:mod:`repro.obs.dist`) — build that world through :func:`harness_world`
and, where they export an authorization-guarded store, :class:`GuardedKV`.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from . import obs
from .net.events import EventScheduler
from .net.simnet import Network
from .net.transport import Transport

if TYPE_CHECKING:
    from .drbac.cache import CachedAuthorizer


@contextmanager
def hermetic_counters() -> Iterator[None]:
    """Run with fresh process-global id counters, restoring them after.

    The original iterators are restored on exit so surrounding code keeps
    its id-uniqueness guarantees.
    """
    from .drbac import delegation as delegation_mod
    from .psf import planner as planner_mod
    from .switchboard import channel as channel_mod

    # RPC call ids stopped being process-global when endpoints and
    # channels grew per-instance CallIdPools (correlation-id reuse), so
    # only the remaining module-level counters need pinning here.
    saved = (
        channel_mod._conn_ids,
        delegation_mod._serial,
        planner_mod._instance_counter,
    )
    channel_mod._conn_ids = itertools.count(1)
    delegation_mod._serial = itertools.count(1)
    planner_mod._instance_counter = itertools.count(1)
    try:
        yield
    finally:
        (
            channel_mod._conn_ids,
            delegation_mod._serial,
            planner_mod._instance_counter,
        ) = saved


@dataclass(frozen=True, slots=True)
class HarnessWorld:
    """What :func:`harness_world` built: one virtual clock, one star."""

    scheduler: EventScheduler
    network: Network
    transport: Transport


@contextmanager
def harness_world(
    *,
    seed: int,
    domain: str,
    clients: Sequence[str],
    latency_s: float = 0.004,
    loss_rate: float = 0.0,
) -> Iterator[HarnessWorld]:
    """A hermetic star world: each of ``clients`` linked to one ``server``.

    Everything a deterministic RPC harness needs before its own objects:
    pinned id counters, a scoped metrics registry / tracer / event log
    clocked on a fresh :class:`EventScheduler`, and a
    :class:`Transport` whose frame loss is seeded by ``seed``.  Links are
    insecure 8 Mb/s.
    """
    with hermetic_counters(), obs.scoped(enabled=True):
        scheduler = EventScheduler()
        obs.set_tracer_clock(scheduler)
        network = Network()
        network.add_node("server", domain=domain)
        for name in clients:
            network.add_node(name, domain=domain)
            network.add_link(
                name,
                "server",
                latency_s=latency_s,
                bandwidth_bps=8e6,
                secure=False,
                loss_rate=loss_rate,
            )
        transport = Transport(network, scheduler, loss_seed=seed)
        yield HarnessWorld(scheduler, network, transport)


class GuardedKV:
    """Authorization-guarded key-value store the harnesses export over RPC.

    Every data operation authorizes its caller for ``role`` through the
    shared (sharded) :class:`~repro.drbac.cache.CachedAuthorizer` first,
    so an RPC workload against it doubles as a cache workload.
    """

    def __init__(
        self,
        authorizer: CachedAuthorizer,
        role: str,
        *,
        initial: dict[str, str] | None = None,
    ) -> None:
        self._authorizer = authorizer
        self._role = role
        self._data = dict(initial or {})

    def _admit(self, subject: str) -> None:
        self._authorizer.authorize(subject, self._role)

    def get(self, subject: str, key: str) -> str | None:
        self._admit(subject)
        return self._data.get(key)

    def put(self, subject: str, key: str, value: str) -> str | None:
        self._admit(subject)
        old = self._data.get(key)
        self._data[key] = value
        return old

    def check(self, subject: str) -> bool:
        return self._authorizer.is_authorized(subject, self._role)
