"""Overload bench: 1x/3x/10x offered load, with and without flow control.

One :class:`OverloadBench` drives the same seeded open-loop workload —
Poisson arrivals across four priority classes (revocation monitoring,
authorization checks, registry reads, bulk blob puts) — through two
otherwise-identical worlds per load multiplier:

* **without flow** — admission control disabled.  The service model
  (``workers`` slots × ``service_time_s`` per request) still applies, so
  past capacity the queue grows without bound and latency collapses:
  requests complete, but far too late to count.
* **with flow** — the full :mod:`repro.flow` stack: per-client token
  buckets, a bounded weighted-fair backlog, and typed sheds carrying
  retry-after hints.  Excess load is refused *early and cheaply*, so
  what is admitted completes within the SLO.

**Goodput** is the honest metric: completions within ``slo_s`` of issue,
per second of offered-load window.  A report asserts three invariants —
at 10x the protected arm keeps ≥70% of its 1x goodput, the monitor
class is never shed, and the lowest class still gets its weighted share
(completions > 0, i.e. fairness, not starvation).

Everything is deterministic over virtual time: arrivals come from
``random.Random`` seeded per (seed, multiplier, client), floats are
rounded, and the flight-recorder payload is attached only when an
invariant fails — two runs with one seed emit byte-identical JSON,
which CI diffs.
"""

from __future__ import annotations

import random
from typing import Any

from .. import obs
from ..errors import RpcShedError
from ..flow import (
    DEFAULT_WEIGHTS,
    PRIO_BULK,
    PRIO_MONITOR,
    FlowConfig,
    classify_priority,
)
from ..hermetic import harness_world
from ..switchboard.rpc import PlainRpcEndpoint
from .generator import _percentile

SCHEMA = "bench-overload/v1"

MULTIPLIERS = (1, 3, 10)

#: Class mix of the offered load: a sliver of control traffic, a healthy
#: chunk of authorization checks, reads dominating, and a heavy tail of
#: bulk writes — the traffic shape a shared authorizer actually sees.
_MIX = (
    (0.05, "RevocationMonitor", "revalidate"),
    (0.30, "Authorizer", "check_access"),
    (0.70, "Registry", "get_entry"),
    (1.01, "BlobStore", "put_blob"),
)


class OverloadService:
    """One exported object wearing four target names, one per class."""

    def __init__(self) -> None:
        self.served = [0, 0, 0, 0]

    def revalidate(self, token: str) -> str:
        self.served[PRIO_MONITOR] += 1
        return f"ok-{token}"

    def check_access(self, subject: str) -> bool:
        self.served[1] += 1
        return True

    def get_entry(self, key: str) -> str:
        self.served[2] += 1
        return f"v-{key}"

    def put_blob(self, key: str, size: int) -> int:
        self.served[PRIO_BULK] += 1
        return size


class OverloadBench:
    """Seeded 2-arm × 3-multiplier overload experiment."""

    def __init__(
        self,
        *,
        seed: int,
        clients: int = 4,
        duration_s: float = 1.5,
        base_rps: float = 160.0,
        service_time_s: float = 0.01,
        workers: int = 2,
        slo_s: float = 0.25,
    ) -> None:
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        self.seed = seed
        self.clients = clients
        self.duration_s = duration_s
        self.base_rps = base_rps
        self.service_time_s = service_time_s
        self.workers = workers
        self.slo_s = slo_s

    @property
    def capacity_rps(self) -> float:
        """What the service model can actually absorb."""
        return self.workers / self.service_time_s

    # -- workload ------------------------------------------------------------

    def _plan(self, multiplier: int, client: int) -> list[tuple[float, str, str, list]]:
        """Open-loop arrivals for one client at one offered rate.

        Exponential interarrivals (Poisson process) so overload arrives
        in realistic bursts, not a metronome the token bucket could
        trivially pace.  The plan depends only on (seed, multiplier,
        client): both arms of a multiplier replay identical traffic.
        """
        rate = self.base_rps * multiplier / self.clients
        rng = random.Random(f"overload-{self.seed}-{multiplier}-{client}")
        plan: list[tuple[float, str, str, list]] = []
        at = rng.expovariate(rate)
        n = 0
        while at < self.duration_s:
            roll = rng.random()
            for ceiling, target, method in _MIX:
                if roll < ceiling:
                    break
            if method == "put_blob":
                args: list = [f"c{client}-b{n}", 64]
            elif method == "revalidate":
                args = [f"tok-{client}-{n}"]
            else:
                args = [f"c{client}-k{n % 16}"]
            plan.append((at, target, method, args))
            at += rng.expovariate(rate)
            n += 1
        return plan

    def _flow(self, enabled: bool) -> FlowConfig:
        return FlowConfig(
            enabled=enabled,
            service_time_s=self.service_time_s,
            workers=self.workers,
            # Per-client bucket: 4 × 75 = 300 admitted rps tops, so the
            # bounded backlog — not the bucket alone — does the final
            # shaping down to the ~200 rps the slots can serve.
            bucket_rate=75.0,
            bucket_burst=20.0,
            # Worst-case queue wait 32 × (0.01 / 2) = 0.16s: everything
            # admitted can still complete inside the 0.25s SLO.
            max_backlog=32,
            retry_after_s=0.05,
        )

    # -- one arm -------------------------------------------------------------

    def _run_arm(self, multiplier: int, enabled: bool) -> dict[str, Any]:
        plans = [self._plan(multiplier, c) for c in range(self.clients)]
        with harness_world(
            seed=self.seed,
            domain="LOAD",
            clients=[f"client-{index}" for index in range(self.clients)],
            latency_s=0.002,
        ) as world:
            scheduler, transport = world.scheduler, world.transport
            server = PlainRpcEndpoint(
                transport, "server", flow=self._flow(enabled)
            )
            service = OverloadService()
            for target_name in (
                "RevocationMonitor", "Authorizer", "Registry", "BlobStore"
            ):
                server.exporter.export(target_name, service)

            classes = len(DEFAULT_WEIGHTS)
            good = [0] * classes
            late = [0] * classes
            shed = [0] * classes
            errors = 0
            latencies: list[float] = []

            def issue(rpc: PlainRpcEndpoint, target: str, method: str,
                      args: list) -> None:
                cls = classify_priority(target, method)
                issued_at = scheduler.now()

                def settle(done: Any) -> None:
                    nonlocal errors
                    if done._exception is not None:
                        if isinstance(done._exception, RpcShedError):
                            shed[cls] += 1
                        else:
                            errors += 1
                        return
                    if done._error is not None:
                        errors += 1
                        return
                    sojourn = scheduler.now() - issued_at
                    latencies.append(sojourn)
                    if sojourn <= self.slo_s:
                        good[cls] += 1
                    else:
                        late[cls] += 1

                rpc.call("server", target, method, args).add_done_callback(settle)

            offered = 0
            for index in range(self.clients):
                rpc = PlainRpcEndpoint(transport, f"client-{index}")
                for at, target, method, args in plans[index]:
                    offered += 1
                    scheduler.schedule(
                        at,
                        lambda rpc=rpc, t=target, m=method, a=args: issue(
                            rpc, t, m, a
                        ),
                    )
            scheduler.run(max_events=2_000_000)

            controller = server.controller
            assert controller is not None
            ordered = sorted(latencies)
            goodput = sum(good) / self.duration_s
            return {
                "requests": offered,
                "completed": sum(good) + sum(late),
                "completed_within_slo": sum(good),
                "goodput_rps": round(goodput, 3),
                "shed": sum(shed),
                "errors": errors,
                "makespan_s": round(scheduler.now(), 6),
                "latency_s": {
                    "p50": round(_percentile(ordered, 50), 6),
                    "p95": round(_percentile(ordered, 95), 6),
                    "p99": round(_percentile(ordered, 99), 6),
                },
                "by_class": {
                    "good": good,
                    "late": late,
                    "shed": shed,
                    "admitted": list(controller.admitted_by_class),
                    "completed": list(controller.completed_by_class),
                },
                # Captured while the scoped obs world is alive; the report
                # surfaces it only when an invariant fails.
                "_flight": obs.flight_snapshot("overload.invariant"),
            }

    # -- the report ----------------------------------------------------------

    def report(self) -> dict[str, Any]:
        arms: list[dict[str, Any]] = []
        flights: dict[str, Any] = {}
        for multiplier in MULTIPLIERS:
            without = self._run_arm(multiplier, enabled=False)
            with_flow = self._run_arm(multiplier, enabled=True)
            flights[f"{multiplier}x"] = with_flow.pop("_flight")
            without.pop("_flight")
            arms.append({
                "multiplier": multiplier,
                "offered_rps": round(self.base_rps * multiplier, 3),
                "without_flow": without,
                "with_flow": with_flow,
            })

        one_x = arms[0]["with_flow"]
        ten_x = arms[-1]["with_flow"]
        invariants = {
            # Past 10x offered load the protected arm must keep at least
            # 70% of its uncontended goodput — shedding early is cheap,
            # collapsing is not.
            "goodput_10x_ge_70pct_of_1x": (
                ten_x["goodput_rps"] >= 0.7 * one_x["goodput_rps"]
            ),
            # Revocation/monitor traffic is exempt from admission
            # control: shedding it would invert the security posture.
            "monitor_never_shed": all(
                arm["with_flow"]["by_class"]["shed"][PRIO_MONITOR] == 0
                for arm in arms
            ),
            # WFQ gives the lowest class its weighted share, not zero.
            "bulk_not_starved_at_10x": (
                ten_x["by_class"]["completed"][PRIO_BULK] > 0
            ),
        }
        ok = all(invariants.values())
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "clients": self.clients,
            "duration_s": self.duration_s,
            "base_rps": self.base_rps,
            "capacity_rps": round(self.capacity_rps, 3),
            "slo_s": self.slo_s,
            "service_time_s": self.service_time_s,
            "workers": self.workers,
            "arms": arms,
            "invariants": {**invariants, "ok": ok},
            # Post-mortem payload only on a violated invariant; None on
            # clean runs keeps the report byte-stable.
            "flight": None if ok else flights,
        }


def passed(report: dict[str, Any]) -> bool:
    """Every overload invariant held."""
    return report["invariants"]["ok"]


def summarize(report: dict[str, Any], elapsed_s: float) -> str:
    """The human-readable ``repro bench-overload`` summary."""
    lines = [
        f"bench-overload seed={report['seed']} clients={report['clients']} "
        f"duration={report['duration_s']}s "
        f"capacity={report['capacity_rps']:.0f} rps "
        f"slo={report['slo_s'] * 1000:.0f}ms"
    ]
    for arm in report["arms"]:
        off, on = arm["without_flow"], arm["with_flow"]
        lines.append(
            f"  {arm['multiplier']:>2}x ({arm['offered_rps']:.0f} rps): "
            f"goodput {off['goodput_rps']:7.1f} -> {on['goodput_rps']:7.1f} rps"
            f"  shed {on['shed']:>4}  p99 {off['latency_s']['p99'] * 1000:8.1f}"
            f" -> {on['latency_s']['p99'] * 1000:6.1f} ms"
        )
    for name, held in report["invariants"].items():
        if name != "ok":
            lines.append(f"  [{'PASS' if held else 'FAIL'}] {name}")
    return "\n".join(lines)


def run_bench_overload(
    *,
    seed: int,
    clients: int = 4,
    duration_s: float = 1.5,
) -> dict[str, Any]:
    """Build, run, and report — the ``repro bench-overload`` workhorse."""
    bench = OverloadBench(seed=seed, clients=clients, duration_s=duration_s)
    return bench.report()
