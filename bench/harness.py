"""Measurement loop shared by every workload.

One process measures one workload: closed loop, one thread, no sockets.
A *repetition* is a fixed-size unit of work generated from ``--seed`` and
run on a freshly built world; the loop runs repetitions until ``--seconds``
have passed (at least :data:`MIN_REPS`), so a run's length is set by the
caller while every repetition sees byte-identical inputs.  End-to-end
values are medians over repetitions.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro import obs

KEY_BITS = 1024
"""The one RSA modulus size used everywhere (``benchmarks/conftest.py``)."""

MIN_REPS = 3
SETUP_REPEATS = 3
"""One-time preparations timed per untraced run; ``setup_s`` takes their
median because a single RSA keygen's run time has CV ~0.5."""

now_ns = time.perf_counter_ns


def deck(rng: random.Random, count: int, weights: tuple[float, ...]) -> list[int]:
    """``count`` category indices in exact proportion to ``weights``,
    shuffled: the seed decides the order of a workload's ops, never how
    many of each kind it has, so runs of different seeds do equal work.
    Callers list the commonest category first: it absorbs the rounding."""
    total = sum(weights)
    cards: list[int] = []
    for index, weight in enumerate(weights):
        cards += [index] * round(count * weight / total)
    cards = cards[: count] + [0] * (count - len(cards))
    rng.shuffle(cards)
    return cards


class Recorder:
    """What one repetition's measured phase observed."""

    def __init__(self) -> None:
        self.op = -1
        """Index of the op in flight; spans of the traced pass carry it."""
        self.latencies_ns: list[int] = []
        self.first_calls_ns: dict[str, list[int]] = {}
        """First-call times by kind of request."""
        self.miss_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.window_ops = 0
        self.window_ns = 0
        self.virt_elapsed = 0.0
        self.oracle_ns = 0
        self.in_oracle = False
        """True while the workload's oracle runs program code of its own
        (the churn cross-check); the traced pass records no spans then."""
        self._digest = hashlib.sha256()

    def begin(self) -> int:
        """Start the next op; returns the wall clock in ns."""
        self.op += 1
        self.attempted += 1
        return now_ns()

    @contextmanager
    def oracle(self) -> Iterator[None]:
        """Time spent here is the oracle's, not the program's: it is taken
        out of the throughput window and of the traced shares."""
        start = now_ns()
        self.in_oracle = True
        try:
            yield
        finally:
            self.in_oracle = False
            self.oracle_ns += now_ns() - start

    def first_call(self, elapsed_ns: int, kind: str = "") -> None:
        self.first_calls_ns.setdefault(kind, []).append(elapsed_ns)

    def check(self, ok: bool, entry: str = "") -> None:
        """Record one op's verdict against the oracle, and its transcript
        line (deterministic workloads only)."""
        if not ok:
            self.failed += 1
        if entry:
            self._digest.update(entry.encode())
            self._digest.update(b"\n")

    def window(self, ops: int, wall_ns: int, virt_elapsed: float) -> None:
        """The throughput window: correct ops, wall ns (the oracle's share
        of them is taken out), virtual seconds."""
        self.window_ops += ops
        self.window_ns += wall_ns - self.oracle_ns
        self.virt_elapsed += virt_elapsed

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


class Workload:
    """One benchmark workload; subclasses live in ``bench/workloads``.

    ``__init__`` generates every input from the seed.  ``prepare`` is the
    one-time preparation (key pairs for the whole roster, pre-signed
    credentials); ``build`` makes one repetition's world from it;
    ``warm_up`` runs untimed ops on that world; ``measure`` runs the
    measured phase and checks every outcome against the workload's own
    oracle; ``counts`` reads the layers' counters afterwards.
    """

    name = ""
    deterministic = False
    """True when the seed fixes the whole transcript, so the seed-7
    digest is checked against ``bench/golden``."""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def prepare(self) -> Any:
        raise NotImplementedError

    def build(self, prep: Any) -> Any:
        raise NotImplementedError

    def warm_up(self, world: Any) -> None:
        raise NotImplementedError

    def measure(self, world: Any, rec: Recorder) -> None:
        raise NotImplementedError

    def counts(self, world: Any, registry: obs.MetricsRegistry) -> dict[str, float]:
        return {}


@dataclass
class Rep:
    """One finished repetition."""

    build_s: float
    wall_s: float
    rec: Recorder
    counts: dict[str, float]

    @property
    def ops_per_s(self) -> float:
        return self.rec.window_ops / (self.rec.window_ns / 1e9)


def run_rep(
    workload: Workload,
    prep: Any,
    rec: Recorder | None = None,
    *,
    obs_enabled: bool = True,
    measure: Callable[[Any, Recorder], None] | None = None,
) -> Rep:
    """Build a world, warm it, and run one measured phase on it.

    ``measure`` stands in for ``workload.measure`` (the traced pass wraps
    it in its root span)."""
    rec = rec if rec is not None else Recorder()
    measure = measure or workload.measure
    with obs.scoped(enabled=obs_enabled) as registry:
        start = now_ns()
        world = workload.build(prep)
        build_s = (now_ns() - start) / 1e9
        workload.warm_up(world)
        gc.collect()
        start = now_ns()
        measure(world, rec)
        wall_s = (now_ns() - start) / 1e9
        counts = workload.counts(world, registry)
    return Rep(build_s, wall_s, rec, counts)


def timed_prepare(workload: Workload) -> tuple[Any, float]:
    start = now_ns()
    prep = workload.prepare()
    return prep, (now_ns() - start) / 1e9


def run_reps(workload: Workload, prep: Any, seconds: float) -> list[Rep]:
    """Repetitions until ``seconds`` have passed, at least MIN_REPS."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, prep))
        elapsed = time.perf_counter() - start
        if workload.smoke:
            return reps
        # Stop when the next repetition would overshoot the budget.
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > seconds:
            return reps


def ratio(part: float, whole: float) -> float:
    """``part / whole``; a ratio nothing contributed to reads 0."""
    return part / whole if whole else 0.0


def transport_counts(transport: Any) -> dict[str, float]:
    stats = transport.stats
    # A batch replaces its frames on the wire; unbatched frames are
    # single-frame transfers.
    transfers = stats.messages_sent - stats.frames_coalesced + stats.batches_sent
    return {
        "net.messages_sent": stats.messages_sent,
        "net.bytes_sent": stats.bytes_sent,
        "net.batches_sent": stats.batches_sent,
        "net.frames_per_batch": ratio(stats.messages_sent, transfers),
    }


def cache_counts(authorizer: Any, registry: obs.MetricsRegistry) -> dict[str, float]:
    stats = authorizer.stats
    engine = authorizer.engine
    fast = registry.counter_value("drbac.incr.fast_proofs")
    fallbacks = registry.counter_value("drbac.incr.fallbacks")
    return {
        "drbac.cache_hit_ratio": stats.hit_rate,
        "drbac.cache_misses": stats.misses,
        "drbac.cache_invalidated": stats.invalidated,
        "drbac.cache_evicted": stats.evicted,
        "drbac.search_edges": engine.search_work,
        "drbac.incr_work": engine.incremental.work if engine.incremental else 0,
        "drbac.regime_residency": ratio(fast, fast + fallbacks),
    }


def percentile(ordered: list[int], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(0, -(-len(ordered) * pct // 100) - 1)
    return float(ordered[int(index)])


def latency_us(reps: list[Rep], pct: float) -> float:
    """Median over repetitions of each one's latency percentile, so a
    repetition that ran while the machine was slow cannot drag it."""
    return statistics.median(
        percentile(sorted(rep.rec.latencies_ns), pct) for rep in reps
    ) / 1e3


def first_call_ms(reps: list[Rep]) -> float:
    """Mean over the kinds of request of the median first-call time, so
    every kind (a LAN stub, a handshake, a deployment) moves the value."""
    kinds: dict[str, list[int]] = {}
    for rep in reps:
        for kind, samples in rep.rec.first_calls_ns.items():
            kinds.setdefault(kind, []).extend(samples)
    return statistics.mean(statistics.median(v) for v in kinds.values()) / 1e6


def peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(prep_s: list[float], reps: list[Rep]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of BENCHMARK.json, name -> (value, unit)."""
    return {
        "setup_s": (
            statistics.median(prep_s)
            + statistics.median(rep.build_s for rep in reps),
            "s",
        ),
        "ops_per_s": (statistics.median(rep.ops_per_s for rep in reps), "ops/s"),
        "op_p50_us": (latency_us(reps, 50), "us"),
        "op_p90_us": (latency_us(reps, 90), "us"),
        "first_call_ms": (first_call_ms(reps), "ms"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }
