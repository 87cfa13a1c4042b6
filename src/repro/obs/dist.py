"""The ``python -m repro trace`` scenario: one stitched cross-node trace.

Builds the smallest world that exercises every distributed-tracing hop —
a client and a server star-linked over a lossy-capable simulated link,
frame batching on, an authorization- and view-guarded key-value object
exported over plain RPC — and replays a short fixed workload through it,
issuing each op inside its own ``trace.op`` root span.  The result is a
Chrome/Perfetto trace-event JSON object in which each op's trace id ties
together:

* the root span and its client-side ``rpc.client`` child (and, under
  ``--chaos``, one ``rpc.attempt`` child per retransmission),
* the transport's ``net.transmit`` spans for the batches that carried
  the frames,
* the server-side ``rpc.server`` span, with the dRBAC
  ``drbac.proof.search`` and ``views.acl.resolve`` spans nested under
  it, and
* the structured event log (auth verdicts, retries, frame losses) as
  thread-scoped instants.

Chaos mode sets a 35 % frame-loss rate on the link and issues every call
through :meth:`~repro.switchboard.rpc.PlainRpcEndpoint.call_with_retry`
with a seeded exponential backoff policy, so the exported trace shows
the full at-least-once story: lost transmissions, per-attempt spans, and
the attempt that finally stitched to a server span.

Everything runs over virtual time under ``hermetic_counters`` inside a
:func:`repro.obs.scoped` block, so one seed produces a byte-identical
export — the property the CI determinism step diffs.
"""

from __future__ import annotations

from typing import Any

from .. import obs
from ..crypto import KeyStore
from ..drbac import DrbacEngine
from ..drbac.cache import CachedAuthorizer
from ..faults.retry import RetryPolicy
from ..hermetic import GuardedKV, harness_world
from ..switchboard.rpc import PlainRpcEndpoint
from ..views.acl import ViewAccessPolicy
from .export import to_chrome_trace

SCHEMA = "repro-trace/v1"

#: Role the legitimate client holds; ``mallory`` never does.
CLIENT_ROLE = "Trace.Client"

#: Frame-loss probability the chaos variant applies to the only link.
CHAOS_LOSS_RATE = 0.35


class TracedKV(GuardedKV):
    """Guarded key-value object: every call authorizes *and* resolves a view.

    Serving one RPC therefore produces, under the activated ``rpc.server``
    span, both a ``drbac.proof.search`` child (on cache misses) and a
    ``views.acl.resolve`` child — the server-side half of the stitched
    trace — plus ``auth.decision`` / ``view.resolve`` audit events.
    """

    def __init__(
        self,
        authorizer: CachedAuthorizer,
        policy: ViewAccessPolicy,
        engine: DrbacEngine,
        *,
        initial: dict[str, str],
    ) -> None:
        super().__init__(authorizer, CLIENT_ROLE, initial=initial)
        self._policy = policy
        self._engine = engine

    def _view_of(self, subject: str) -> str | None:
        decision = self._policy.resolve(subject, self._engine)
        return decision.view_name if decision is not None else None

    def _admit(self, subject: str) -> None:
        super()._admit(subject)
        self._view_of(subject)

    def check(self, subject: str) -> list:
        """Never raises: the anonymous default view admits strangers."""
        return [super().check(subject), self._view_of(subject)]


#: The fixed workload: enough shape to cover grant/deny, cache miss/hit,
#: member/anonymous view resolution, and (under chaos) retransmission.
_OPS: tuple[tuple[str, list], ...] = (
    ("put", ["alice", "greeting", "hello"]),      # miss -> proof search
    ("get", ["alice", "greeting"]),               # cache hit
    ("check", ["alice"]),                         # member view
    ("get", ["mallory", "greeting"]),             # denial -> RemoteError
    ("check", ["mallory"]),                       # anonymous default view
)


def run_trace(
    seed: int, *, chaos: bool = False, key_store: KeyStore | None = None
) -> dict[str, Any]:
    """Run the traced scenario and return its Chrome trace-event JSON."""
    key_store = key_store or KeyStore(key_bits=512)
    with harness_world(
        seed=seed,
        domain="TRACE",
        clients=["client"],
        loss_rate=CHAOS_LOSS_RATE if chaos else 0.0,
    ) as world:
        scheduler, transport = world.scheduler, world.transport
        transport.configure_batching(max_frames=4, window=0.002)

        # Full-search engine: the demo's point is the stitched
        # client→server→proof-search span chain, and the incremental fast
        # path would answer the cache miss without ever opening a
        # drbac.proof.search span.
        engine = DrbacEngine(key_store=key_store, clock=scheduler, incremental=False)
        engine.delegate("Trace", "alice", CLIENT_ROLE)
        authorizer = CachedAuthorizer(engine, max_entries=8, shards=2)
        policy = ViewAccessPolicy("TraceKV")
        policy.allow(CLIENT_ROLE, "ViewTraceKV_Member")
        policy.allow("others", "ViewTraceKV_Anonymous")
        store = TracedKV(
            authorizer, policy, engine, initial={"greeting": "init"}
        )
        server = PlainRpcEndpoint(transport, "server")
        server.exporter.export("TraceKV", store)
        client = PlainRpcEndpoint(transport, "client")

        retry_policy = RetryPolicy.exponential(
            base_delay=0.05, max_attempts=6, max_delay=1.0, jitter=0.1,
            seed=seed,
        )
        results: list[list[str]] = []
        for method, args in _OPS:
            # The root covers the issue only: waiting inside it would let
            # every event the wait runs inherit the span.
            with obs.span("trace.op", node="client", method=method):
                if chaos:
                    pending = client.call_with_retry(
                        "server", "TraceKV", method, args, policy=retry_policy
                    )
                else:
                    pending = client.call("server", "TraceKV", method, args)
            try:
                value = pending.wait(timeout=60.0)
                results.append([method, "ok", repr(value)])
            except Exception as exc:  # noqa: BLE001 - outcome goes in the report
                results.append([method, "error", type(exc).__name__])
        # Drain leftover retry checks and batch-window flushes so every
        # span is finished before export.
        while scheduler.step():
            pass

        log = obs.get_event_log()
        return to_chrome_trace(
            obs.get_tracer(),
            log,
            other_data={
                "schema": SCHEMA,
                "seed": seed,
                "chaos": chaos,
                "virtual_makespan_s": round(scheduler.now(), 9),
                "ops": results,
                "auth_decisions": len(log.find("auth.decision")),
                "view_resolutions": len(log.find("view.resolve")),
                "retries": len(log.find("rpc.retry")),
                "frames_lost": len(log.find("net.loss")),
            },
        )


def summarize(trace: dict[str, Any], elapsed_s: float) -> str:
    """One-line digest of an export, printed when it went to a file."""
    other = trace["otherData"]
    spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
    instants = sum(1 for e in trace["traceEvents"] if e.get("ph") == "i")
    return (
        f"repro trace seed={other['seed']} "
        f"chaos={'yes' if other['chaos'] else 'no'}: "
        f"{spans} spans, {instants} events, {other['retries']} retries, "
        f"{other['frames_lost']} frames lost, "
        f"makespan {other['virtual_makespan_s']:.4f}s\n"
        "load the exported file at https://ui.perfetto.dev"
    )
