"""Canonical catalogue of every instrumented metric name.

Instrumented modules import these constants instead of spelling string
literals, and the test-time self-check (``tests/test_selfcheck.py``)
asserts that (a) the catalogue has no duplicate or kind-conflicting
entries and (b) every metric that shows up live after exercising the
scenario is catalogued — so a typo'd name fails tests instead of silently
splitting a counter in two.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import COUNT_BUCKETS


@dataclass(frozen=True, slots=True)
class MetricSpec:
    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    buckets: tuple[float, ...] | None = None


# -- dRBAC proof search (drbac/proof.py, drbac/engine.py, drbac/cache.py) --

PROOF_SEARCHES = "drbac.proof.searches"
PROOF_SEARCHES_REGRESSION = "drbac.proof.searches.regression"
PROOF_SEARCHES_PROGRESSION = "drbac.proof.searches.progression"
PROOF_FOUND = "drbac.proof.found"
PROOF_NOT_FOUND = "drbac.proof.not_found"
PROOF_CHAIN_LENGTH = "drbac.proof.chain_length"
PROOF_EDGES_VISITED = "drbac.proof.edges_visited"
AUTHORIZE_GRANTED = "drbac.authorize.granted"
AUTHORIZE_DENIED = "drbac.authorize.denied"
CACHE_HITS = "drbac.cache.hits"
CACHE_MISSES = "drbac.cache.misses"
CACHE_INVALIDATED = "drbac.cache.invalidated"
CACHE_ENTRIES = "drbac.cache.entries"
CACHE_EVICTED = "drbac.cache.evicted"
CACHE_NEGATIVE_HITS = "drbac.cache.negative_hits"

# -- Incremental proof-graph maintenance (drbac/incremental.py) --------------

INCR_PUBLISHES = "drbac.incr.publishes"
INCR_REVOCATIONS = "drbac.incr.revocations"
INCR_EXPIRIES = "drbac.incr.expiries"
INCR_FAST_PROOFS = "drbac.incr.fast_proofs"
INCR_FALLBACKS = "drbac.incr.fallbacks"
INCR_DELTA_SIZE = "drbac.incr.delta_size"
INCR_CONE_SIZE = "drbac.incr.cone_size"
INCR_RECOMPUTE_RATIO = "drbac.incr.recompute_ratio"
INCR_TRACKED = "drbac.incr.tracked_principals"

# -- Switchboard channel lifecycle (switchboard/channel.py, rpc.py) --------

SWB_HANDSHAKES_INITIATED = "switchboard.handshakes.initiated"
SWB_HANDSHAKES_ACCEPTED = "switchboard.handshakes.accepted"
SWB_HANDSHAKES_REJECTED = "switchboard.handshakes.rejected"
SWB_HANDSHAKES_REUSED = "switchboard.handshakes.reused"
SWB_CHANNELS_OPENED = "switchboard.channels.opened"
SWB_CHANNELS_CLOSED = "switchboard.channels.closed"
SWB_CHANNELS_REVOKED = "switchboard.channels.revoked"
SWB_CHANNELS_DEAD = "switchboard.channels.dead"
SWB_CHANNELS_LIVE = "switchboard.channels.live"
SWB_FRAMES_SENT = "switchboard.frames.sent"
SWB_FRAMES_RECEIVED = "switchboard.frames.received"
SWB_BYTES_SENT = "switchboard.bytes.sent"
SWB_BYTES_RECEIVED = "switchboard.bytes.received"
SWB_REPLAYS_REJECTED = "switchboard.replays.rejected"
SWB_TAMPER_REJECTED = "switchboard.tamper.rejected"
SWB_RPC_CALLS = "switchboard.rpc.calls"
SWB_RPC_FAILURES = "switchboard.rpc.failures"
SWB_RPC_LATENCY = "switchboard.rpc.latency"
RPC_FRAMES_REJECTED = "switchboard.rpc.frames_rejected"

# -- PSF planning and deployment (psf/planner.py, psf/deployment.py) -------

PLAN_ATTEMPTS = "psf.plan.attempts"
PLAN_SUCCESS = "psf.plan.success"
PLAN_FAILURES = "psf.plan.failures"
PLAN_GOALS_EXPANDED = "psf.plan.goals_expanded"
PLAN_CANDIDATES = "psf.plan.candidates_examined"
PLAN_BACKTRACKS = "psf.plan.backtracks"
DEPLOY_DEPLOYMENTS = "psf.deploy.deployments"
DEPLOY_INSTANCES = "psf.deploy.instances"
DEPLOY_CREDENTIALS = "psf.deploy.credentials_issued"
DEPLOY_DURATION = "psf.deploy.duration"

# -- View coherence (views/coherence.py) -----------------------------------

COHERENCE_ACQUIRES = "views.coherence.acquires"
COHERENCE_RELEASES = "views.coherence.releases"
COHERENCE_IMAGES_PULLED = "views.coherence.images_pulled"
COHERENCE_IMAGES_PUSHED = "views.coherence.images_pushed"

# -- Network fault surface (net/transport.py) -------------------------------

NET_LINK_BYTES_CARRIED = "net.link.bytes_carried"
NET_LINK_FRAMES_DROPPED = "net.link.frames_dropped"
NET_MESSAGES_REROUTED = "net.messages.rerouted"

# -- Frame batching (net/transport.py) --------------------------------------

NET_BATCH_FLUSHES = "net.batch.flushes"
NET_BATCH_FLUSHES_SIZE = "net.batch.flushes_size"
NET_BATCH_FLUSHES_TICK = "net.batch.flushes_tick"
NET_BATCH_FRAMES_COALESCED = "net.batch.frames_coalesced"
NET_BATCH_BYTES = "net.batch.bytes"
NET_BATCH_OCCUPANCY = "net.batch.occupancy"

# -- RPC pipelining (switchboard/rpc.py) ------------------------------------

RPC_PIPELINE_CALLS = "switchboard.rpc.pipeline.calls"
RPC_PIPELINE_DEPTH = "switchboard.rpc.pipeline.depth"

# -- Recovery machinery (switchboard/rpc.py, channel.py, drbac/repository.py,
#    psf/adaptation.py) -----------------------------------------------------

RPC_WAIT_TIMEOUTS = "switchboard.rpc.wait_timeouts"
RPC_RETRIES = "switchboard.rpc.retries"
RPC_RETRIES_EXHAUSTED = "switchboard.rpc.retries_exhausted"
SWB_CHANNELS_REESTABLISHED = "switchboard.channels.reestablished"
SWB_RECONNECT_LATENCY = "switchboard.reconnect.latency"
REPO_FAILOVERS = "drbac.repo.failovers"
ADAPT_REPLANS = "psf.adapt.replans"
ADAPT_REDEPLOYMENTS = "psf.adapt.redeployments"
ADAPT_FAILURES = "psf.adapt.failures"

# -- Fault injection (faults/injector.py, faults/runner.py) -----------------

FAULTS_INJECTED_LINK = "faults.injected.link"
FAULTS_INJECTED_PARTITION = "faults.injected.partition"
FAULTS_INJECTED_NODE = "faults.injected.node"
FAULTS_INJECTED_LATENCY = "faults.injected.latency"
FAULTS_INJECTED_LOSS = "faults.injected.loss"
FAULTS_INJECTED_REVOCATION = "faults.injected.revocation"
FAULTS_RECOVERED_LINK = "faults.recovered.link"
FAULTS_RECOVERED_PARTITION = "faults.recovered.partition"
FAULTS_RECOVERED_NODE = "faults.recovered.node"
FAULTS_RECOVERED_LATENCY = "faults.recovered.latency"
FAULTS_RECOVERED_LOSS = "faults.recovered.loss"
FAULTS_RECOVERED_REVOCATION = "faults.recovered.revocation"
FAULTS_RECOVERY_LATENCY = "faults.recovery.latency"
FAULTS_INJECTED_RESTART = "faults.injected.node_restart"

# -- Durability & crash recovery (durable/*.py, drbac/repository.py) --------

DURABLE_WAL_APPENDS = "durable.wal.appends"
DURABLE_WAL_BYTES = "durable.wal.bytes"
DURABLE_WAL_RECORDS = "durable.wal.records"
DURABLE_SNAPSHOTS = "durable.snapshots"
DURABLE_TORN_TAILS = "durable.torn_tails"
DURABLE_TORN_BYTES = "durable.torn_tail.bytes_dropped"
RECOVER_RESTARTS = "recover.restarts"
RECOVER_REPLAYED = "recover.wal.records_replayed"
RECOVER_CATCHUP = "recover.catchup.updates"
RECOVER_CACHE_EVICTED = "recover.cache.evicted"
RECOVER_CACHE_KEPT = "recover.cache.kept"
RECOVER_WORK = "recover.work_units"
RECOVER_SHARD_REBUILDS = "recover.shard_rebuilds"

# -- Observability self-monitoring (obs/trace.py) ---------------------------

TRACE_DROPPED = "obs.trace.dropped"

# -- Flow control / server admission (flow/*.py) ----------------------------

FLOW_ADMITTED = "flow.admitted"
FLOW_SHED = "flow.shed"
FLOW_BUCKET_DENIED = "flow.bucket.denied"
FLOW_QUEUE_DEPTH = "flow.queue.depth"
FLOW_QUEUE_WAIT = "flow.queue.wait"
FLOW_SERVICE_BUSY = "flow.service.busy"

# -- Simulation testing (check/executor.py, check/shrink.py) ----------------

CHECK_OPS = "check.ops"
CHECK_COMPARISONS = "check.comparisons"
CHECK_DIVERGENCES = "check.divergences"
CHECK_RPC_NET_FAILURES = "check.rpc.net_failures"
CHECK_SHRINK_PROBES = "check.shrink.probes"
CHECK_SHRINK_REMOVED = "check.shrink.removed_ops"


CATALOGUE: tuple[MetricSpec, ...] = (
    MetricSpec(PROOF_SEARCHES, "counter", "proof searches started"),
    MetricSpec(PROOF_SEARCHES_REGRESSION, "counter", "searches using regression"),
    MetricSpec(PROOF_SEARCHES_PROGRESSION, "counter", "searches using progression"),
    MetricSpec(PROOF_FOUND, "counter", "searches that produced a proof"),
    MetricSpec(PROOF_NOT_FOUND, "counter", "searches that found no proof"),
    MetricSpec(PROOF_CHAIN_LENGTH, "histogram",
               "membership-chain length of successful proofs", COUNT_BUCKETS),
    MetricSpec(PROOF_EDGES_VISITED, "histogram",
               "credential edges inspected per search", COUNT_BUCKETS),
    MetricSpec(AUTHORIZE_GRANTED, "counter", "authorize() calls that granted"),
    MetricSpec(AUTHORIZE_DENIED, "counter", "authorize() calls that raised"),
    MetricSpec(CACHE_HITS, "counter", "authorization cache hits"),
    MetricSpec(CACHE_MISSES, "counter", "authorization cache misses"),
    MetricSpec(CACHE_INVALIDATED, "counter",
               "cached proofs dropped after revocation or expiry"),
    MetricSpec(CACHE_ENTRIES, "gauge", "live authorization cache entries"),
    MetricSpec(CACHE_EVICTED, "counter",
               "cache entries evicted by LRU capacity pressure"),
    MetricSpec(CACHE_NEGATIVE_HITS, "counter",
               "denials served from the negative cache"),
    MetricSpec(INCR_PUBLISHES, "counter",
               "usable credentials folded into the incremental graph"),
    MetricSpec(INCR_REVOCATIONS, "counter",
               "revocation deltas applied incrementally"),
    MetricSpec(INCR_EXPIRIES, "counter",
               "expiry deltas drained from the incremental heap"),
    MetricSpec(INCR_FAST_PROOFS, "counter",
               "queries answered from maintained reachability"),
    MetricSpec(INCR_FALLBACKS, "counter",
               "queries routed to the full search (attrs or non-simple graph)"),
    MetricSpec(INCR_DELTA_SIZE, "histogram",
               "roles newly reached per publish delta", COUNT_BUCKETS),
    MetricSpec(INCR_CONE_SIZE, "histogram",
               "principals recomputed per revoke/expire delta", COUNT_BUCKETS),
    MetricSpec(INCR_RECOMPUTE_RATIO, "histogram",
               "recomputed cone as a fraction of tracked principals"),
    MetricSpec(INCR_TRACKED, "gauge",
               "principals with maintained reachable sets"),
    MetricSpec(SWB_HANDSHAKES_INITIATED, "counter", "handshakes dialed"),
    MetricSpec(SWB_HANDSHAKES_ACCEPTED, "counter", "handshakes accepted (responder)"),
    MetricSpec(SWB_HANDSHAKES_REJECTED, "counter", "handshakes rejected (responder)"),
    MetricSpec(SWB_HANDSHAKES_REUSED, "counter", "dials answered by an open channel"),
    MetricSpec(SWB_CHANNELS_OPENED, "counter", "channel ends opened"),
    MetricSpec(SWB_CHANNELS_CLOSED, "counter", "channel ends closed"),
    MetricSpec(SWB_CHANNELS_REVOKED, "counter", "channel ends flipped to REVOKED"),
    MetricSpec(SWB_CHANNELS_DEAD, "counter", "channel ends declared DEAD"),
    MetricSpec(SWB_CHANNELS_LIVE, "gauge", "currently live channel ends"),
    MetricSpec(SWB_FRAMES_SENT, "counter", "encrypted frames sent"),
    MetricSpec(SWB_FRAMES_RECEIVED, "counter", "encrypted frames accepted"),
    MetricSpec(SWB_BYTES_SENT, "counter", "ciphertext bytes sent"),
    MetricSpec(SWB_BYTES_RECEIVED, "counter", "ciphertext bytes accepted"),
    MetricSpec(SWB_REPLAYS_REJECTED, "counter", "frames dropped by sequence check"),
    MetricSpec(SWB_TAMPER_REJECTED, "counter", "frames dropped by MAC failure"),
    MetricSpec(SWB_RPC_CALLS, "counter", "remote calls issued over channels"),
    MetricSpec(SWB_RPC_FAILURES, "counter",
               "remote calls that failed or were aborted by teardown"),
    MetricSpec(SWB_RPC_LATENCY, "histogram",
               "virtual-time latency of completed channel RPCs"),
    MetricSpec(RPC_FRAMES_REJECTED, "counter",
               "malformed plain-RPC frames dropped"),
    MetricSpec(PLAN_ATTEMPTS, "counter", "planning requests"),
    MetricSpec(PLAN_SUCCESS, "counter", "planning requests that found a plan"),
    MetricSpec(PLAN_FAILURES, "counter", "planning requests that raised"),
    MetricSpec(PLAN_GOALS_EXPANDED, "histogram",
               "goals expanded per planning request", COUNT_BUCKETS),
    MetricSpec(PLAN_CANDIDATES, "histogram",
               "provider candidates examined per planning request", COUNT_BUCKETS),
    MetricSpec(PLAN_BACKTRACKS, "histogram",
               "tentative placements undone per planning request", COUNT_BUCKETS),
    MetricSpec(DEPLOY_DEPLOYMENTS, "counter", "plans deployed"),
    MetricSpec(DEPLOY_INSTANCES, "counter", "component instances created"),
    MetricSpec(DEPLOY_CREDENTIALS, "counter", "instance credentials issued"),
    MetricSpec(DEPLOY_DURATION, "histogram", "wall seconds per deployment"),
    MetricSpec(COHERENCE_ACQUIRES, "counter", "outermost image acquires"),
    MetricSpec(COHERENCE_RELEASES, "counter", "outermost image releases"),
    MetricSpec(COHERENCE_IMAGES_PULLED, "counter", "images merged into views"),
    MetricSpec(COHERENCE_IMAGES_PUSHED, "counter", "images merged into originals"),
    MetricSpec(NET_LINK_BYTES_CARRIED, "counter",
               "payload bytes carried across links (per link hop)"),
    MetricSpec(NET_LINK_FRAMES_DROPPED, "counter",
               "frames eaten by lossy links"),
    MetricSpec(NET_MESSAGES_REROUTED, "counter",
               "in-flight frames re-sent after their route died"),
    MetricSpec(NET_BATCH_FLUSHES, "counter", "frame batches put on the wire"),
    MetricSpec(NET_BATCH_FLUSHES_SIZE, "counter",
               "batch flushes triggered by size/byte thresholds"),
    MetricSpec(NET_BATCH_FLUSHES_TICK, "counter",
               "batch flushes triggered by the flush window elapsing"),
    MetricSpec(NET_BATCH_FRAMES_COALESCED, "counter",
               "logical frames carried inside multi-frame batches"),
    MetricSpec(NET_BATCH_BYTES, "counter",
               "payload bytes sent through the batching path"),
    MetricSpec(NET_BATCH_OCCUPANCY, "histogram",
               "logical frames per flushed batch", COUNT_BUCKETS),
    MetricSpec(RPC_PIPELINE_CALLS, "counter",
               "remote calls issued through an RpcPipeline"),
    MetricSpec(RPC_PIPELINE_DEPTH, "histogram",
               "in-flight calls observed at pipeline issue time", COUNT_BUCKETS),
    MetricSpec(RPC_WAIT_TIMEOUTS, "counter",
               "PendingCall.wait deadlines exceeded"),
    MetricSpec(RPC_RETRIES, "counter", "RPC frames retransmitted"),
    MetricSpec(RPC_RETRIES_EXHAUSTED, "counter",
               "retried calls that gave up without a response"),
    MetricSpec(SWB_CHANNELS_REESTABLISHED, "counter",
               "channels re-established after heartbeat loss"),
    MetricSpec(SWB_RECONNECT_LATENCY, "histogram",
               "virtual seconds from channel death to re-establishment"),
    MetricSpec(REPO_FAILOVERS, "counter",
               "repository queries answered by a replica after shard failure"),
    MetricSpec(ADAPT_REPLANS, "counter",
               "environment changes that triggered session re-planning"),
    MetricSpec(ADAPT_REDEPLOYMENTS, "counter",
               "sessions redeployed onto a new plan"),
    MetricSpec(ADAPT_FAILURES, "counter",
               "re-planning attempts that found no admissible plan"),
    MetricSpec(FAULTS_INJECTED_LINK, "counter", "link faults injected"),
    MetricSpec(FAULTS_INJECTED_PARTITION, "counter", "partition faults injected"),
    MetricSpec(FAULTS_INJECTED_NODE, "counter", "node-crash faults injected"),
    MetricSpec(FAULTS_INJECTED_LATENCY, "counter", "latency-spike faults injected"),
    MetricSpec(FAULTS_INJECTED_LOSS, "counter", "loss-burst faults injected"),
    MetricSpec(FAULTS_INJECTED_REVOCATION, "counter",
               "revocation storms injected"),
    MetricSpec(FAULTS_RECOVERED_LINK, "counter",
               "link faults healed with service recovered"),
    MetricSpec(FAULTS_RECOVERED_PARTITION, "counter",
               "partitions healed with service recovered"),
    MetricSpec(FAULTS_RECOVERED_NODE, "counter",
               "node crashes recovered (restart + re-plan)"),
    MetricSpec(FAULTS_RECOVERED_LATENCY, "counter",
               "latency spikes ridden out"),
    MetricSpec(FAULTS_RECOVERED_LOSS, "counter", "loss bursts ridden out"),
    MetricSpec(FAULTS_RECOVERED_REVOCATION, "counter",
               "revocation storms recovered by re-issuance"),
    MetricSpec(FAULTS_RECOVERY_LATENCY, "histogram",
               "virtual seconds from fault injection to verified recovery"),
    MetricSpec(FAULTS_INJECTED_RESTART, "counter",
               "crash-restart faults injected (volatile state dropped)"),
    MetricSpec(DURABLE_WAL_APPENDS, "counter", "WAL records appended"),
    MetricSpec(DURABLE_WAL_BYTES, "counter", "framed WAL bytes written"),
    MetricSpec(DURABLE_WAL_RECORDS, "gauge",
               "WAL records accumulated since the last snapshot"),
    MetricSpec(DURABLE_SNAPSHOTS, "counter",
               "snapshots installed by WAL compaction"),
    MetricSpec(DURABLE_TORN_TAILS, "counter",
               "recoveries that found a torn WAL tail"),
    MetricSpec(DURABLE_TORN_BYTES, "counter",
               "unusable torn-tail bytes discarded at recovery"),
    MetricSpec(RECOVER_RESTARTS, "counter", "node recovery passes completed"),
    MetricSpec(RECOVER_REPLAYED, "counter",
               "WAL records replayed during recovery"),
    MetricSpec(RECOVER_CATCHUP, "counter",
               "missed updates pulled from a live replica at recovery"),
    MetricSpec(RECOVER_CACHE_EVICTED, "counter",
               "cache entries evicted as unprovable from durable state"),
    MetricSpec(RECOVER_CACHE_KEPT, "counter",
               "cache entries revalidated and re-watched after recovery"),
    MetricSpec(RECOVER_WORK, "histogram",
               "deterministic work units per recovery pass", COUNT_BUCKETS),
    MetricSpec(RECOVER_SHARD_REBUILDS, "counter",
               "repository shards rebuilt from replicas after data loss"),
    MetricSpec(TRACE_DROPPED, "counter",
               "finished root spans evicted by the tracer retention bound"),
    MetricSpec(FLOW_ADMITTED, "counter",
               "requests admitted past flow-control admission"),
    MetricSpec(FLOW_SHED, "counter",
               "requests refused by flow-control admission"),
    MetricSpec(FLOW_BUCKET_DENIED, "counter",
               "admissions refused by a per-principal token bucket"),
    MetricSpec(FLOW_QUEUE_DEPTH, "histogram",
               "fair-queue backlog observed at each admission", COUNT_BUCKETS),
    MetricSpec(FLOW_QUEUE_WAIT, "histogram",
               "virtual seconds admitted requests spent queued"),
    MetricSpec(FLOW_SERVICE_BUSY, "gauge",
               "service worker slots currently occupied"),
    MetricSpec(CHECK_OPS, "counter", "simtest operations executed"),
    MetricSpec(CHECK_COMPARISONS, "counter",
               "simtest oracle comparisons performed"),
    MetricSpec(CHECK_DIVERGENCES, "counter",
               "simtest runs stopped by an oracle divergence"),
    MetricSpec(CHECK_RPC_NET_FAILURES, "counter",
               "simtest RPC ops that failed at the network layer "
               "(admissible only under chaos)"),
    MetricSpec(CHECK_SHRINK_PROBES, "counter",
               "candidate traces executed while delta-debugging"),
    MetricSpec(CHECK_SHRINK_REMOVED, "counter",
               "operations removed from failing traces by the shrinker"),
)


def catalogue_by_name() -> dict[str, MetricSpec]:
    """Name → spec; raises if the catalogue itself carries duplicates."""
    out: dict[str, MetricSpec] = {}
    for spec in CATALOGUE:
        if spec.name in out:
            raise ValueError(f"metric {spec.name!r} catalogued twice")
        out[spec.name] = spec
    return out
