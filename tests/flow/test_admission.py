"""End-to-end flow control over the RPC wire: sheds with retry-after,
exempt monitor class, retrying clients that honor the hint, and the
client-side circuit breaker."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import RpcShedError
from repro.faults.retry import RetryPolicy
from repro.flow import PRIO_MONITOR, AimdLimiter, FlowConfig
from repro.hermetic import hermetic_counters
from repro.net.events import EventScheduler
from repro.net.simnet import Network
from repro.net.transport import Transport
from repro.obs import names as metric_names
from repro.switchboard.rpc import PlainRpcEndpoint


class Service:
    """Method names chosen so the default classifier spreads them across
    all four priority classes."""

    def revalidate(self, token):
        return f"ok-{token}"

    def check_access(self, subject):
        return True

    def get_entry(self, key):
        return f"v-{key}"

    def put_blob(self, key, size):
        return size


def _world(flow: FlowConfig | None, *, client_flow: FlowConfig | None = None):
    scheduler = EventScheduler()
    obs.set_tracer_clock(scheduler)
    network = Network()
    network.add_node("server", domain="T")
    network.add_node("client", domain="T")
    network.add_link("client", "server", latency_s=0.001, bandwidth_bps=8e6,
                     secure=False)
    transport = Transport(network, scheduler, loss_seed=1)
    server = PlainRpcEndpoint(transport, "server", flow=flow)
    service = Service()
    for name in ("RevocationMonitor", "Authorizer", "Registry", "BlobStore"):
        server.exporter.export(name, service)
    client = PlainRpcEndpoint(transport, "client", flow=client_flow)
    return scheduler, transport, server, client


def _tight_flow(**overrides) -> FlowConfig:
    base = dict(
        enabled=True,
        service_time_s=0.0,
        bucket_rate=10.0,
        bucket_burst=2.0,
        max_backlog=4,
        retry_after_s=0.05,
    )
    base.update(overrides)
    return FlowConfig(**base)


class TestShedding:
    def test_burst_past_the_bucket_is_shed_with_retry_after(self):
        with hermetic_counters(), obs.scoped(enabled=True) as registry:
            scheduler, _t, _server, client = _world(_tight_flow())
            calls = [
                client.call("server", "Registry", "get_entry", [f"k{n}"])
                for n in range(5)
            ]
            scheduler.run()
            outcomes = []
            for pending in calls:
                try:
                    outcomes.append(pending.value)
                except RpcShedError as exc:
                    outcomes.append(exc)
            served = [o for o in outcomes if isinstance(o, str)]
            sheds = [o for o in outcomes if isinstance(o, RpcShedError)]
            assert len(served) == 2  # the burst allowance
            assert len(sheds) == 3
            for shed in sheds:
                assert shed.retry_after > 0
            assert registry.counter_value(metric_names.FLOW_SHED) == 3
            assert registry.counter_value(metric_names.FLOW_BUCKET_DENIED) == 3

    def test_backlog_cap_sheds_when_slots_are_saturated(self):
        flow = _tight_flow(
            service_time_s=0.05, workers=1, max_backlog=2,
            bucket_rate=1e9, bucket_burst=1e9,
        )
        with hermetic_counters(), obs.scoped(enabled=True):
            scheduler, _t, server, client = _world(flow)
            calls = [
                client.call("server", "BlobStore", "put_blob", [f"k{n}", 8])
                for n in range(8)
            ]
            scheduler.run()
            sheds = sum(
                1 for p in calls if isinstance(p._exception, RpcShedError)
            )
            assert sheds > 0
            controller = server.controller
            assert controller is not None
            assert controller.sheds == sheds
            assert all(s.retry_after == flow.retry_after_s
                       for s in [p._exception for p in calls
                                 if isinstance(p._exception, RpcShedError)])

    def test_monitor_class_is_never_shed(self):
        """Revocation/monitor traffic bypasses the bucket and the backlog
        cap: shedding the messages that revoke bad credentials would
        invert the security posture."""
        with hermetic_counters(), obs.scoped(enabled=True):
            scheduler, _t, server, client = _world(
                _tight_flow(service_time_s=0.01, workers=1, max_backlog=1)
            )
            calls = [
                client.call("server", "RevocationMonitor", "revalidate", [f"t{n}"])
                for n in range(20)
            ]
            scheduler.run()
            assert all(p.value == f"ok-t{n}" for n, p in enumerate(calls))
            controller = server.controller
            assert controller is not None
            assert controller.shed_by_class[PRIO_MONITOR] == 0

    def test_flow_disabled_config_still_models_service_time(self):
        """enabled=False keeps the service model but never sheds — the
        bench's unprotected arm."""
        flow = _tight_flow(enabled=False, service_time_s=0.01, workers=1)
        with hermetic_counters(), obs.scoped(enabled=True):
            scheduler, _t, server, client = _world(flow)
            calls = [
                client.call("server", "Registry", "get_entry", [f"k{n}"])
                for n in range(10)
            ]
            scheduler.run()
            assert all(p.value == f"v-k{n}" for n, p in enumerate(calls))
            assert server.controller is not None
            assert server.controller.sheds == 0
            # Ten requests through one 10ms slot: the makespan shows the
            # queue, not instantaneous dispatch.
            assert scheduler.now() >= 0.1

    def test_no_flow_config_means_no_controller(self):
        with hermetic_counters(), obs.scoped(enabled=True):
            scheduler, _t, server, client = _world(None)
            pending = client.call("server", "Registry", "get_entry", ["k"])
            scheduler.run()
            assert pending.value == "v-k"
            assert server.controller is None
            assert server.flow is None


class TestRetryAfterHonored:
    def test_call_with_retry_waits_out_the_hint_and_succeeds(self):
        with hermetic_counters(), obs.scoped(enabled=True) as registry:
            scheduler, _t, _server, client = _world(
                _tight_flow(bucket_rate=10.0, bucket_burst=1.0)
            )
            # Drain the burst allowance so the retried call is shed first.
            first = client.call("server", "Registry", "get_entry", ["warm"])
            retried = client.call_with_retry(
                "server", "Registry", "get_entry", ["wanted"],
                policy=RetryPolicy.fixed(0.02, 8),
            )
            scheduler.run()
            assert first.value == "v-warm"
            assert retried.value == "v-wanted"
            assert registry.counter_value(
                metric_names.FLOW_RETRY_AFTER_HONORED
            ) >= 1

    def test_bucket_shed_hint_is_honest_so_the_parked_retry_succeeds(self):
        """A bucket shed's retry-after is the exact refill time: the
        retried call parks that long, retransmits once, and lands."""
        with hermetic_counters(), obs.scoped(enabled=True):
            scheduler, _t, _server, client = _world(
                _tight_flow(bucket_rate=0.5, bucket_burst=1.0)
            )
            client.call("server", "Registry", "get_entry", ["warm"])
            retried = client.call_with_retry(
                "server", "Registry", "get_entry", ["parked"],
                policy=RetryPolicy.fixed(0.01, 3),
            )
            scheduler.run()
            assert retried.value == "v-parked"
            # The park dominated the makespan: ~2s until the refill, far
            # beyond the 0.01s retry cadence.
            assert scheduler.now() >= 2.0

    def test_exhausted_retries_after_sheds_raise_typed_error(self):
        """Against a server that stays saturated, every retry is shed and
        the exhausted call surfaces a typed RpcShedError, not a generic
        no-response failure."""
        flow = _tight_flow(
            bucket_rate=1e9, bucket_burst=1e9, service_time_s=10.0, workers=1,
            max_backlog=1,
        )
        with hermetic_counters(), obs.scoped(enabled=True):
            scheduler, _t, _server, client = _world(flow)
            # One call serving for 10s, one parked in the only backlog slot.
            client.call("server", "BlobStore", "put_blob", ["a", 1])
            client.call("server", "BlobStore", "put_blob", ["b", 1])
            retried = client.call_with_retry(
                "server", "BlobStore", "put_blob", ["c", 1],
                policy=RetryPolicy.fixed(0.01, 2),
            )
            retried.wait_done()
            with pytest.raises(RpcShedError) as excinfo:
                retried.value
            assert excinfo.value.retry_after > 0


class TestCircuitBreaker:
    def test_transport_failures_trip_the_breaker(self):
        client_cfg = FlowConfig(
            enabled=True, breaker_failures=3, breaker_open_s=0.5
        )
        with hermetic_counters(), obs.scoped(enabled=True) as registry:
            scheduler = EventScheduler()
            obs.set_tracer_clock(scheduler)
            network = Network()
            network.add_node("client", domain="T")
            # No route to "server" at all: every send raises NetworkError.
            transport = Transport(network, scheduler, loss_seed=1)
            client = PlainRpcEndpoint(transport, "client", flow=client_cfg)
            for _ in range(3):
                pending = client.call("server", "Registry", "get_entry", ["k"])
                assert pending.done
            before = transport.stats.messages_sent
            refused = client.call("server", "Registry", "get_entry", ["k"])
            assert isinstance(refused._exception, RpcShedError)
            assert refused._exception.retry_after > 0
            # Refused locally: nothing new touched the wire.
            assert transport.stats.messages_sent == before
            assert registry.counter_value(
                metric_names.FLOW_BREAKER_SHORT_CIRCUITS
            ) == 1
            assert registry.counter_value(metric_names.FLOW_BREAKER_OPENS) == 1

    def test_half_open_probe_recovers_after_the_link_heals(self):
        client_cfg = FlowConfig(
            enabled=True, breaker_failures=2, breaker_open_s=0.1
        )
        with hermetic_counters(), obs.scoped(enabled=True):
            scheduler = EventScheduler()
            obs.set_tracer_clock(scheduler)
            network = Network()
            network.add_node("client", domain="T")
            network.add_node("server", domain="T")
            transport = Transport(network, scheduler, loss_seed=1)
            client = PlainRpcEndpoint(transport, "client", flow=client_cfg)
            for _ in range(2):
                client.call("server", "Registry", "get_entry", ["k"])
            assert isinstance(
                client.call("server", "Registry", "get_entry", ["k"])._exception,
                RpcShedError,
            )
            # Heal: add the missing link, let the open interval expire.
            network.add_link("client", "server", latency_s=0.001,
                             bandwidth_bps=8e6, secure=False)
            server = PlainRpcEndpoint(transport, "server")
            server.exporter.export("Registry", Service())
            scheduler.schedule(0.2, lambda: None)
            scheduler.run()
            probe = client.call("server", "Registry", "get_entry", ["back"])
            scheduler.run()
            assert probe.value == "v-back"
            # Closed again: the next call flows normally.
            follow_up = client.call("server", "Registry", "get_entry", ["again"])
            scheduler.run()
            assert follow_up.value == "v-again"

    def test_plain_calls_without_flow_never_consult_a_breaker(self):
        with hermetic_counters(), obs.scoped(enabled=True) as registry:
            scheduler = EventScheduler()
            obs.set_tracer_clock(scheduler)
            network = Network()
            network.add_node("client", domain="T")
            transport = Transport(network, scheduler, loss_seed=1)
            client = PlainRpcEndpoint(transport, "client")
            for _ in range(10):
                client.call("server", "Registry", "get_entry", ["k"])
            assert registry.counter_value(
                metric_names.FLOW_BREAKER_SHORT_CIRCUITS
            ) == 0
            assert not client._breakers


class TestPipelineBackpressure:
    def test_limiter_clamps_the_issue_window(self):
        with hermetic_counters(), obs.scoped(enabled=True):
            scheduler, _t, _server, client = _world(None)
            limiter = AimdLimiter(
                scheduler, initial=4, min_limit=1, max_limit=8,
                target_latency_s=1.0,
            )
            pipeline = client.pipeline(
                "server", "Registry", depth=8, limiter=limiter
            )
            assert pipeline.window == 4
            limiter.observe(0.01, ok=False)
            assert limiter.limit == 2
            assert pipeline.window == 2

    def test_served_latencies_feed_the_limiter(self):
        flow = _tight_flow(
            bucket_rate=1e9, bucket_burst=1e9, service_time_s=0.2, workers=1,
            max_backlog=64,
        )
        with hermetic_counters(), obs.scoped(enabled=True):
            scheduler, _t, _server, client = _world(flow)
            limiter = AimdLimiter(
                scheduler, initial=8, min_limit=1, max_limit=8,
                # Queue wait behind the 0.2s slot blows this budget.
                target_latency_s=0.05,
            )
            pipeline = client.pipeline(
                "server", "Registry", depth=8, limiter=limiter
            )
            for n in range(12):
                pipeline.call("get_entry", [f"k{n}"])
            pipeline.drain()
            assert limiter.backoffs >= 1
            assert limiter.limit < 8
