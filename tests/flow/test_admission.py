"""End-to-end server admission over the RPC wire: sheds with
retry-after, the exempt monitor class, and a shed ending a retried call
as it ends a plain one."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import RpcShedError
from repro.faults.retry import RetryPolicy
from repro.flow import PRIO_MONITOR, FlowConfig
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


def _world(flow: FlowConfig | None):
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
    client = PlainRpcEndpoint(transport, "client")
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


class TestShedEndsARetriedCall:
    def test_at_once_with_the_servers_hint(self):
        """A shed is an answer: it ends a retried call at once, exactly
        as it ends a plain one, with the server's retry-after hint, and
        no retransmission follows."""
        with hermetic_counters(), obs.scoped(enabled=True) as registry:
            scheduler, transport, _server, client = _world(
                _tight_flow(bucket_rate=0.5, bucket_burst=1.0)
            )
            # Drain the burst allowance so the retried call is shed.
            first = client.call("server", "Registry", "get_entry", ["warm"])
            retried = client.call_with_retry(
                "server", "Registry", "get_entry", ["wanted"],
                policy=RetryPolicy.fixed(0.01, 8),
            )
            retried.wait_done()
            # One round trip, well inside the first 0.01 s retry interval.
            assert scheduler.now() < 0.01
            with pytest.raises(RpcShedError) as excinfo:
                retried.value
            # The bucket refills one token in 1 / 0.5 s.
            assert excinfo.value.retry_after == pytest.approx(2.0, abs=0.01)
            scheduler.run()
            assert first.value == "v-warm"
            assert registry.counter_value(metric_names.RPC_RETRIES) == 0
            assert transport.stats.messages_sent == 4  # two calls, two answers
            assert len(client.calls) == 0
