"""Failure injection: lossy links, retries, and liveness detection."""

from __future__ import annotations

import pytest

from repro.faults import RetryPolicy
from repro.net import EventScheduler, Network, Transport
from repro.switchboard import PlainRpcEndpoint, RemoteError


class Counter:
    def __init__(self):
        self.calls = 0

    def bump(self):
        self.calls += 1
        return self.calls

    def ping(self):
        return "pong"


def make_world(loss_rate: float, *, seed: int = 7):
    net = Network()
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", latency_s=0.01, loss_rate=loss_rate)
    scheduler = EventScheduler()
    transport = Transport(net, scheduler, loss_seed=seed)
    client = PlainRpcEndpoint(transport, "a")
    server = PlainRpcEndpoint(transport, "b")
    service = Counter()
    server.exporter.export("svc", service)
    return net, scheduler, transport, client, service


class TestLossyLinks:
    def test_zero_loss_never_drops(self):
        net, scheduler, transport, client, _ = make_world(0.0)
        for _ in range(20):
            assert client.call_sync("b", "svc", "ping") == "pong"
        assert transport.stats.messages_lost == 0

    def test_full_loss_drops_everything(self):
        net, scheduler, transport, client, _ = make_world(1.0)
        pending = client.call("b", "svc", "ping")
        scheduler.run()
        assert not pending.done
        assert transport.stats.messages_lost == 1
        assert net.link("a", "b").frames_dropped == 1

    def test_loss_is_deterministic_per_seed(self):
        results = []
        for _ in range(2):
            net, scheduler, transport, client, _ = make_world(0.5, seed=42)
            for _ in range(30):
                try:
                    client.call("b", "svc", "ping")
                except Exception:
                    pass
            scheduler.run()
            results.append(transport.stats.messages_lost)
        assert results[0] == results[1]

    def test_eavesdropper_sees_frames_before_drop(self):
        net, scheduler, transport, client, _ = make_world(1.0)
        net.link("a", "b").secure = False
        snoops = []
        transport.observe_link("a", "b", lambda p, s, d: snoops.append(p))
        client.call("b", "svc", "ping")
        assert snoops  # observed even though the frame was then lost


class TestRetries:
    def test_retry_recovers_from_loss(self):
        net, scheduler, transport, client, service = make_world(0.5, seed=3)
        pending = client.call_with_retry(
            "b", "svc", "ping", policy=RetryPolicy.fixed(0.1, 10)
        )
        assert pending.wait() == "pong"

    def test_retries_exhausted_fails(self):
        net, scheduler, transport, client, _ = make_world(1.0)
        pending = client.call_with_retry("b", "svc", "ping", policy=RetryPolicy.fixed(0.1, 2))
        scheduler.run()
        assert pending.done
        with pytest.raises(RemoteError, match="after 3 attempts"):
            _ = pending.value

    def test_at_least_once_may_duplicate(self):
        """The documented semantics: a lost *response* triggers a resend,
        so the remote method can run more than once."""
        net, scheduler, transport, client, service = make_world(0.35, seed=11)
        pending = client.call_with_retry("b", "svc", "bump", policy=RetryPolicy.fixed(0.1, 20))
        value = pending.wait()
        assert value >= 1
        assert service.calls >= 1  # executed at least once; maybe more

    def test_no_retry_needed_on_clean_link(self):
        net, scheduler, transport, client, service = make_world(0.0)
        pending = client.call_with_retry("b", "svc", "bump", policy=RetryPolicy.fixed(0.1, 3))
        assert pending.wait() == 1
        scheduler.run()  # drain the armed timeout check
        assert service.calls == 1  # exactly one execution, no spurious resend
