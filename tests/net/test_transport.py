"""Transport tests: delivery timing, eavesdropping surface, stats."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import LinkDownError
from repro.net.events import EventScheduler
from repro.net.simnet import Network
from repro.net.transport import Transport


@pytest.fixture()
def world():
    net = Network()
    for name in ("a", "b", "c"):
        net.add_node(name)
    net.add_link("a", "b", latency_s=0.010, secure=True)
    net.add_link("b", "c", latency_s=0.020, secure=False)
    scheduler = EventScheduler()
    return net, scheduler, Transport(net, scheduler)


class TestDelivery:
    def test_delivers_payload_to_service(self, world):
        net, scheduler, transport = world
        got = []
        net.node("b").bind("svc", lambda p, s: got.append((p, s)))
        transport.send("a", "b", "svc", b"ping")
        scheduler.run()
        assert got == [(b"ping", "a")]

    @pytest.mark.parametrize("batching", [False, True])
    def test_sender_span_context_rides_beside_the_payload(self, world, batching):
        net, scheduler, transport = world
        if batching:
            transport.configure_batching(window=0.001)
        got = []
        net.node("b").bind(
            "svc", lambda p, s: got.append((p, transport.delivery_ctx))
        )
        with obs.scoped(enabled=True):
            transport.send("a", "b", "svc", b"bare")
            with obs.span("request") as root:
                transport.send("a", "b", "svc", b"traced")
            scheduler.run()
        assert got == [(b"bare", None), (b"traced", root.context())]
        assert transport.delivery_ctx is None
        assert transport.stats.bytes_sent == len(b"bare") + len(b"traced")

    def test_delay_matches_path(self, world):
        net, scheduler, transport = world
        times = []
        net.node("c").bind("svc", lambda p, s: times.append(scheduler.now()))
        transport.send("a", "c", "svc", b"")
        scheduler.run()
        assert times[0] == pytest.approx(0.030, rel=0.01)

    def test_send_down_link_raises(self, world):
        net, scheduler, transport = world
        net.link("a", "b").up = False
        net.node("b").bind("svc", lambda p, s: None)
        with pytest.raises(LinkDownError):
            transport.send("a", "b", "svc", b"")

    def test_missing_service_counts_drop(self, world):
        net, scheduler, transport = world
        errors = []
        transport.send("a", "b", "ghost", b"", on_dropped=errors.append)
        scheduler.run()
        assert transport.stats.messages_dropped == 1
        assert errors

    def test_stats_track_bytes(self, world):
        net, scheduler, transport = world
        net.node("b").bind("svc", lambda p, s: None)
        transport.send("a", "b", "svc", b"12345")
        assert transport.stats.bytes_sent == 5

    def test_link_byte_accounting(self, world):
        net, scheduler, transport = world
        net.node("c").bind("svc", lambda p, s: None)
        transport.send("a", "c", "svc", b"xyz")
        assert net.link("a", "b").bytes_carried == 3
        assert net.link("b", "c").bytes_carried == 3


class TestEavesdropping:
    def test_insecure_link_observed(self, world):
        net, scheduler, transport = world
        net.node("c").bind("svc", lambda p, s: None)
        snoops = []
        transport.observe_link("b", "c", lambda p, src, dst: snoops.append(p))
        transport.send("a", "c", "svc", b"visible")
        assert snoops == [b"visible"]

    def test_secure_link_not_observed(self, world):
        net, scheduler, transport = world
        net.node("b").bind("svc", lambda p, s: None)
        snoops = []
        transport.observe_link("a", "b", lambda p, src, dst: snoops.append(p))
        transport.send("a", "b", "svc", b"hidden")
        assert snoops == []

    def test_detach_observer(self, world):
        net, scheduler, transport = world
        net.node("c").bind("svc", lambda p, s: None)
        snoops = []
        detach = transport.observe_link("b", "c", lambda p, src, dst: snoops.append(p))
        detach()
        transport.send("a", "c", "svc", b"x")
        assert snoops == []

    def test_observer_on_unknown_link_rejected(self, world):
        net, scheduler, transport = world
        with pytest.raises(Exception):
            transport.observe_link("a", "zz", lambda p, s, d: None)
