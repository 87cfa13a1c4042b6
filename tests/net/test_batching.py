"""Frame batching: coalescing, flush triggers, fault behaviour, snooping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import LinkDownError, NetworkError
from repro.net.events import EventScheduler
from repro.net.simnet import Network
from repro.net.transport import (
    BatchConfig,
    Transport,
    decode_batch,
    encode_batch,
)
from repro.obs import names as metric_names


@pytest.fixture()
def world():
    net = Network()
    for name in ("a", "b"):
        net.add_node(name)
    net.add_link("a", "b", latency_s=0.010, bandwidth_bps=1e6, secure=False)
    scheduler = EventScheduler()
    return net, scheduler, Transport(net, scheduler)


class TestEnvelope:
    def test_round_trip(self):
        frames = [("svc", b"one"), ("other", b""), ("svc", b"\x00" * 100)]
        assert decode_batch(encode_batch(frames)) == frames

    def test_rejects_non_batch(self):
        with pytest.raises(NetworkError):
            decode_batch(b"plain payload")

    def test_config_validation(self):
        with pytest.raises(NetworkError):
            BatchConfig(max_frames=0)
        with pytest.raises(NetworkError):
            BatchConfig(window=-1.0)


frames_strategy = st.lists(
    st.tuples(st.text(max_size=12), st.binary(max_size=40)), min_size=1, max_size=6
)


class TestDecodeIsTotal:
    """``decode_batch`` accepts exactly what ``encode_batch`` produces."""

    wire = encode_batch([("rpc", b"world")])

    def test_truncated_batch_is_rejected(self):
        with pytest.raises(NetworkError):
            decode_batch(self.wire[:-2])

    def test_trailing_bytes_are_rejected(self):
        with pytest.raises(NetworkError):
            decode_batch(self.wire + b"!")

    def test_non_utf8_service_name_is_rejected(self):
        with pytest.raises(NetworkError):
            decode_batch(b"RBAT1\x00\x01\x00\x01\xff\x00\x00\x00\x00")

    def test_count_without_entries_is_rejected(self):
        with pytest.raises(NetworkError):
            decode_batch(b"RBAT1\x00\x05")

    @settings(max_examples=200, deadline=None)
    @given(frames=frames_strategy, data=st.data())
    def test_mutants_raise_or_round_trip(self, frames, data):
        wire = bytearray(encode_batch(frames))
        for _ in range(data.draw(st.integers(1, 4))):
            kind = data.draw(st.sampled_from(["flip", "truncate", "append"]))
            if kind == "flip" and wire:
                at = data.draw(st.integers(0, len(wire) - 1))
                wire[at] ^= data.draw(st.integers(1, 255))
            elif kind == "truncate":
                del wire[data.draw(st.integers(0, len(wire))):]
            else:
                wire += data.draw(st.binary(min_size=1, max_size=8))
        mutant = bytes(wire)
        try:
            decoded = decode_batch(mutant)
        except NetworkError:
            return
        assert encode_batch(decoded) == mutant


class TestWireBytes:
    @settings(max_examples=60, deadline=None)
    @given(frames=frames_strategy)
    def test_link_carries_exactly_the_encoded_batch(self, frames):
        net = Network()
        for name in ("a", "b"):
            net.add_node(name)
        net.add_link("a", "b")
        scheduler = EventScheduler()
        transport = Transport(net, scheduler)
        transport.configure_batching(max_frames=16, window=0.01)
        for service, payload in frames:
            net.node("b").bind(service, lambda p, s: None)
            transport.send("a", "b", service, payload)
        scheduler.run()
        expected = (
            len(encode_batch(frames)) if len(frames) > 1 else len(frames[0][1])
        )
        assert net.link("a", "b").bytes_carried == expected


class TestCoalescing:
    def test_burst_shares_one_wire_transfer(self, world):
        net, scheduler, transport = world
        transport.configure_batching(max_frames=16, window=0.005)
        got = []
        net.node("b").bind("svc", lambda p, s: got.append(p))
        for index in range(5):
            transport.send("a", "b", "svc", b"m%d" % index)
        scheduler.run()
        assert got == [b"m0", b"m1", b"m2", b"m3", b"m4"]
        assert transport.stats.batches_sent == 1
        assert transport.stats.frames_coalesced == 5
        assert net.link("a", "b").batches_carried == 1

    def test_flow_order_preserved(self, world):
        net, scheduler, transport = world
        transport.configure_batching(max_frames=2, window=0.01)
        got = []
        net.node("b").bind("svc", lambda p, s: got.append(p))
        for index in range(7):
            transport.send("a", "b", "svc", b"%d" % index)
        scheduler.run()
        assert got == [b"0", b"1", b"2", b"3", b"4", b"5", b"6"]

    def test_flush_on_max_frames(self, world):
        net, scheduler, transport = world
        transport.configure_batching(max_frames=3, window=10.0)
        net.node("b").bind("svc", lambda p, s: None)
        with obs.scoped() as registry:
            for _ in range(3):
                transport.send("a", "b", "svc", b"x")
            # The size threshold flushed without waiting for the window.
            assert registry.counter_value(metric_names.NET_BATCH_FLUSHES_SIZE) == 1
            assert transport.stats.batches_sent == 1

    def test_flush_on_max_bytes(self, world):
        net, scheduler, transport = world
        transport.configure_batching(max_frames=100, max_bytes=10, window=10.0)
        net.node("b").bind("svc", lambda p, s: None)
        transport.send("a", "b", "svc", b"x" * 6)
        assert transport.stats.batches_sent == 0
        transport.send("a", "b", "svc", b"y" * 6)
        assert transport.stats.batches_sent == 1

    def test_flush_on_window_tick(self, world):
        net, scheduler, transport = world
        transport.configure_batching(max_frames=100, window=0.05)
        got = []
        net.node("b").bind("svc", lambda p, s: got.append(scheduler.now()))
        transport.send("a", "b", "svc", b"x")
        transport.send("a", "b", "svc", b"y")
        with obs.scoped() as registry:
            scheduler.run()
            assert registry.counter_value(metric_names.NET_BATCH_FLUSHES_TICK) == 1
        assert len(got) == 2
        assert got[0] >= 0.05  # queued for the window before the wire delay

    def test_single_frame_batch_is_plain_payload(self, world):
        # A lone frame must not pay the envelope: wire bytes and handler
        # payload are exactly the original frame.
        net, scheduler, transport = world
        transport.configure_batching(max_frames=8, window=0.001)
        got = []
        net.node("b").bind("svc", lambda p, s: got.append(p))
        transport.send("a", "b", "svc", b"solo")
        scheduler.run()
        assert got == [b"solo"]
        assert transport.stats.batches_sent == 0

    def test_disable_batching_returns_to_per_frame(self, world):
        net, scheduler, transport = world
        transport.configure_batching(max_frames=8, window=0.01)
        transport.disable_batching()
        net.node("b").bind("svc", lambda p, s: None)
        transport.send("a", "b", "svc", b"x")
        transport.send("a", "b", "svc", b"y")
        scheduler.run()
        assert transport.stats.batches_sent == 0
        assert transport.stats.messages_delivered == 2


class TestFaults:
    def test_send_still_raises_when_link_down(self, world):
        net, scheduler, transport = world
        transport.configure_batching(max_frames=8, window=0.01)
        net.link("a", "b").up = False
        with pytest.raises(LinkDownError):
            transport.send("a", "b", "svc", b"x")

    def test_link_down_mid_batch_fails_every_frame(self, world):
        # The route dies between enqueue and flush: every queued frame
        # must fire its drop callback instead of hanging forever.
        net, scheduler, transport = world
        transport.configure_batching(max_frames=8, window=0.05)
        net.node("b").bind("svc", lambda p, s: None)
        dropped = []
        for index in range(3):
            transport.send(
                "a", "b", "svc", b"m%d" % index, on_dropped=dropped.append
            )
        net.link("a", "b").up = False
        scheduler.run()
        assert len(dropped) == 3
        assert all(isinstance(exc, LinkDownError) for exc in dropped)
        assert transport.stats.messages_dropped == 3
        assert transport.stats.messages_delivered == 0

    def test_loss_eats_whole_batch(self, world):
        net, scheduler, transport = world
        transport.configure_batching(max_frames=8, window=0.01)
        net.node("b").bind("svc", lambda p, s: None)
        net.link("a", "b").loss_rate = 1.0
        for _ in range(4):
            transport.send("a", "b", "svc", b"x")
        scheduler.run()
        # One wire frame lost -> all four logical frames lost together.
        assert transport.stats.messages_lost == 4
        assert net.link("a", "b").frames_dropped == 1


class TestVisibility:
    def test_snoop_sees_logical_frames_not_batches(self, world):
        net, scheduler, transport = world
        transport.configure_batching(max_frames=8, window=0.01)
        net.node("b").bind("svc", lambda p, s: None)
        seen = []
        transport.observe_link("a", "b", lambda p, src, dst: seen.append(p))
        transport.send("a", "b", "svc", b"first")
        transport.send("a", "b", "svc", b"second")
        scheduler.run()
        # An eavesdropper on the insecure link reads the same plaintext
        # frames with batching on or off — coalescing is not encryption.
        assert seen == [b"first", b"second"]
