"""Message transport over the simulated network.

Routes frames along shortest paths, charges per-link latency plus
serialization delay on the virtual clock, and exposes the eavesdropping
surface of insecure links: any observer registered on a link sees every
frame that crosses it when ``secure=False``.  Switchboard's encrypted
frames render that observation useless; plaintext RMI-style frames do not
— which is the behavioural difference the paper's encryptor/decryptor
deployment exists to fix.

**Frame batching** (:meth:`Transport.configure_batching`) coalesces
logical frames that share a (src, dst) flow into one wire-level batch:
frames queue for at most ``window`` virtual seconds and flush early when
``max_frames`` or ``max_bytes`` is reached, so a pipelined burst of small
RPC frames crosses the WAN as a single transfer instead of a storm of
per-frame events.  Delivery order within a flow is preserved, loss and
reroute decisions apply to the whole batch (one wire frame), and each
logical frame still reaches its own service handler — application-level
results are byte-identical with batching on or off, which
``tests/load/test_pipeline_differential.py`` asserts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .. import obs
from ..errors import LinkDownError, NetworkError
from ..obs import names as metric_names
from .events import EventScheduler
from .simnet import Network, Route, SimLink

Observer = Callable[[bytes, str, str], None]
"""Eavesdropper callback: (payload, src node, dst node)."""

DropCallback = Callable[[Exception], None]


@dataclass(slots=True)
class TransportStats:
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_lost: int = 0
    """Frames eaten by lossy links (failure injection)."""
    messages_rerouted: int = 0
    """Frames whose route died mid-flight and were re-sent another way."""
    bytes_sent: int = 0
    batches_sent: int = 0
    """Wire-level transfers that carried more than one logical frame."""
    frames_coalesced: int = 0
    """Logical frames that shared a wire transfer with at least one other."""


@dataclass(slots=True)
class BatchConfig:
    """Flush policy for frame batching on one transport.

    A batch flushes when the oldest queued frame has waited ``window``
    virtual seconds (flush-on-tick), or immediately once ``max_frames``
    frames or ``max_bytes`` payload bytes are queued for one flow
    (flush-on-size).  ``window=0`` still coalesces: every frame queued
    within one scheduler event shares the flush scheduled behind it.
    """

    max_frames: int = 16
    max_bytes: int = 64 * 1024
    window: float = 0.0

    def __post_init__(self) -> None:
        if self.max_frames < 1:
            raise NetworkError("batch max_frames must be >= 1")
        if self.max_bytes < 1:
            raise NetworkError("batch max_bytes must be >= 1")
        if self.window < 0:
            raise NetworkError("batch window must be >= 0")


@dataclass(slots=True)
class _Entry:
    """One logical frame queued inside a batch."""

    service: str
    payload: bytes
    on_dropped: DropCallback | None
    ctx: tuple[int, int] | None = None
    """(trace_id, span_id) of the span active at enqueue time, so a
    deferred batch flush — which runs in a scheduler tick with an empty
    span stack — can still stitch its wire span into the issuing trace."""


def _finish_wire_span(span: obs.Span, deliver_at: float) -> None:
    """Close a wire-transfer span so its bar covers the in-flight window
    (virtual now → scheduled delivery) rather than the zero-width instant
    the transmit bookkeeping itself took."""
    span.finish()
    span.end = deliver_at


_BATCH_MAGIC = b"RBAT1"

#: Times a frame whose route died in flight is re-sent along a fresh one
#: before it is dropped.
MAX_REROUTES = 2


def encode_batch(entries: list[tuple[str, bytes]]) -> bytes:
    """Length-prefixed concatenation of (service, payload) frames."""
    parts = [_BATCH_MAGIC, len(entries).to_bytes(2, "big")]
    for service, payload in entries:
        name = service.encode()
        parts.append(len(name).to_bytes(2, "big"))
        parts.append(name)
        parts.append(len(payload).to_bytes(4, "big"))
        parts.append(payload)
    return b"".join(parts)


def decode_batch(wire: bytes) -> list[tuple[str, bytes]]:
    """Inverse of :func:`encode_batch`; raises :class:`NetworkError` on
    anything ``encode_batch`` could not have produced."""
    if wire[: len(_BATCH_MAGIC)] != _BATCH_MAGIC:
        raise NetworkError("not a batch frame")
    offset = len(_BATCH_MAGIC)

    def take(size: int) -> bytes:
        nonlocal offset
        if offset + size > len(wire):
            raise NetworkError("truncated batch frame")
        chunk = wire[offset : offset + size]
        offset += size
        return chunk

    count = int.from_bytes(take(2), "big")
    entries: list[tuple[str, bytes]] = []
    for _ in range(count):
        name = take(int.from_bytes(take(2), "big"))
        try:
            service = name.decode()
        except UnicodeDecodeError:
            raise NetworkError("batch service name is not UTF-8") from None
        entries.append((service, take(int.from_bytes(take(4), "big"))))
    if offset != len(wire):
        raise NetworkError("trailing bytes after batch frame")
    return entries


class Transport:
    """Datagram-style delivery between node services."""

    def __init__(
        self, network: Network, scheduler: EventScheduler, *, loss_seed: int = 0
    ) -> None:
        self.network = network
        self.scheduler = scheduler
        self.stats = TransportStats()
        self.batching: BatchConfig | None = None
        self._observers: dict[frozenset[str], list[Observer]] = {}
        self._flow_clock: dict[tuple[str, str], float] = {}
        self._queues: dict[tuple[str, str], list[_Entry]] = {}
        self._flush_scheduled: set[tuple[str, str]] = set()
        self._rng = random.Random(loss_seed)

    # -- batching control ---------------------------------------------------

    def configure_batching(self, config: BatchConfig | None = None, **kwargs) -> None:
        """Enable frame batching (``BatchConfig`` or its kwargs)."""
        self.batching = config if config is not None else BatchConfig(**kwargs)

    def disable_batching(self) -> None:
        """Stop coalescing; frames already queued flush on their schedule."""
        self.batching = None

    def observe_link(self, a: str, b: str, observer: Observer) -> Callable[[], None]:
        """Attach an eavesdropper to a link; returns a detach function.

        Observers only receive frames when the link is insecure — a secure
        (LAN/encrypted-at-layer-2) link hides traffic by assumption.
        """
        key = frozenset((a, b))
        self.network.link(a, b)  # validate existence
        self._observers.setdefault(key, []).append(observer)

        def detach() -> None:
            try:
                self._observers[key].remove(observer)
            except (KeyError, ValueError):
                pass

        return detach

    def send(
        self,
        src: str,
        dst: str,
        service: str,
        payload: bytes,
        *,
        on_dropped: Callable[[Exception], None] | None = None,
    ) -> float:
        """Queue a frame for delivery; returns the scheduled delay.

        Raises :class:`LinkDownError` (or :class:`NodeDownError`)
        immediately when no route exists at send time.  The route is
        re-checked at *delivery* time: a frame whose path died while in
        flight is re-sent along a fresh route (up to :data:`MAX_REROUTES`
        times, charging the new path's delay) instead of being delivered
        over a dead link; with no surviving route it is dropped and
        ``on_dropped`` fires with the routing error.

        With batching enabled the frame may share its wire transfer (and
        its loss/reroute fate) with other frames on the same flow; the
        returned delay is then the projected worst-case queueing delay.
        """
        # Route now in both modes, so callers keep their synchronous
        # LinkDownError/NodeDownError contract.
        route = self.network.route(src, dst)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(payload)
        self._snoop(route[1], payload, src, dst)
        entry = _Entry(service=service, payload=payload, on_dropped=on_dropped)
        if obs.dist_enabled():
            current = obs.get_tracer().current
            if current is not None:
                entry.ctx = current.context()
        if self.batching is None:
            return self._transmit(src, dst, [entry], route)
        return self._enqueue(src, dst, entry)

    # -- batching internals -------------------------------------------------

    def _enqueue(self, src: str, dst: str, entry: _Entry) -> float:
        config = self.batching
        assert config is not None
        flow = (src, dst)
        queue = self._queues.setdefault(flow, [])
        queue.append(entry)
        queued_bytes = sum(len(e.payload) for e in queue)
        if len(queue) >= config.max_frames or queued_bytes >= config.max_bytes:
            obs.counter(metric_names.NET_BATCH_FLUSHES_SIZE).inc()
            self._flush(flow)
            return 0.0
        if flow not in self._flush_scheduled:
            self._flush_scheduled.add(flow)

            def tick() -> None:
                if flow in self._flush_scheduled:
                    obs.counter(metric_names.NET_BATCH_FLUSHES_TICK).inc()
                    self._flush(flow)

            self.scheduler.schedule(config.window, tick)
        return config.window

    def _flush(self, flow: tuple[str, str]) -> None:
        """Put every frame queued for ``flow`` on the wire as one batch."""
        self._flush_scheduled.discard(flow)
        entries = self._queues.pop(flow, [])
        if not entries:
            return
        src, dst = flow
        obs.counter(metric_names.NET_BATCH_FLUSHES).inc()
        obs.histogram(metric_names.NET_BATCH_OCCUPANCY).observe(len(entries))
        obs.counter(metric_names.NET_BATCH_BYTES).inc(
            sum(len(e.payload) for e in entries)
        )
        if len(entries) > 1:
            self.stats.batches_sent += 1
            self.stats.frames_coalesced += len(entries)
            obs.counter(metric_names.NET_BATCH_FRAMES_COALESCED).inc(len(entries))
        try:
            self._transmit(src, dst, entries, self.network.route(src, dst))
        except NetworkError as exc:
            # The route died between enqueue and flush; the frames were
            # never on the wire, so fail them like an in-flight drop.
            self.stats.messages_dropped += len(entries)
            for entry in entries:
                if entry.on_dropped is not None:
                    entry.on_dropped(exc)

    # -- wire-level transfer -------------------------------------------------

    def _wire_bytes(self, entries: list[_Entry]) -> int:
        if len(entries) == 1:
            return len(entries[0].payload)
        return len(encode_batch([(e.service, e.payload) for e in entries]))

    def _transmit(
        self,
        src: str,
        dst: str,
        entries: list[_Entry],
        route: Route,
    ) -> float:
        """Charge one wire transfer for ``entries`` along ``route`` (live,
        as :meth:`Network.route` returns it) and schedule delivery."""
        links = route[1]
        delay = 0.0
        nbytes = self._wire_bytes(entries)
        for link in links:
            delay += link.transfer_delay(nbytes)
            link.bytes_carried += nbytes
            if len(entries) > 1:
                link.batches_carried += 1
        if obs.is_enabled():
            obs.counter(metric_names.NET_LINK_BYTES_CARRIED).inc(nbytes * len(links))
        # Links serialize in order: a small frame queued behind a large one
        # cannot overtake it, so delivery per (src, dst) flow is FIFO.
        now = self.scheduler.now()
        flow = (src, dst)
        deliver_at = max(now + delay, self._flow_clock.get(flow, 0.0) + 1e-9)
        self._flow_clock[flow] = deliver_at
        delay = deliver_at - now

        span = None
        if obs.dist_enabled():
            tracer = obs.get_tracer()
            # Parent preference: the span active right now (serial send
            # under an activated rpc span), else the enqueue-time context
            # of the first batched frame (deferred flush tick).
            remote_ctx = next((e.ctx for e in entries if e.ctx is not None), None)
            span = tracer.start(
                "net.transmit", parent=tracer.current, remote=remote_ctx,
                node=src, dst=dst, frames=len(entries), bytes=nbytes,
            )
            if len(entries) > 1:
                span.set(batch=True)

        # Failure injection: lossy links eat frames after the eavesdropper
        # has seen them (a passive observer taps before the drop point).
        # A batch is one wire frame: it is lost or carried as a unit.
        for link in links:
            if link.loss_rate > 0 and self._rng.random() < link.loss_rate:
                link.frames_dropped += 1
                self.stats.messages_lost += len(entries)
                if obs.is_enabled():
                    obs.counter(metric_names.NET_LINK_FRAMES_DROPPED).inc()
                    obs.event(
                        "net.loss", node=src, dst=dst,
                        link=f"{link.a}<->{link.b}", frames=len(entries),
                    )
                if span is not None:
                    span.set_error("FrameLost")
                    _finish_wire_span(span, deliver_at)
                return delay

        self.scheduler.schedule(
            delay,
            lambda: self._deliver(src, dst, entries, route, MAX_REROUTES),
        )
        if span is not None:
            _finish_wire_span(span, deliver_at)
        return delay

    def _deliver(
        self,
        src: str,
        dst: str,
        entries: list[_Entry],
        route: Route,
        reroutes_left: int,
    ) -> None:
        """Complete (or salvage) a transfer whose delay has elapsed."""
        if not self._route_alive(route):
            # The route chosen at send time died under the frame.  Fail
            # fast or re-route — never deliver over a dead link.
            try:
                if reroutes_left <= 0:
                    raise LinkDownError(
                        f"route {src!r}->{dst!r} died in flight; reroutes exhausted"
                    )
                new_route = self.network.route(src, dst)
            except NetworkError as exc:
                self.stats.messages_dropped += len(entries)
                for entry in entries:
                    if entry.on_dropped is not None:
                        entry.on_dropped(exc)
                return
            self.stats.messages_rerouted += len(entries)
            obs.counter(metric_names.NET_MESSAGES_REROUTED).inc(len(entries))
            obs.event(
                "net.reroute", node=src, dst=dst, frames=len(entries),
                path=">".join(new_route[0]),
            )
            delay = self.network.path_delay(new_route[0], self._wire_bytes(entries))
            self.scheduler.schedule(
                delay,
                lambda: self._deliver(src, dst, entries, new_route, reroutes_left - 1),
            )
            return
        node = self.network.node(dst)
        for entry in entries:
            try:
                node.deliver(entry.service, entry.payload, src)
                self.stats.messages_delivered += 1
            except NetworkError as exc:
                self.stats.messages_dropped += 1
                if entry.on_dropped is not None:
                    entry.on_dropped(exc)

    def _route_alive(self, route: Route) -> bool:
        path, links = route
        for node in path:
            if not self.network.node(node).up:
                return False
        return all(link.up for link in links)

    def _snoop(
        self, links: tuple[SimLink, ...], payload: bytes, src: str, dst: str
    ) -> None:
        for link in links:
            if link.secure:
                continue
            for observer in self._observers.get(link.endpoints(), ()):
                observer(payload, src, dst)
