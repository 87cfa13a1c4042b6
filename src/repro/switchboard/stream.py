"""SwitchboardStream: secure, monitored byte transport (§4.3).

"A previous version of SwitchboardStream that provides secure and
monitored transport is described in [6]" — and the paper's channels
present "a custom socket on top of which Java RMI requests can be
routed."  This module supplies that socket personality over an
established :class:`~repro.switchboard.channel.SwitchboardConnection`:
ordered, chunked, encrypted byte streams with per-stream accounting,
EOF semantics, and backpressure-free delivery callbacks.

Streams inherit every channel property: frames are AEAD-sealed and
sequence-protected, and a revocation mid-transfer aborts the stream the
moment the channel flips to ``REVOKED``.
"""

from __future__ import annotations

import base64
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import ChannelClosedError, SwitchboardError

DEFAULT_CHUNK_SIZE = 16 * 1024

_stream_ids = itertools.count(1)


@dataclass
class StreamStats:
    chunks: int = 0
    bytes: int = 0
    eof: bool = False
    aborted: bool = False


class IncomingStream:
    """Receiver side of one stream: an ordered reassembly buffer."""

    def __init__(self, stream_id: str) -> None:
        self.stream_id = stream_id
        self.stats = StreamStats()
        self._chunks: list[bytes] = []
        self._consumed = 0
        self._listeners: list[Callable[[bytes], None]] = []
        self._eof_listeners: list[Callable[[], None]] = []

    # -- receiving -------------------------------------------------------

    def _deliver(self, chunk: bytes) -> None:
        self._chunks.append(chunk)
        self.stats.chunks += 1
        self.stats.bytes += len(chunk)
        for listener in list(self._listeners):
            listener(chunk)

    def _finish(self) -> None:
        self.stats.eof = True
        for listener in list(self._eof_listeners):
            listener()

    def _abort(self) -> None:
        self.stats.aborted = True
        self.stats.eof = True
        for listener in list(self._eof_listeners):
            listener()

    # -- consuming ---------------------------------------------------------

    def on_data(self, listener: Callable[[bytes], None]) -> None:
        self._listeners.append(listener)
        for chunk in self._chunks:
            listener(chunk)

    def on_eof(self, listener: Callable[[], None]) -> None:
        self._eof_listeners.append(listener)
        if self.stats.eof:
            listener()

    def read_all(self) -> bytes:
        """Everything received so far (regardless of EOF)."""
        return b"".join(self._chunks)

    def read(self, n: int = -1) -> bytes:
        """Consume up to ``n`` bytes from the buffer (all when ``-1``)."""
        data = b"".join(self._chunks)[self._consumed :]
        if n < 0 or n >= len(data):
            self._consumed += len(data)
            return data
        self._consumed += n
        return data[:n]

    @property
    def complete(self) -> bool:
        return self.stats.eof and not self.stats.aborted


class OutgoingStream:
    """Sender side: chunks writes into sealed channel frames."""

    def __init__(
        self,
        connection,
        stream_id: str,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> None:
        self.connection = connection
        self.stream_id = stream_id
        self.chunk_size = chunk_size
        self.stats = StreamStats()
        self._closed = False

    def write(self, data: bytes) -> int:
        """Send ``data`` as one or more sealed chunks; returns bytes sent."""
        if self._closed:
            raise SwitchboardError(f"stream {self.stream_id} already closed")
        sent = 0
        for offset in range(0, len(data), self.chunk_size):
            chunk = data[offset : offset + self.chunk_size]
            self.connection._send(
                {
                    "kind": "stream",
                    "stream_id": self.stream_id,
                    "data": base64.b64encode(chunk).decode(),
                }
            )
            self.stats.chunks += 1
            self.stats.bytes += len(chunk)
            sent += len(chunk)
        return sent

    def close(self) -> None:
        """Signal EOF to the receiver."""
        if self._closed:
            return
        self._closed = True
        self.stats.eof = True
        self.connection._send({"kind": "stream-end", "stream_id": self.stream_id})


class StreamManager:
    """Per-connection registry of incoming and outgoing streams."""

    def __init__(self, connection) -> None:
        self.connection = connection
        self._incoming: dict[str, IncomingStream] = {}
        self._outgoing: dict[str, OutgoingStream] = {}
        self._open_listeners: list[Callable[[IncomingStream], None]] = []

    # -- sender API --------------------------------------------------------

    def open(self, *, chunk_size: int = DEFAULT_CHUNK_SIZE) -> OutgoingStream:
        side = "i" if self.connection.is_initiator else "r"
        stream_id = f"s{side}{next(_stream_ids)}"
        stream = OutgoingStream(self.connection, stream_id, chunk_size=chunk_size)
        self._outgoing[stream_id] = stream
        return stream

    def send_bytes(self, data: bytes, **kwargs) -> str:
        """Convenience: one-shot transfer; returns the stream id."""
        stream = self.open(**kwargs)
        stream.write(data)
        stream.close()
        return stream.stream_id

    # -- receiver API ---------------------------------------------------------

    def incoming(self, stream_id: str) -> IncomingStream:
        stream = self._incoming.get(stream_id)
        if stream is None:
            stream = IncomingStream(stream_id)
            self._incoming[stream_id] = stream
        return stream

    def on_open(self, listener: Callable[[IncomingStream], None]) -> None:
        """Notified when the first chunk of a new stream arrives."""
        self._open_listeners.append(listener)

    # -- channel plumbing --------------------------------------------------------

    def handle(self, inner: dict) -> bool:
        """Dispatch a channel frame; returns True when consumed."""
        kind = inner.get("kind")
        if kind == "stream":
            stream_id = inner["stream_id"]
            fresh = stream_id not in self._incoming
            stream = self.incoming(stream_id)
            if fresh:
                for listener in list(self._open_listeners):
                    listener(stream)
            stream._deliver(base64.b64decode(inner["data"]))
            return True
        if kind == "stream-end":
            self.incoming(inner["stream_id"])._finish()
            return True
        return False

    def abort_all(self) -> None:
        """Called when the channel leaves OPEN: poison live transfers."""
        for stream in self._incoming.values():
            if not stream.stats.eof:
                stream._abort()
