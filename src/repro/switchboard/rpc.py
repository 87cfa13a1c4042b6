"""RPC machinery: futures, plain (RMI-style) remote calls, and dispatch.

Two transport personalities share this module:

* :class:`PlainRpcEndpoint` — the stand-in for Java RMI.  Frames are
  plaintext JSON; anyone observing an insecure link reads arguments and
  results verbatim.  Views whose interfaces are typed ``rmi`` route
  through this.
* :class:`~repro.switchboard.channel.SwitchboardConnection` — the same
  calls, but every frame is encrypted and sequence-protected.

The two differ only in what seals the frame, so each step of a call is
written once here and used by both: :class:`CallTable` pairs correlation
ids with futures (and mints the ``rpc.client`` span),
:func:`with_trace_context` stamps a frame, and :func:`serve` is the
server half.  Frame vocabularies stay separate (``type``/``reply_to``
here, ``kind`` on a channel) because frame bytes set the simulated
transfer delays.

The simulation is single-threaded over virtual time, so remote calls
return :class:`PendingCall` futures; :meth:`PendingCall.wait` pumps the
event scheduler until the result lands (only valid from driver code, not
from inside an event handler).
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .. import obs
from ..errors import NetworkError, RpcShedError, RpcTimeoutError, SwitchboardError
from ..faults.retry import RetryPolicy
from ..flow import FlowConfig, FlowController, Shed
from ..net.events import EventScheduler
from ..net.transport import Transport
from ..obs import names as metric_names

PLAIN_RPC_SERVICE = "rmi"


class CallIdPool:
    """Correlation-id allocator with smallest-first reuse.

    Completed calls hand their id back, so a long-lived endpoint cycles
    through a small, stable id set instead of growing a process-global
    counter forever.  Stable ids keep frame byte-sizes (and therefore
    simulated transfer delays) independent of how much traffic preceded a
    run — the property the chaos and load harnesses rely on for
    byte-identical reports.

    Ids acquired with ``reusable=False`` are never recycled: an
    at-least-once retried call can see a *duplicate* late response, and a
    recycled id would let that duplicate complete an unrelated call.
    """

    def __init__(self) -> None:
        self._free: list[int] = []
        self._next = 1
        self._reusable: set[int] = set()

    def acquire(self, *, reusable: bool = True) -> int:
        if reusable and self._free:
            call_id = heapq.heappop(self._free)
        else:
            call_id = self._next
            self._next += 1
        if reusable:
            self._reusable.add(call_id)
        return call_id

    def release(self, call_id: int) -> None:
        """Return a reusable id to the pool; ignores non-reusable ids."""
        if call_id in self._reusable:
            self._reusable.discard(call_id)
            heapq.heappush(self._free, call_id)

    @property
    def high_water(self) -> int:
        """Largest id ever allocated (pipelining keeps this bounded)."""
        return self._next - 1


class RemoteError(SwitchboardError):
    """An exception raised by the remote method, re-raised locally."""


@dataclass
class PendingCall:
    """Future for an in-flight remote call."""

    call_id: int
    method: str
    done: bool = False
    started_at: Optional[float] = None
    """Scheduler time the call was sent; lets the channel layer record
    completion latency in virtual time."""
    span: obs.Span = field(default=obs.NULL_SPAN, repr=False)
    """Client-side span covering issue → completion (the shared no-op
    span unless dist tracing is on); settling finishes it and tags
    failures ``error=<type>``."""
    _value: Any = None
    _error: Optional[str] = None
    _exception: Optional[Exception] = field(default=None, repr=False)
    _scheduler: EventScheduler | None = field(default=None, repr=False)
    _callbacks: list[Callable[["PendingCall"], None]] = field(
        default_factory=list, repr=False
    )

    def add_done_callback(self, fn: Callable[["PendingCall"], None]) -> None:
        """Run ``fn(self)`` when the call completes (now, if already done).

        This is what lets :class:`RpcPipeline` refill its window the
        moment a slot frees, instead of polling futures.
        """
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def _settle(self, error: str | None) -> None:
        """Every completion ends here: mark done, close the span (keeping
        an error tag a failing send already set), wake the waiters."""
        self.done = True
        if error is not None and self.span.ok:
            self.span.set_error(error)
        self.span.finish()
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def resolve(self, value: Any) -> None:
        self._value = value
        self._settle(None)

    def fail(self, message: str) -> None:
        self._error = message
        self._settle("RemoteError")

    def abort(self, exc: Exception) -> None:
        """Fail the call with a typed local exception (channel teardown)."""
        self._exception = exc
        self._settle(type(exc).__name__)

    @property
    def value(self) -> Any:
        if not self.done:
            raise SwitchboardError(f"call {self.method!r} not complete")
        if self._exception is not None:
            raise self._exception
        if self._error is not None:
            raise RemoteError(self._error)
        return self._value

    def wait(
        self, *, timeout: float | None = None, max_events: int = 100_000
    ) -> Any:
        """Pump the scheduler until this call completes, then return.

        ``timeout`` bounds the wait in *virtual* seconds: when the
        scheduler advances past the budget without a result, the wait
        raises a typed :class:`~repro.errors.RpcTimeoutError` instead of
        blocking until the event queue drains (which, under fault
        injection, may be never for a call whose peer crashed).  A late
        response can still complete the call afterwards.
        """
        self.wait_done(timeout=timeout, max_events=max_events)
        return self.value

    def wait_done(
        self, *, timeout: float | None = None, max_events: int = 100_000
    ) -> None:
        """Pump the scheduler until this call *completes* — success or
        failure — without consuming the result (so a caller collecting
        errors, like :meth:`RpcPipeline.drain`, does not raise here)."""
        if self._scheduler is None:
            raise SwitchboardError("no scheduler attached; cannot wait")
        deadline = None if timeout is None else self._scheduler.now() + timeout
        steps = 0
        while not self.done:
            if deadline is not None and self._scheduler.now() >= deadline:
                obs.counter(metric_names.RPC_WAIT_TIMEOUTS).inc()
                if self.span.ok:
                    # Not finished: a late response may still complete the
                    # call, but the caller observed a timeout.
                    self.span.set_error("RpcTimeoutError")
                raise RpcTimeoutError(
                    f"call {self.method!r} still pending after {timeout}s"
                )
            if not self._scheduler.step():
                raise SwitchboardError(
                    f"event queue drained before call {self.method!r} completed"
                )
            steps += 1
            if steps > max_events:
                raise SwitchboardError(
                    f"call {self.method!r} did not complete within {max_events} events"
                )


class CallTable:
    """One endpoint's (or channel's) in-flight calls: ids and futures.

    The only code that pairs "forget the future" with "hand the id back",
    so no completion path can leak an id or recycle one that is still
    registered.
    """

    def __init__(self, scheduler: EventScheduler) -> None:
        self._scheduler = scheduler
        self._ids = CallIdPool()
        self._pending: dict[int, PendingCall] = {}

    def open(
        self, method: str, *, reusable: bool = True, **where: Any
    ) -> PendingCall:
        """Register a new call under a fresh correlation id.

        ``where`` (node, peer or channel, target) asks for the call's
        ``rpc.client`` span, minted only while wire tracing is on.
        Otherwise the future keeps the shared no-op span, so every later
        ``set_error`` / ``activate`` / ``finish`` is one statement in both
        modes and the untraced path allocates nothing.
        """
        call_id = self._ids.acquire(reusable=reusable)
        pending = PendingCall(
            call_id=call_id, method=method, _scheduler=self._scheduler
        )
        self._pending[call_id] = pending
        if where and obs.dist_enabled():
            tracer = obs.get_tracer()
            pending.span = tracer.start(
                "rpc.client", parent=tracer.current, **where,
                method=method, call_id=call_id,
            )
        return pending

    def get(self, call_id: int) -> PendingCall | None:
        """The registered call, left in place (a ``revalidated`` frame
        checks what it answers before settling it)."""
        return self._pending.get(call_id)

    def settle(self, call_id: int) -> PendingCall | None:
        """Forget the call and release its id; the caller completes the
        returned future.  ``None`` for a forgotten (or duplicate) id."""
        pending = self._pending.pop(call_id, None)
        if pending is not None:
            self._ids.release(call_id)
        return pending

    def abort_all(self, error: Callable[[PendingCall], Exception]) -> int:
        """Abort every registered call with ``error(call)``; returns how
        many, so teardown can count them as failures."""
        calls = list(self._pending.values())
        for pending in calls:
            self.settle(pending.call_id)
            pending.abort(error(pending))
        return len(calls)

    def undone(self) -> list[PendingCall]:
        """Registered calls nobody has completed (the chaos invariant)."""
        return [call for call in self._pending.values() if not call.done]

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def high_water(self) -> int:
        """Largest id ever issued (see :attr:`CallIdPool.high_water`)."""
        return self._ids.high_water


def with_trace_context(frame: dict, span: obs.Span) -> dict:
    """``frame`` carrying ``span``'s wire context as its last key ``tc``;
    unchanged when untraced — the key changes frame bytes, hence virtual
    transfer timings, which is why ``dist`` is a gate at all."""
    if span is obs.NULL_SPAN:
        return frame
    return {**frame, "tc": list(span.context())}


def serve(
    dispatch: Callable[[str, str, list], Any],
    frame: dict,
    response: dict,
    reply: Callable[[dict, dict], None],
    **where: Any,
) -> None:
    """The server half of a call: dispatch, error-to-text, reply.

    ``response`` arrives holding the caller's own envelope keys and
    leaves as ``reply(frame, response)`` with ``value`` or ``error``
    added.  A frame carrying ``tc`` continues the propagated trace: the
    ``rpc.server`` span is a local root remote-parented to the client (or
    attempt) span that sent it, so exports stitch both sides by shared
    trace id, and dispatch and reply run under it so work done on the
    call's behalf (proof search, view resolution, the reply's transmit)
    nests there.
    """
    tc = frame.get("tc")
    span = obs.NULL_SPAN if tc is None else obs.get_tracer().start(
        "rpc.server", remote=(tc[0], tc[1]), **where,
        target=frame.get("target", ""), method=frame.get("method", ""),
        call_id=frame["call_id"],
    )
    try:
        with obs.activate(span):
            try:
                response["value"] = dispatch(
                    frame["target"], frame["method"], frame.get("args", [])
                )
            except Exception as exc:  # noqa: BLE001 - errors cross the wire as text
                span.set_error(type(exc).__name__)
                response["error"] = f"{type(exc).__name__}: {exc}"
            reply(frame, response)
    finally:
        span.finish()


class RpcPipeline:
    """Windowed pipelining over any ``PendingCall``-returning caller.

    Up to ``depth`` calls ride the wire at once; further calls queue
    locally and are issued the instant a slot frees, so the window never
    sits idle waiting for a drain.  Completions may land out of order
    (correlation ids pair responses with calls); :meth:`results` and
    :meth:`drain` always report in **issue order**, which is what makes a
    pipelined run byte-comparable with a serial one — the differential
    guarantee ``tests/load/test_pipeline_differential.py`` checks.
    """

    def __init__(
        self,
        caller: Callable[..., "PendingCall"],
        scheduler: EventScheduler,
        *,
        depth: int = 8,
    ) -> None:
        if depth < 1:
            raise SwitchboardError(f"pipeline depth must be >= 1, got {depth}")
        self._caller = caller
        self._scheduler = scheduler
        self.depth = depth
        self.in_flight = 0
        self._order: list[PendingCall] = []
        self._backlog: deque[tuple[PendingCall, tuple, dict]] = deque()

    def call(self, *args, **kwargs) -> PendingCall:
        """Issue (or queue) one call; returns its future immediately.

        The returned future is a *shell* that mirrors the wire call's
        outcome, so callers hold a stable handle even while the call is
        still queued behind a full window.
        """
        shell = PendingCall(
            call_id=-(len(self._order) + 1),
            method=f"<pipelined#{len(self._order)}>",
            _scheduler=self._scheduler,
        )
        self._order.append(shell)
        self._backlog.append((shell, args, kwargs))
        obs.counter(metric_names.RPC_PIPELINE_CALLS).inc()
        self._pump()
        return shell

    def _pump(self) -> None:
        while self._backlog and self.in_flight < self.depth:
            shell, args, kwargs = self._backlog.popleft()
            try:
                inner = self._caller(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - surface via the future
                shell.abort(exc)
                continue
            self.in_flight += 1
            obs.histogram(metric_names.RPC_PIPELINE_DEPTH).observe(self.in_flight)
            inner.add_done_callback(
                lambda done, shell=shell: self._settle(shell, done)
            )

    def _settle(self, shell: PendingCall, inner: PendingCall) -> None:
        self.in_flight -= 1
        if inner._exception is not None:
            shell.abort(inner._exception)
        elif inner._error is not None:
            shell.fail(inner._error)
        else:
            shell.resolve(inner._value)
        self._pump()

    @property
    def issued(self) -> int:
        return len(self._order)

    @property
    def outstanding(self) -> int:
        """Calls not yet completed (in flight or still queued)."""
        return sum(1 for shell in self._order if not shell.done)

    def drain(
        self,
        *,
        timeout: float | None = None,
        return_exceptions: bool = False,
        max_events: int = 1_000_000,
    ) -> list[Any]:
        """Pump the scheduler until every issued call completes.

        Returns results in issue order.  With ``return_exceptions`` a
        failed call contributes its exception object instead of raising,
        so one bad call cannot hide the results of its window-mates.
        """
        deadline = None if timeout is None else self._scheduler.now() + timeout
        for shell in self._order:
            remaining = (
                None if deadline is None else max(deadline - self._scheduler.now(), 0.0)
            )
            if not shell.done:
                if remaining is not None and remaining <= 0:
                    raise RpcTimeoutError(
                        f"pipeline drain exceeded {timeout}s with "
                        f"{self.outstanding} calls outstanding"
                    )
                shell.wait_done(timeout=remaining, max_events=max_events)
        return self.results(return_exceptions=return_exceptions)

    def results(self, *, return_exceptions: bool = False) -> list[Any]:
        """Issue-ordered outcomes of every completed call."""
        out: list[Any] = []
        for shell in self._order:
            try:
                out.append(shell.value)
            except Exception as exc:  # noqa: BLE001 - caller opted in
                if not return_exceptions:
                    raise
                out.append(exc)
        return out


class ObjectExporter:
    """Name → object table with safe method dispatch.

    Dispatch refuses private names and non-callable attributes so a remote
    caller cannot walk into implementation details.
    """

    def __init__(self) -> None:
        self._objects: dict[str, Any] = {}

    def export(self, name: str, obj: Any) -> None:
        self._objects[name] = obj

    def unexport(self, name: str) -> None:
        self._objects.pop(name, None)

    def exported_names(self) -> list[str]:
        return sorted(self._objects)

    def dispatch(self, target: str, method: str, args: list) -> Any:
        obj = self._objects.get(target)
        if obj is None:
            raise SwitchboardError(f"no exported object {target!r}")
        if method.startswith("_"):
            raise SwitchboardError(f"refusing to call private method {method!r}")
        fn = getattr(obj, method, None)
        if not callable(fn):
            raise SwitchboardError(f"{target!r} has no callable method {method!r}")
        return fn(*args)


class PlainRpcEndpoint:
    """Unencrypted request/response RPC bound to one simulated node.

    The Java-RMI stand-in: method name, arguments, and results cross the
    network as readable JSON.

    Built with a :class:`~repro.flow.FlowConfig`, the endpoint admits
    arriving calls through a :class:`~repro.flow.FlowController` (rate
    limit → weighted fair queue → service slots), which may *shed* one
    with a retry-after hint.  Without a config (the default) a call is
    dispatched the moment it arrives.  Outgoing calls have no overload
    control: a shed completes the call with
    :class:`~repro.errors.RpcShedError`, and the caller decides what to
    do with the hint.
    """

    def __init__(
        self,
        transport: Transport,
        node_name: str,
        *,
        flow: FlowConfig | None = None,
    ) -> None:
        self.transport = transport
        self.node_name = node_name
        self.exporter = ObjectExporter()
        self.flow = flow
        self.controller: FlowController | None = (
            FlowController(flow, transport.scheduler, name=node_name)
            if flow is not None
            else None
        )
        self.calls = CallTable(transport.scheduler)
        transport.network.node(node_name).bind(PLAIN_RPC_SERVICE, self._on_frame)

    def call_tables(self) -> list[tuple[str, CallTable]]:
        """``(label, table)`` for every call table this endpoint owns."""
        return [(self.node_name, self.calls)]

    # -- client side --------------------------------------------------------

    def _open(
        self,
        remote_node: str,
        target: str,
        method: str,
        args: list | None,
        *,
        retrying: bool = False,
    ) -> tuple[PendingCall, dict]:
        """The client-open step under :meth:`call` and
        :meth:`call_with_retry`: call-table entry, base frame,
        ``rpc.client`` span.

        A retried call takes a non-reusable id: the remote may answer
        more than once, and a late duplicate must never complete a newer
        call that recycled it.
        """
        tags = {"retrying": True} if retrying else {}
        pending = self.calls.open(
            method, reusable=not retrying,
            node=self.node_name, peer=remote_node, target=target, **tags,
        )
        frame = {
            "type": "call",
            "call_id": pending.call_id,
            "reply_to": self.node_name,
            "target": target,
            "method": method,
            "args": args or [],
        }
        return pending, frame

    def call(
        self, remote_node: str, target: str, method: str, args: list | None = None
    ) -> PendingCall:
        pending, frame = self._open(remote_node, target, method, args)
        span = pending.span

        def dropped(exc: Exception) -> None:
            # Fail fast: a request that died in flight (link down, node
            # crashed) can never produce a response; unblock the caller.
            if not pending.done:
                self.calls.settle(pending.call_id)
                pending.abort(exc)

        try:
            # Activated so the transport's transmit/batch spans nest
            # under this call instead of floating as roots.
            with obs.activate(span):
                self.transport.send(
                    self.node_name,
                    remote_node,
                    PLAIN_RPC_SERVICE,
                    encode_frame(with_trace_context(frame, span)),
                    on_dropped=dropped,
                )
        except NetworkError as exc:
            self.calls.settle(pending.call_id)
            span.set_error("NetworkError")
            pending.fail(str(exc))
        return pending

    def call_sync(
        self, remote_node: str, target: str, method: str, args: list | None = None
    ) -> Any:
        return self.call(remote_node, target, method, args).wait()

    def pipeline(
        self,
        remote_node: str,
        target: str,
        *,
        depth: int = 8,
    ) -> RpcPipeline:
        """A pipelined caller for one remote object: ``p.call(method, args)``.

        Keeps up to ``depth`` requests in flight; see :class:`RpcPipeline`.
        """
        return RpcPipeline(
            lambda method, args=None: self.call(remote_node, target, method, args),
            self.transport.scheduler,
            depth=depth,
        )

    def call_with_retry(
        self,
        remote_node: str,
        target: str,
        method: str,
        args: list | None = None,
        *,
        policy: RetryPolicy,
    ) -> PendingCall:
        """At-least-once invocation over lossy or failing links.

        Re-sends the same call (same call id, so a late original response
        still completes it) when no response arrives in time.  Pacing
        comes from ``policy``, a :class:`~repro.faults.retry.RetryPolicy`
        (constant interval, or exponential backoff with seeded jitter
        and a deadline).  A transmission that fails outright (link
        down, partition) is treated like a lost frame and retried on the
        same schedule, which is what lets callers ride out a fault window.
        The remote method may execute more than once — callers pick this
        for idempotent operations; exactly-once semantics belong to the
        Switchboard layer's sequencing.

        A shed is an answer, not a lost frame: it ends the call at once
        with :class:`~repro.errors.RpcShedError` carrying the server's
        ``retry_after``, exactly as it ends a plain :meth:`call`, and
        the caller decides whether and when to try again.
        """
        pending, frame = self._open(
            remote_node, target, method, args, retrying=True
        )
        call_id, span = pending.call_id, pending.span
        schedule = policy.schedule()
        attempts = 0

        def give_up() -> None:
            if pending.done:
                return
            self.calls.settle(call_id)
            obs.counter(metric_names.RPC_RETRIES_EXHAUSTED).inc()
            obs.event(
                "rpc.exhausted", node=self.node_name, peer=remote_node,
                target=target, method=method, call_id=call_id,
                attempts=schedule.attempts_made,
            )
            span.set_error("RetriesExhausted")
            pending.fail(
                f"no response from {remote_node}/{target}.{method} after "
                f"{schedule.attempts_made} attempts"
            )

        def transmit(*, is_retry: bool) -> None:
            nonlocal attempts
            attempts += 1
            if is_retry:
                obs.counter(metric_names.RPC_RETRIES).inc()
                obs.event(
                    "rpc.retry", node=self.node_name, peer=remote_node,
                    target=target, method=method, call_id=call_id,
                    attempt=attempts,
                )
            # Each attempt is its own child span carrying the shared
            # correlation id; the wire frame carries the *attempt's*
            # context, so the server span stitches to the exact
            # transmission that reached it.
            attempt = obs.get_tracer().start(
                "rpc.attempt", parent=span, node=self.node_name,
                call_id=call_id, attempt=attempts, retry=is_retry,
            )
            try:
                with obs.activate(attempt):
                    self.transport.send(
                        self.node_name, remote_node, PLAIN_RPC_SERVICE,
                        encode_frame(with_trace_context(frame, attempt)),
                    )
            except NetworkError:
                # No route right now; keep the schedule ticking — the
                # fault may heal before the attempts run out.
                attempt.set_error("NetworkError")
            finally:
                attempt.finish()
            wait = schedule.next_delay()
            if wait is None:
                # That was the final attempt: give its response one more
                # interval to land, then give up.
                self.transport.scheduler.schedule(policy.max_delay, give_up)
            else:
                self.transport.scheduler.schedule(wait, check)

        def check() -> None:
            if not pending.done:
                transmit(is_retry=True)

        transmit(is_retry=False)
        return pending

    # -- server side ---------------------------------------------------------

    def _on_frame(self, payload: bytes, sender: str) -> None:
        try:
            frame = decode_frame(payload)
        except SwitchboardError:
            frame = {}
        kind = frame.get("type")
        if kind == "call":
            self._serve(frame)
        elif kind == "result":
            self._complete(frame)
        else:
            # Any node can send anything: a bad frame is dropped and
            # counted, never raised into the peer's event loop.
            obs.counter(metric_names.RPC_FRAMES_REJECTED).inc()

    def _serve(self, frame: dict) -> None:
        if self.controller is not None:
            shed = self.controller.submit(
                frame.get("reply_to", ""),
                frame["target"],
                frame["method"],
                lambda: self._execute(frame),
            )
            if shed is not None:
                self._send_shed(frame, shed)
            return
        self._execute(frame)

    def _reply(self, frame: dict, response: dict) -> None:
        try:
            self.transport.send(
                self.node_name, frame["reply_to"], PLAIN_RPC_SERVICE,
                encode_frame(response),
            )
        except NetworkError:
            # The caller's route died while we serviced (or refused) the
            # request; an unroutable response is indistinguishable from a
            # lost frame, and the caller's retry machinery owns recovery.
            pass

    def _send_shed(self, frame: dict, shed: Shed) -> None:
        """Refuse a call: a small result frame carrying the retry hint,
        so the caller backs off instead of timing out and retrying into
        the same overloaded queue."""
        response: dict[str, Any] = {
            "type": "result",
            "call_id": frame["call_id"],
            "shed": {
                "retry_after": round(shed.retry_after, 6),
                "reason": shed.reason,
                "class": shed.cls,
            },
        }
        if frame.get("tc") is not None:
            response["tc"] = frame["tc"]
        self._reply(frame, response)

    def _execute(self, frame: dict) -> None:
        response: dict[str, Any] = {"type": "result", "call_id": frame["call_id"]}
        if frame.get("tc") is not None:
            response["tc"] = frame["tc"]
        serve(
            self.exporter.dispatch, frame, response, self._reply, node=self.node_name
        )

    def _complete(self, frame: dict) -> None:
        pending = self.calls.settle(frame["call_id"])
        if pending is None:
            return  # response for a forgotten call
        shed = frame.get("shed")
        if shed is not None:
            retry_after = float(shed.get("retry_after", 0.0))
            pending.abort(
                RpcShedError(
                    f"call {pending.method!r} shed by remote "
                    f"({shed.get('reason', '?')}); retry after {retry_after}s",
                    retry_after=retry_after,
                )
            )
        elif "error" in frame:
            pending.fail(frame["error"])
        else:
            pending.resolve(frame.get("value"))


def encode_frame(frame: dict) -> bytes:
    return json.dumps(frame, separators=(",", ":")).encode()


def decode_frame(payload: bytes) -> dict:
    """A JSON frame; a plain-RPC ``call`` or ``result`` frame must also
    carry every field its handler reads, with the right type."""
    try:
        frame = json.loads(payload.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise SwitchboardError(f"undecodable RPC frame: {exc}") from exc
    if not isinstance(frame, dict):
        raise SwitchboardError("RPC frame must be a JSON object")
    kind = frame.get("type")
    if kind in ("call", "result") and not isinstance(frame.get("call_id"), int):
        raise SwitchboardError(f"RPC {kind} frame without an integer call_id")
    if kind == "call" and not (
        isinstance(frame.get("reply_to"), str)
        and isinstance(frame.get("target"), str)
        and isinstance(frame.get("method"), str)
        and isinstance(frame.get("args"), list)
    ):
        raise SwitchboardError("RPC call frame needs reply_to, target, method and args")
    tc = frame.get("tc")
    if kind == "call" and tc is not None and not (
        isinstance(tc, list) and len(tc) == 2 and all(isinstance(part, int) for part in tc)
    ):
        raise SwitchboardError("RPC call frame's tc must be a [trace_id, span_id] pair")
    shed = frame.get("shed")
    if kind == "result" and shed is not None and not (
        isinstance(shed, dict)
        and isinstance(shed.get("retry_after", 0.0), (int, float))
    ):
        raise SwitchboardError(
            "RPC result frame's shed must be an object with a numeric retry_after"
        )
    return frame
