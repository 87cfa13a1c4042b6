"""Remote stubs and the runtime context handed to generated views.

Table 5's generated constructor performs ``Naming.lookup(...)`` for rmi
interfaces and ``Switchboard.lookup(...)`` for switchboard interfaces; the
:class:`ViewRuntime` is the Python analogue — it owns the naming registry
and the node's RPC/Switchboard endpoints, and hands back method-forwarding
stubs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import SwitchboardError, ViewError
from ..switchboard.authorizer import AuthorizationSuite
from ..switchboard.channel import SwitchboardConnection, SwitchboardEndpoint
from ..switchboard.registry import NamingRegistry, ServiceAddress
from ..switchboard.rpc import PlainRpcEndpoint
from .coherence import LocalOrigin, OriginPort, RemoteOrigin

IMAGE_BINDING_PREFIX = "image:"
"""Naming-registry prefix for a represented object's ImageService."""


class RmiStub:
    """Plaintext remote proxy (the Java RMI stand-in).

    Attribute access returns a synchronous forwarding callable; every call
    crosses the network unencrypted.
    """

    def __init__(self, endpoint: PlainRpcEndpoint, address: ServiceAddress) -> None:
        self._endpoint = endpoint
        self._address = address

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)
        endpoint, address = self._endpoint, self._address

        def remote_call(*args):
            return endpoint.call_sync(address.node, address.target, method, list(args))

        remote_call.__name__ = method
        return remote_call


class SwitchboardStub:
    """Secure remote proxy over an established Switchboard connection.

    The connection was authorized once at establishment; calls flow with
    no further access checks (single sign-on, §4.2).
    """

    def __init__(self, connection: SwitchboardConnection, target: str) -> None:
        self._connection = connection
        self._target = target

    @property
    def connection(self) -> SwitchboardConnection:
        return self._connection

    def __getattr__(self, method: str):
        if method.startswith("_"):
            raise AttributeError(method)
        connection, target = self._connection, self._target

        def remote_call(*args):
            return connection.call_sync(target, method, list(args))

        remote_call.__name__ = method
        return remote_call


@dataclass
class ViewRuntime:
    """Everything a generated view needs to reach its original object.

    ``local_objects`` provides same-process originals for *local*-mode
    data access; remote interfaces resolve through the naming registry to
    rmi or switchboard stubs.  A runtime without endpoints supports purely
    local views (and raises clearly when a spec demands remote access).
    """

    naming: NamingRegistry = field(default_factory=NamingRegistry)
    rpc: Optional[PlainRpcEndpoint] = None
    switchboard: Optional[SwitchboardEndpoint] = None
    suite: Optional[AuthorizationSuite] = None
    local_objects: dict[str, Any] = field(default_factory=dict)
    binding_modes: dict[str, str] = field(default_factory=dict)
    """Per-binding channel mode ("rmi" | "switchboard") decided by the
    planner; bindings absent here fall back to preferring Switchboard."""
    _connections: dict[str, SwitchboardConnection] = field(default_factory=dict)

    def local_object(self, name: str) -> Any:
        obj = self.local_objects.get(name)
        if obj is None:
            raise ViewError(f"no local object registered under {name!r}")
        return obj

    def rmi_stub(self, binding: str) -> RmiStub:
        if self.rpc is None:
            raise ViewError(
                f"view requires rmi binding {binding!r} but the runtime has no RPC endpoint"
            )
        return RmiStub(self.rpc, self.naming.lookup(binding))

    def switchboard_stub(self, binding: str) -> SwitchboardStub:
        """Resolve a binding to a stub over a (cached) secure channel.

        One channel per remote service address is reused by every
        interface bound to it — the authorization happened at connect
        time, so sharing the channel preserves single sign-on semantics.
        """
        if self.switchboard is None or self.suite is None:
            raise ViewError(
                f"view requires switchboard binding {binding!r} but the runtime "
                "has no switchboard endpoint / authorization suite"
            )
        address = self.naming.lookup(binding)
        cache_key = f"{address.node}|{address.service}"
        connection = self._connections.get(cache_key)
        if connection is None or connection.state.value != "open":
            pending = self.switchboard.connect(address.node, address.service, self.suite)
            connection = pending.wait()
            self._connections[cache_key] = connection
        return SwitchboardStub(connection, address.target)

    def origin_port(self, represents: str, view: Any = None) -> Optional[OriginPort]:
        """Resolve the image port for a represented object.

        Local objects win; otherwise the convention ``image:<name>`` in
        the naming registry locates the exported
        :class:`~repro.views.coherence.ImageService`, reached over
        Switchboard when a suite is available, else plain RMI, and synced
        by delta against ``view``'s fields through a
        :class:`~repro.views.coherence.RemoteOrigin`.  Returns ``None``
        when the original object is unreachable.
        """
        if represents in self.local_objects:
            return LocalOrigin(self.local_objects[represents])
        binding = IMAGE_BINDING_PREFIX + represents
        if binding not in self.naming:
            return None
        mode = self.binding_modes.get(binding)
        if mode == "rmi" and self.rpc is not None:
            # The planner judged the path safe for a bulk channel
            # (secure links or encrypted payload); don't pay for a
            # Switchboard handshake it didn't ask for.
            return RemoteOrigin(self.rmi_stub(binding), view)
        if self.switchboard is not None and self.suite is not None:
            return RemoteOrigin(self.switchboard_stub(binding), view)
        if self.rpc is not None:
            return RemoteOrigin(self.rmi_stub(binding), view)
        return None

    def close(self) -> None:
        for connection in self._connections.values():
            try:
                connection.close()
            except SwitchboardError:
                pass
        self._connections.clear()
