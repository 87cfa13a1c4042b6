"""Switchboard: secure, monitored, continuously-authorized channels (§4.3).

Also hosts the plain (RMI-style) RPC layer used by *rmi*-typed view
interfaces, whose frames are readable by eavesdroppers on insecure links —
the contrast that motivates Switchboard.
"""

from .authorizer import (
    AcceptAllAuthorizer,
    AuthorizationSuite,
    Authorizer,
    RoleAuthorizer,
)
from .channel import (
    ChannelState,
    ChannelStats,
    ChannelSupervisor,
    PendingConnection,
    SwitchboardConnection,
    SwitchboardEndpoint,
    SWITCHBOARD_SERVICE,
)
from .registry import NamingRegistry, ServiceAddress
from .stream import (
    DEFAULT_CHUNK_SIZE,
    IncomingStream,
    OutgoingStream,
    StreamManager,
    StreamStats,
)
from .rpc import (
    ObjectExporter,
    PendingCall,
    PlainRpcEndpoint,
    RemoteError,
    PLAIN_RPC_SERVICE,
)

__all__ = [
    "AcceptAllAuthorizer",
    "AuthorizationSuite",
    "Authorizer",
    "ChannelState",
    "ChannelStats",
    "ChannelSupervisor",
    "DEFAULT_CHUNK_SIZE",
    "IncomingStream",
    "OutgoingStream",
    "StreamManager",
    "StreamStats",
    "NamingRegistry",
    "ObjectExporter",
    "PLAIN_RPC_SERVICE",
    "PendingCall",
    "PendingConnection",
    "PlainRpcEndpoint",
    "RemoteError",
    "RoleAuthorizer",
    "SWITCHBOARD_SERVICE",
    "ServiceAddress",
    "SwitchboardConnection",
    "SwitchboardEndpoint",
]
