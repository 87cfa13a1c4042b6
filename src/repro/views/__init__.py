"""Object views: customizing reusable components (Section 4).

The package provides the view specification language (Table 3b), the VIG
view generator (Table 5), cache coherence between views and originals,
remote stubs, and the role→view access policy (Table 4).
"""

from .acl import AccessDecision, AccessRule, ViewAccessPolicy
from .autoview import ViewHint, infer_view_spec, method_writes_state
from .coherence import (
    CacheManager,
    CoherencePolicy,
    CoherenceStats,
    ImageService,
    LocalOrigin,
    OriginPort,
    RemoteOrigin,
)
from .interfaces import (
    InterfaceDef,
    InterfaceRegistry,
    MethodSig,
    interface_from_class,
)
from .proxies import (
    IMAGE_BINDING_PREFIX,
    RmiStub,
    SwitchboardStub,
    ViewRuntime,
)
from .spec import (
    COHERENCE_METHODS,
    FieldSpec,
    InterfaceMode,
    InterfaceRestriction,
    MethodSpec,
    ViewSpec,
    parse_signature,
)
from .vig import (
    Vig,
    VigStats,
    represented_fields,
    represented_methods,
    wrap_with_coherence,
)

__all__ = [
    "AccessDecision",
    "AccessRule",
    "ViewHint",
    "infer_view_spec",
    "method_writes_state",
    "COHERENCE_METHODS",
    "CacheManager",
    "CoherencePolicy",
    "CoherenceStats",
    "FieldSpec",
    "IMAGE_BINDING_PREFIX",
    "ImageService",
    "InterfaceDef",
    "InterfaceMode",
    "InterfaceRegistry",
    "InterfaceRestriction",
    "LocalOrigin",
    "MethodSig",
    "MethodSpec",
    "OriginPort",
    "RemoteOrigin",
    "RmiStub",
    "SwitchboardStub",
    "Vig",
    "VigStats",
    "ViewAccessPolicy",
    "ViewRuntime",
    "ViewSpec",
    "interface_from_class",
    "parse_signature",
    "represented_fields",
    "represented_methods",
    "wrap_with_coherence",
]
