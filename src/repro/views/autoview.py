"""Automatic view inference from programmer hints (§6 future work).

"VIG is designed to create views based on a set of simple rules and the
original object. ... In the future, we plan to fully automate the process
of creating views based on a few hints from the programmer."

:func:`infer_view_spec` implements that plan: given the represented class,
the registered interfaces, and a *hint* — which methods the view's users
may call, and which interfaces must stay on the original object — it
synthesizes a complete :class:`~repro.views.spec.ViewSpec`:

* interfaces whose methods are all allowed become **local** (full copies);
* interfaces listed in ``remote`` (or containing a state-*writing* method
  when ``prefer_remote_writes`` is set) route to the original over
  **switchboard** (or ``rmi`` on request).  :func:`method_writes_state`
  is sound: it may call a read-only method writing (costing a remote
  hop), never the reverse (running a write on an untrusted copy);
* partially-allowed interfaces are included with the denied methods
  customized to raise ``PermissionError`` — method-granularity access
  control without hand-written XML;
* replicated fields fall out of VIG's own reference analysis, so the hint
  needs nothing about state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import ViewSpecError
from .interfaces import InterfaceDef, InterfaceRegistry
from .spec import (
    InterfaceMode,
    InterfaceRestriction,
    MethodSpec,
    ViewSpec,
)
from .vig import method_effects, represented_methods


@dataclass(slots=True)
class ViewHint:
    """The 'few hints from the programmer'."""

    allow: frozenset[str]
    """Method names the view's clients may invoke."""
    remote: frozenset[str] = frozenset()
    """Interface names that must execute on the original object."""
    remote_mode: InterfaceMode = InterfaceMode.SWITCHBOARD
    deny_message: str = "method {name} is not available in this view"

    def __init__(
        self,
        allow: Iterable[str],
        *,
        remote: Iterable[str] = (),
        remote_mode: InterfaceMode = InterfaceMode.SWITCHBOARD,
        deny_message: str | None = None,
    ) -> None:
        object.__setattr__(self, "allow", frozenset(allow))
        object.__setattr__(self, "remote", frozenset(remote))
        object.__setattr__(self, "remote_mode", remote_mode)
        if deny_message is not None:
            object.__setattr__(self, "deny_message", deny_message)
        else:
            object.__setattr__(
                self, "deny_message", "method {name} is not available in this view"
            )


def method_writes_state(represented: type, name: str) -> bool:
    """Whether calling ``represented.<name>`` may change the instance.

    Sound, not exact: a True may be a false positive, a False is a
    proof.  It reads :func:`~repro.views.vig.method_effects` of the
    method and of every ``self`` method it calls, transitively; a call
    through a field (``self.callback()``) counts as a write.
    """
    methods = represented_methods(represented)
    seen: set[str] = set()

    def writes(current: str) -> bool:
        seen.add(current)
        if current not in methods:
            return True
        effects = method_effects(methods[current])
        return effects.writes or any(writes(callee) for callee in effects.calls - seen)

    return writes(name)


def infer_view_spec(
    name: str,
    represented: type,
    registry: InterfaceRegistry,
    hint: ViewHint,
    *,
    interfaces: Iterable[str] | None = None,
    prefer_remote_writes: bool = False,
) -> ViewSpec:
    """Synthesize a complete view spec from a hint.

    Args:
        name: view class name.
        represented: the original object's class.
        registry: interface registry; ``interfaces`` defaults to every
            registered interface fully implemented by ``represented``.
        hint: the allowed-method / remote-interface hint.
        prefer_remote_writes: when True, interfaces containing any
            state-writing method are routed remotely even without an
            explicit ``remote`` hint (a conservative data-placement
            policy for untrusted client machines).

    Raises:
        ViewSpecError: if the hint allows a method no registered interface
            declares, or names an unknown remote interface.
    """
    methods = represented_methods(represented)
    candidate_names = list(interfaces) if interfaces is not None else registry.names()
    candidates: list[InterfaceDef] = []
    for iface_name in candidate_names:
        iface = registry.get(iface_name)
        if all(sig.name in methods for sig in iface.methods):
            candidates.append(iface)

    declared = {
        sig.name for iface in candidates for sig in iface.methods
    }
    unknown_allowed = hint.allow - declared
    if unknown_allowed:
        raise ViewSpecError(
            f"hint allows {sorted(unknown_allowed)}, but no registered "
            f"interface of {represented.__name__} declares them"
        )
    unknown_remote = hint.remote - {iface.name for iface in candidates}
    if unknown_remote:
        raise ViewSpecError(
            f"hint marks {sorted(unknown_remote)} remote, but they are not "
            f"interfaces of {represented.__name__}"
        )

    restrictions: list[InterfaceRestriction] = []
    denials: list[MethodSpec] = []
    for iface in candidates:
        iface_methods = set(iface.method_names())
        allowed = iface_methods & hint.allow
        if not allowed:
            continue  # interface entirely absent from the view
        remote = iface.name in hint.remote
        if not remote and prefer_remote_writes:
            remote = any(
                method_writes_state(represented, sig.name) for sig in iface.methods
            )
        mode = hint.remote_mode if remote else InterfaceMode.LOCAL
        restrictions.append(
            InterfaceRestriction(name=iface.name, mode=mode, binding=iface.name)
        )
        for denied in sorted(iface_methods - hint.allow):
            sig = iface.method(denied)
            message = hint.deny_message.format(name=denied)
            denials.append(
                MethodSpec(
                    name=denied,
                    params=sig.params,
                    body=f"raise PermissionError({message!r})",
                )
            )

    if not restrictions:
        raise ViewSpecError(
            f"hint for {name} admits no interface of {represented.__name__}"
        )

    return ViewSpec(
        name=name,
        represents=represented.__name__,
        interfaces=tuple(restrictions),
        customized_methods=tuple(denials),
    )
