"""The traced pass: timing shims around each layer's boundary callables.

Layers are the ``src/repro`` packages.  :data:`BOUNDARIES` is a fixed
table ``(module, attribute) -> layer`` of callables through which work
enters a layer.  While :func:`installed` is active each one is replaced —
a class-attribute or module-attribute patch, restored on exit — by a shim
that records a span: name, layer, start, end, the span that caused it
(from a span stack) and the index of the benchmark op in flight.  Nothing
under ``src/`` changes; spans inside the program are a later change.

A layer's **self time** is the sum over its spans of their duration minus
the time their child spans cover.  Code that is not behind a boundary of
its own accrues to the nearest enclosing one: private helpers to the
public method that called them, and everything a workload does outside
any boundary to ``bench`` (``bench.other_frac``).

If a callable named here no longer exists, the traced pass prints
``LAYER-COVERAGE-LOST <path>`` and reports that layer's metrics as null:
a later refactor must show up as lost coverage, never as a silent zero.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Callable, Iterator

LAYERS = ("crypto", "drbac", "net", "switchboard", "views", "psf", "mail")

# A trailing ``.*`` names every public method the class itself defines.
BOUNDARIES: tuple[tuple[str, str, str], ...] = (
    ("repro.crypto.rsa", "RsaPrivateKey.sign", "crypto"),
    ("repro.crypto.rsa", "RsaPublicKey.verify", "crypto"),
    # Patched where it is called from: ``Identity.generate`` holds its
    # own reference to the function.
    ("repro.crypto.keys", "generate_keypair", "crypto"),
    ("repro.crypto.dh", "DiffieHellman.__post_init__", "crypto"),
    ("repro.crypto.dh", "DiffieHellman.compute_shared", "crypto"),
    ("repro.crypto.cipher", "AuthenticatedCipher.encrypt", "crypto"),
    ("repro.crypto.cipher", "AuthenticatedCipher.decrypt", "crypto"),
    ("repro.drbac.cache", "CachedAuthorizer.authorize", "drbac"),
    ("repro.drbac.cache", "CachedAuthorizer.is_authorized", "drbac"),
    ("repro.drbac.engine", "DrbacEngine.find_proof", "drbac"),
    ("repro.drbac.engine", "DrbacEngine.prove", "drbac"),
    ("repro.drbac.engine", "DrbacEngine.authorize", "drbac"),
    ("repro.drbac.engine", "DrbacEngine.delegate", "drbac"),
    ("repro.drbac.engine", "DrbacEngine.revoke", "drbac"),
    ("repro.drbac.engine", "DrbacEngine.is_a", "drbac"),
    ("repro.drbac.repository", "DistributedRepository.publish", "drbac"),
    ("repro.drbac.repository", "DistributedRepository.collect", "drbac"),
    ("repro.drbac.verify", "ProofVerifier.verify", "drbac"),
    ("repro.net.transport", "Transport.send", "net"),
    ("repro.net.events", "EventScheduler.step", "net"),
    ("repro.net.events", "EventScheduler.run_until", "net"),
    ("repro.net.simnet", "Network.shortest_path", "net"),
    # The inbound boundary: everything under ``deliver`` is the service
    # handler bound on the node, and both services that exist (plain RPC
    # and Switchboard) belong to the switchboard layer.
    ("repro.net.simnet", "SimNode.deliver", "switchboard"),
    ("repro.switchboard.rpc", "PlainRpcEndpoint.call", "switchboard"),
    ("repro.switchboard.rpc", "PendingCall.wait", "switchboard"),
    ("repro.switchboard.rpc", "RpcPipeline.call", "switchboard"),
    ("repro.switchboard.rpc", "RpcPipeline.drain", "switchboard"),
    ("repro.switchboard.rpc", "ObjectExporter.dispatch", "switchboard"),
    ("repro.switchboard.rpc", "encode_frame", "switchboard"),
    ("repro.switchboard.rpc", "decode_frame", "switchboard"),
    ("repro.switchboard.channel", "encode_frame", "switchboard"),
    ("repro.switchboard.channel", "decode_frame", "switchboard"),
    ("repro.switchboard.channel", "SwitchboardEndpoint.connect", "switchboard"),
    ("repro.switchboard.channel", "PendingConnection.wait", "switchboard"),
    ("repro.switchboard.channel", "SwitchboardConnection.call", "switchboard"),
    ("repro.switchboard.channel", "SwitchboardConnection.close", "switchboard"),
    ("repro.switchboard.authorizer", "RoleAuthorizer.authorize", "switchboard"),
    ("repro.views.vig", "Vig.generate", "views"),
    ("repro.views.acl", "ViewAccessPolicy.resolve", "views"),
    ("repro.views.coherence", "CacheManager.acquire_image", "views"),
    ("repro.views.coherence", "CacheManager.release_image", "views"),
    ("repro.views.coherence", "ImageService.*", "views"),
    ("repro.views.proxies", "ViewRuntime.*", "views"),
    ("repro.psf.planner", "Planner.plan", "psf"),
    ("repro.psf.deployment", "Deployer.deploy", "psf"),
    ("repro.psf.deployment", "Deployment.client_access", "psf"),
    ("repro.psf.framework", "PSF.request_service", "psf"),
    ("repro.psf.framework", "PSF.serve_client_view", "psf"),
    ("repro.mail.server", "MailServer.*", "mail"),
    ("repro.mail.client", "MailClient.*", "mail"),
    ("repro.mail.crypto_components", "Encryptor.*", "mail"),
    ("repro.mail.crypto_components", "Decryptor.*", "mail"),
)

VIEW_FACTORY = ("repro.views.vig", "Vig.generate")

Span = list
"""``[name, layer, parent index, op index, start ns, end ns]``."""


class Tracer:
    """In-memory span recorder; one per traced repetition."""

    def __init__(self, recorder: Any) -> None:
        self.recorder = recorder
        """Its ``op`` attribute is the shared identifier of an op's spans;
        while its ``in_oracle`` is set nothing is recorded."""
        self.spans: list[Span] = []
        self.active = False
        """Shims are installed before the world is built (so views
        generated at build time are shimmed too) but record only while
        the measured phase runs."""
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        spans, stack, recorder = self.spans, self._stack, self.recorder

        def shim(*args, **kwargs):
            if not self.active or recorder.in_oracle:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, layer, stack[-1] if stack else -1, recorder.op,
                    perf_counter_ns(), 0]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = perf_counter_ns()
                stack.pop()

        return shim

    def root(self, measure: Callable) -> Callable:
        """``measure`` under the root span; what no layer claims is its
        self time, reported as ``bench.other_frac``."""
        spanned = self.wrap(measure, "bench.measure", "bench")

        def run(world: Any, rec: Any) -> None:
            self.active = True
            try:
                spanned(world, rec)
            finally:
                self.active = False

        return run

    def self_times(self, by: int = 1) -> dict[str, int]:
        """Self time in ns — span durations minus child spans — summed
        per layer (``by=1``) or per span name (``by=0``)."""
        covered = [0] * len(self.spans)
        for _name, _layer, parent, _op, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, int] = {}
        for span, inner in zip(self.spans, covered):
            totals[span[by]] = totals.get(span[by], 0) + span[5] - span[4] - inner
        return totals

    def dump(self, path: str) -> None:
        keys = ("name", "layer", "parent", "op", "start_ns", "end_ns")
        with open(path, "w") as out:
            json.dump([dict(zip(keys, span)) for span in self.spans], out)


def _public_methods(cls: type) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (staticmethod, classmethod, type))
    ]


def _resolve(module_name: str, attribute: str) -> list[tuple[Any, str]]:
    """The ``(owner, name)`` pairs a table row patches; raises when the
    row names something that no longer exists."""
    owner: Any = importlib.import_module(module_name)
    *path, last = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if last == "*":
        return [(owner, name) for name in _public_methods(owner)]
    getattr(owner, last)
    return [(owner, last)]


@contextmanager
def installed(tracer: Tracer) -> Iterator[dict[str, list[str]]]:
    """Install every shim; yields ``layer -> lost paths`` (empty lists when
    the table still matches the program) and restores on exit."""
    lost: dict[str, list[str]] = {layer: [] for layer in LAYERS}
    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, label: str, layer: str) -> None:
        original = getattr(owner, name)
        undo.append((owner, name, original))
        setattr(owner, name, tracer.wrap(original, label, layer))

    # Generated views are classes VIG builds at run time: their public
    # methods are shimmed as ``Vig.generate`` hands each class out.
    seen: set[type] = set()

    def shim_generated(generate: Callable) -> Callable:
        def generate_and_shim(self, spec, represented):
            view_cls = generate(self, spec, represented)
            if view_cls not in seen:
                seen.add(view_cls)
                for name in _public_methods(view_cls):
                    patch(view_cls, name, f"view.{view_cls.__name__}.{name}", "views")
            return view_cls
        return generate_and_shim

    for module_name, attribute, layer in BOUNDARIES:
        path = f"{module_name}:{attribute}"
        try:
            targets = _resolve(module_name, attribute)
        except (ImportError, AttributeError):
            lost[layer].append(path)
            print(f"LAYER-COVERAGE-LOST {path}")
            continue
        for owner, name in targets:
            label = f"{getattr(owner, '__name__', owner)}.{name}"
            patch(owner, name, label.removeprefix("repro."), layer)
            if (module_name, attribute) == VIEW_FACTORY:
                setattr(owner, name, shim_generated(getattr(owner, name)))
    try:
        yield lost
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
