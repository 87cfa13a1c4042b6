"""VIG — the View Generator (Section 4.3).

"The view generation is handled by a tool called VIG, which takes the
class file of the represented object and an XML definition of the view and
produces a new classfile corresponding to the view."

The Java original rewrites bytecode with Javassist; this reproduction
synthesizes a Python class.  The observable contract is preserved:

* **Interfaces** — *local* interfaces have their method implementations
  copied from the represented class; *rmi* and *switchboard* interfaces
  become forwarders against the original object through the corresponding
  stub (Table 5's ``notesI_rmi.addNote()`` / ``addrI_switch.getPhone()``).
* **Methods** — added and customized method bodies are compiled from the
  spec's (Python) source.  Copied methods pull in the private helper
  methods they call (the paper follows the Java inheritance chain for the
  same reason) and the represented fields they touch, which are
  auto-enrolled in the replicated-field set ("VIG parses the method code
  and copies the declarations of all used class fields").
* **Validation** — a method body referencing a name defined neither on the
  original object nor in the view triggers
  :class:`~repro.errors.ViewGenerationError` naming the offender, so VIG
  "can be used to both generate views at runtime and guide the
  programmer's effort to write correct XML files".
* **Coherence** — ``acquireImage``/``releaseImage`` bracket every method
  the view implements locally; the four image methods come from the spec
  or are synthesized from the replicated-field set (the paper's planned
  "default handlers", implemented here).
* **Inheritance** — when copied methods come from base classes of the
  represented class, VIG emits a parallel shadow-class chain so the
  view hierarchy mirrors the represented ``extends`` hierarchy.
* **Deferral & caching** — generation happens on first deployment and is
  cached by spec digest, keeping "management costs proportional to their
  utility".
"""

from __future__ import annotations

import ast
import dis
import functools
import textwrap
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import ViewGenerationError, ViewSpecError
from .coherence import CacheManager, CoherencePolicy
from .interfaces import InterfaceDef, InterfaceRegistry, MethodSig
from .proxies import ViewRuntime
from .spec import (
    COHERENCE_METHODS,
    InterfaceMode,
    InterfaceRestriction,
    MethodSpec,
    ViewSpec,
)

_RUNTIME_ATTRS = {
    "_runtime",
    "_cache_manager",
    "_origin",
    "_replicated_fields",
    "properties",
}


# --------------------------------------------------------------------------
# Introspection helpers
# --------------------------------------------------------------------------

def self_attribute_refs(fn: Callable) -> set[str]:
    """Names accessed as ``self.<name>`` inside a compiled function."""
    refs: set[str] = set()
    code = getattr(fn, "__code__", None)
    if code is None:
        return refs
    arg_names = code.co_varnames[: code.co_argcount]
    self_name = arg_names[0] if arg_names else "self"
    prev = None
    for instr in dis.get_instructions(code):
        if (
            prev is not None
            and prev.opname == "LOAD_FAST"
            and prev.argval == self_name
            and instr.opname in ("LOAD_ATTR", "STORE_ATTR", "DELETE_ATTR", "LOAD_METHOD")
        ):
            refs.add(instr.argval)
        prev = instr
    return refs


def ast_self_attribute_refs(body_source: str) -> set[str]:
    """Names accessed as ``self.<name>`` in spec-supplied Python source."""
    refs: set[str] = set()
    tree = ast.parse(body_source)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            refs.add(node.attr)
    return refs


def represented_fields(cls: type) -> set[str]:
    """Fields declared by a class hierarchy.

    Combines class-level annotations, non-callable class attributes, and
    ``self.<name> = ...`` stores found in each ``__init__`` along the MRO.
    """
    fields: set[str] = set()
    for klass in reversed(cls.__mro__[:-1]):  # skip object
        fields.update(getattr(klass, "__annotations__", ()))
        for name, value in vars(klass).items():
            if name.startswith("__"):
                continue
            if not callable(value):
                fields.add(name)
        init = vars(klass).get("__init__")
        if callable(init):
            fields.update(_init_stores(init))
    return fields


def _init_stores(init: Callable) -> set[str]:
    stores: set[str] = set()
    code = getattr(init, "__code__", None)
    if code is None:
        return stores
    arg_names = code.co_varnames[: code.co_argcount]
    self_name = arg_names[0] if arg_names else "self"
    prev = None
    for instr in dis.get_instructions(code):
        if (
            prev is not None
            and prev.opname == "LOAD_FAST"
            and prev.argval == self_name
            and instr.opname == "STORE_ATTR"
        ):
            stores.add(instr.argval)
        prev = instr
    return stores


def represented_methods(cls: type) -> dict[str, Callable]:
    """All callable attributes along the MRO, earliest definition wins."""
    methods: dict[str, Callable] = {}
    for klass in cls.__mro__[:-1]:
        for name, value in vars(klass).items():
            if name.startswith("__"):
                continue
            if callable(value) and name not in methods:
                methods[name] = value
    return methods


def defining_class(cls: type, method_name: str) -> type:
    for klass in cls.__mro__[:-1]:
        if method_name in vars(klass):
            return klass
    raise KeyError(method_name)


# --------------------------------------------------------------------------
# Coherence wrapping
# --------------------------------------------------------------------------

def wrap_with_coherence(fn: Callable) -> Callable:
    """Insert acquireImage/releaseImage around a view method."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        manager: CacheManager = self._cache_manager
        manager.acquire_image()
        try:
            return fn(self, *args, **kwargs)
        finally:
            manager.release_image()

    wrapper.__coherence_wrapped__ = True  # type: ignore[attr-defined]
    return wrapper


# --------------------------------------------------------------------------
# The generator
# --------------------------------------------------------------------------

@dataclass
class VigStats:
    generated: int = 0
    cache_hits: int = 0
    methods_copied: int = 0
    methods_forwarded: int = 0
    methods_compiled: int = 0
    helpers_copied: int = 0
    fields_auto_replicated: int = 0


@dataclass
class _Generation:
    """Mutable state for one generation pass."""

    spec: ViewSpec
    represented: type
    rep_fields: set[str]
    rep_methods: dict[str, Callable]
    replicated: set[str] = field(default_factory=set)
    copied: dict[str, Callable] = field(default_factory=dict)
    forwarders: dict[str, Callable] = field(default_factory=dict)
    compiled: dict[str, Callable] = field(default_factory=dict)
    stub_fields: dict[str, InterfaceRestriction] = field(default_factory=dict)


class Vig:
    """The view generator, with deferred generation and a digest cache."""

    def __init__(self, interface_registry: InterfaceRegistry | None = None) -> None:
        self.interfaces = interface_registry or InterfaceRegistry()
        self.stats = VigStats()
        self._cache: dict[tuple[str, str], type] = {}

    # -- entry points -----------------------------------------------------

    def generate(self, spec: ViewSpec, represented: type) -> type:
        """Produce (or fetch from cache) the view class for ``spec``."""
        key = (spec.digest(), f"{represented.__module__}.{represented.__qualname__}")
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        view_cls = self._build(spec, represented)
        self._cache[key] = view_cls
        self.stats.generated += 1
        return view_cls

    def generate_from_xml(self, xml_text: str, represented: type) -> type:
        return self.generate(ViewSpec.from_xml(xml_text), represented)

    # -- pipeline ----------------------------------------------------------

    def _build(self, spec: ViewSpec, represented: type) -> type:
        gen = _Generation(
            spec=spec,
            represented=represented,
            rep_fields=represented_fields(represented),
            rep_methods=represented_methods(represented),
        )
        gen.replicated.update(spec.replicated_fields)

        # Paper's processing order: (1) interfaces, (2) methods, (3) fields.
        self._process_interfaces(gen)
        for method_name in spec.copied_methods:
            self._copy_or_customize(gen, method_name)
        self._process_spec_methods(gen)
        self._process_fields(gen)
        self._ensure_coherence_methods(gen)
        return self._assemble(gen)

    # (1) interfaces -------------------------------------------------------

    def _process_interfaces(self, gen: _Generation) -> None:
        for restriction in gen.spec.interfaces:
            if restriction.name not in self.interfaces:
                raise ViewGenerationError(
                    f"view {gen.spec.name}: interface {restriction.name!r} is not "
                    f"registered; register it or fix the <Interface name> attribute"
                )
            interface = self.interfaces.get(restriction.name)
            if restriction.mode is InterfaceMode.LOCAL:
                for sig in interface.methods:
                    self._copy_or_customize(gen, sig.name)
            else:
                stub_attr = _stub_attr(restriction)
                gen.stub_fields[stub_attr] = restriction
                for sig in interface.methods:
                    if gen.spec.method_spec(sig.name) is not None:
                        # Customized methods win over forwarding.
                        continue
                    gen.forwarders[sig.name] = _make_forwarder(stub_attr, sig)
                    self.stats.methods_forwarded += 1

    def _copy_or_customize(self, gen: _Generation, method_name: str) -> None:
        if gen.spec.method_spec(method_name) is not None:
            return  # compiled later from the spec body
        if method_name in gen.copied:
            return
        fn = gen.rep_methods.get(method_name)
        if fn is None:
            raise ViewGenerationError(
                f"view {gen.spec.name}: method {method_name!r} is not defined by "
                f"the represented object {gen.represented.__name__}; "
                f"remove it from the interface or customize it in the XML rules"
            )
        gen.copied[method_name] = fn
        self.stats.methods_copied += 1
        self._absorb_references(gen, method_name, self_attribute_refs(fn))

    def _absorb_references(
        self, gen: _Generation, origin_method: str, refs: set[str]
    ) -> None:
        """Copy helper methods and auto-replicate fields a method touches."""
        for ref in sorted(refs):
            if ref in gen.copied or ref in gen.forwarders or ref in gen.stub_fields:
                continue
            if ref in _RUNTIME_ATTRS or ref in COHERENCE_METHODS:
                continue
            if gen.spec.method_spec(ref) is not None:
                continue
            if ref in {f.name for f in gen.spec.added_fields}:
                continue
            if ref in gen.replicated:
                continue
            if ref in gen.rep_methods:
                helper = gen.rep_methods[ref]
                gen.copied[ref] = helper
                self.stats.helpers_copied += 1
                self._absorb_references(gen, ref, self_attribute_refs(helper))
            elif ref in gen.rep_fields:
                gen.replicated.add(ref)
                self.stats.fields_auto_replicated += 1
            else:
                raise ViewGenerationError(
                    f"view {gen.spec.name}: method {origin_method!r} uses "
                    f"self.{ref}, which is defined neither in the original "
                    f"object {gen.represented.__name__} nor in the view; "
                    f"add a <Field name=\"{ref}\"/> or fix the method body"
                )

    # (2) methods ------------------------------------------------------------

    def _process_spec_methods(self, gen: _Generation) -> None:
        for method in gen.spec.customized_methods:
            if method.name not in gen.rep_methods and not any(
                method.name in self.interfaces.get(r.name)
                for r in gen.spec.interfaces
                if r.name in self.interfaces
            ):
                raise ViewGenerationError(
                    f"view {gen.spec.name}: <Customizes_Methods> names "
                    f"{method.name!r}, which the represented object does not "
                    f"define; use <Adds_Methods> for new methods"
                )
            gen.compiled[method.name] = self._compile_method(gen, method)
        for method in gen.spec.added_methods:
            if method.name in gen.rep_methods and method.name not in COHERENCE_METHODS:
                raise ViewGenerationError(
                    f"view {gen.spec.name}: <Adds_Methods> redefines "
                    f"{method.name!r}, which already exists on the represented "
                    f"object; use <Customizes_Methods> instead"
                )
            gen.compiled[method.name] = self._compile_method(gen, method)

    def _compile_method(self, gen: _Generation, method: MethodSpec) -> Callable:
        body = method.body.strip() or "pass"
        params = ", ".join(("self",) + method.params)
        source = f"def {method.name}({params}):\n" + textwrap.indent(
            textwrap.dedent(body), "    "
        )
        try:
            refs = ast_self_attribute_refs(textwrap.dedent(body))
        except SyntaxError as exc:
            raise ViewGenerationError(
                f"view {gen.spec.name}: body of {method.name!r} is not valid "
                f"Python (line {exc.lineno}: {exc.msg}); rectify the XML rules"
            ) from exc
        self._absorb_references(gen, method.name, refs)
        namespace: dict[str, Any] = {}
        try:
            exec(compile(source, f"<vig:{gen.spec.name}.{method.name}>", "exec"), namespace)
        except SyntaxError as exc:  # signature-level syntax issues
            raise ViewGenerationError(
                f"view {gen.spec.name}: cannot compile {method.name!r}: {exc.msg}"
            ) from exc
        self.stats.methods_compiled += 1
        return namespace[method.name]

    # (3) fields ---------------------------------------------------------------

    def _process_fields(self, gen: _Generation) -> None:
        overlap = {f.name for f in gen.spec.added_fields} & set(gen.replicated)
        if overlap:
            raise ViewGenerationError(
                f"view {gen.spec.name}: field(s) {sorted(overlap)} appear in both "
                f"<Adds_Fields> and <Replicates_Fields>; pick one"
            )

    # -- coherence -----------------------------------------------------------------

    def _ensure_coherence_methods(self, gen: _Generation) -> None:
        """Synthesize default image handlers when the spec omits them."""
        provided = set(gen.compiled)
        fields = sorted(gen.replicated)

        def extractImageFromView(self):
            return {name: getattr(self, name) for name in self._replicated_fields}

        def mergeImageIntoView(self, image):
            for name, value in image.items():
                setattr(self, name, value)

        def extractImageFromObj(self):
            if self._origin is None:
                return {}
            return self._origin.extract_image(list(self._replicated_fields))

        def mergeImageIntoObj(self, image):
            if self._origin is not None and image:
                self._origin.merge_image(image)

        defaults = {
            "extractImageFromView": extractImageFromView,
            "mergeImageIntoView": mergeImageIntoView,
            "extractImageFromObj": extractImageFromObj,
            "mergeImageIntoObj": mergeImageIntoObj,
        }
        for name, fn in defaults.items():
            if name not in provided:
                fn.__qualname__ = f"{gen.spec.name}.{name}"
                gen.compiled[name] = fn
        gen.replicated = set(fields) | gen.replicated

    # -- assembly ----------------------------------------------------------------------

    def _assemble(self, gen: _Generation) -> type:
        spec = gen.spec
        stub_fields = dict(gen.stub_fields)
        view_interface_names = tuple(r.name for r in spec.interfaces)

        user_init: Optional[Callable] = None
        if spec.constructor_body:
            user_init = self._compile_method(
                gen,
                MethodSpec(
                    name="__user_init__", params=("args",), body=spec.constructor_body
                ),
            )
            gen.compiled.pop("__user_init__", None)

        # Capture after every compilation step: bodies may have auto-
        # replicated additional represented fields.
        replicated = tuple(sorted(gen.replicated))
        added_fields = tuple(f.name for f in spec.added_fields)

        def __init__(
            self,
            runtime: ViewRuntime | None = None,
            *,
            policy: CoherencePolicy = CoherencePolicy.ON_DEMAND,
            properties: dict | None = None,
            args: tuple = (),
        ) -> None:
            self._runtime = runtime or ViewRuntime()
            self.properties = dict(spec.properties)
            self.properties.update(properties or {})
            self._replicated_fields = replicated
            for field_name in added_fields:
                setattr(self, field_name, None)
            # Resolve remote stubs (Table 5: Naming.lookup / Switchboard.lookup).
            for attr, restriction in stub_fields.items():
                binding = restriction.binding or restriction.name
                if restriction.mode is InterfaceMode.RMI:
                    setattr(self, attr, self._runtime.rmi_stub(binding))
                else:
                    setattr(self, attr, self._runtime.switchboard_stub(binding))
            # Reach the original object for images.
            self._origin = self._runtime.origin_port(spec.represents)
            if self._origin is None and replicated:
                from ..errors import ViewError

                raise ViewError(
                    f"view {spec.name} replicates fields {list(replicated)} but "
                    f"the original object {spec.represents!r} is unreachable "
                    f"(no local object and no image:{spec.represents} binding)"
                )
            # Initialize the cache manager (Table 5's CacheManager(properties, name)).
            self._cache_manager = CacheManager(
                self, policy=policy, properties=self.properties
            )
            # Prime replicated state with the original object's image.
            if replicated and self._origin is not None:
                self.mergeImageIntoView(self.extractImageFromObj())
            # User-supplied constructor code runs last.
            if user_init is not None:
                user_init(self, args)

        namespace: dict[str, Any] = {
            "__init__": __init__,
            "__view_spec__": spec,
            "__represents__": gen.represented,
            "__view_interfaces__": view_interface_names,
            "__replicated_fields__": replicated,
        }

        # Copied local methods, wrapped with acquire/release.
        for name, fn in gen.copied.items():
            namespace[name] = wrap_with_coherence(fn)
        # Remote forwarders: unwrapped — the functionality lives in the
        # original object, so the view image is not involved.
        for name, fn in gen.forwarders.items():
            namespace[name] = fn
        # Compiled (added/customized) methods: wrapped, except the image
        # methods themselves, which the CacheManager calls re-entrantly.
        for name, fn in gen.compiled.items():
            if name in COHERENCE_METHODS or name == "__user_init__":
                namespace[name] = fn
            else:
                namespace[name] = wrap_with_coherence(fn)

        bases = self._mirror_bases(gen)
        view_cls = type(spec.name, bases, namespace)
        view_cls.__module__ = "repro.views.generated"
        return view_cls

    def _mirror_bases(self, gen: _Generation) -> tuple[type, ...]:
        """Mirror the represented class's ``extends`` chain with shadows.

        For every proper base class of the represented object that defines
        at least one copied method, an empty shadow class named
        ``View_<Base>`` is emitted, chained in the same order, so that
        ``ViewX.__mro__`` parallels ``X.__mro__`` (the paper generates
        "views for every class in the chain such that the 'extends'
        relationships between views is similar").
        """
        chain: list[type] = []
        for klass in gen.represented.__mro__[1:-1]:  # proper bases, minus object
            if any(
                name in vars(klass)
                for name in gen.copied
            ):
                chain.append(klass)
        base: type = object
        for klass in reversed(chain):
            base = type(f"View_{klass.__name__}", (base,) if base is not object else (), {
                "__module__": "repro.views.generated",
                "__shadows__": klass,
            })
        return (base,) if base is not object else (object,)


def _stub_attr(restriction: InterfaceRestriction) -> str:
    prefix = "_rmi_" if restriction.mode is InterfaceMode.RMI else "_swb_"
    return prefix + restriction.name


def _make_forwarder(stub_attr: str, sig: MethodSig) -> Callable:
    """Build ``def m(self, a, b): return self._stub.m(a, b)`` dynamically
    so the forwarder has the real parameter names (helps introspection)."""
    params = ", ".join(("self",) + sig.params)
    args = ", ".join(sig.params)
    source = (
        f"def {sig.name}({params}):\n"
        f"    return getattr(self.{stub_attr}, {sig.name!r})({args})\n"
    )
    namespace: dict[str, Any] = {}
    exec(compile(source, f"<vig:forwarder:{sig.name}>", "exec"), namespace)
    fn = namespace[sig.name]
    fn.__forwarder__ = stub_attr  # type: ignore[attr-defined]
    return fn
