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
  and copies the declarations of all used class fields"): one AST pass
  over each method's source, :func:`self_effects`.
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
import functools
import inspect
import textwrap
from dataclasses import dataclass, field, is_dataclass
from typing import Any, Callable, NamedTuple, Optional

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

# Calls trusted to change neither their receiver nor their arguments.
_PURE_BUILTINS = frozenset({
    "abs", "all", "any", "bool", "dict", "enumerate", "float", "frozenset", "getattr",
    "hasattr", "id", "int", "isinstance", "len", "list", "max", "min", "range", "repr",
    "reversed", "set", "sorted", "str", "sum", "tuple", "type", "zip",
})
_READ_ONLY_METHODS = frozenset({"copy", "count", "get", "index", "items", "keys", "values"})


class SelfEffects(NamedTuple):
    """What a method does to its ``self``: the names it reads, stores
    (``=``, ``+=``, ``del``, ``setattr``) or mutates in place, and the
    ``self`` methods it calls.  ``unnamed_write`` is a write through no
    literal name: ``self[k] = v``, ``f(self)``, ``setattr(self, n, v)``."""

    reads: frozenset[str]
    stores: frozenset[str]
    mutates: frozenset[str]
    calls: frozenset[str]
    unnamed_write: bool

    @property
    def names(self) -> frozenset[str]:
        return self.reads | self.stores | self.mutates | self.calls

    @property
    def writes(self) -> bool:  # the body itself; ``calls`` are not followed
        return bool(self.stores or self.mutates or self.unnamed_write)


def self_effects(source: str) -> SelfEffects:
    """VIG's one analysis of a method: what the first function defined in
    ``source`` does to its first parameter.  Conservative: a reported
    write may not happen, a missed one is a bug.  A computed name
    (``setattr(self, name, v)``) is not seen, only marked ``unnamed_write``.
    """
    func = next(node for node in ast.walk(ast.parse(source)) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))
    params = [*func.args.posonlyargs, *func.args.args]
    if not params:  # ``self`` hides in ``*args``: assume the worst
        return SelfEffects(frozenset(), frozenset(), frozenset(), frozenset(), True)
    me, nodes = params[0].arg, list(ast.walk(func))

    def is_self(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == me

    # Names that may alias self state -> the fields each may alias (none:
    # self itself; ``super()`` is self).  Flow-insensitive, to a fixpoint.
    aliases: dict[str, set[str]] = {me: set(), "super": set()}

    def reached(expr: ast.AST) -> Optional[set[str]]:
        """The fields ``expr`` may reach; None if no self state at all."""
        inner = list(ast.walk(expr))
        via = [aliases[n.id] for n in inner if isinstance(n, ast.Name) and n.id in aliases]
        return set().union(*via, {
            n.attr for n in inner if isinstance(n, ast.Attribute) and is_self(n.value)
        }) if via else None

    binders = [(node, target) for node in nodes for target in (
        getattr(node, "targets", None)
        or [getattr(node, "target", None) or getattr(node, "optional_vars", None)]
    ) if target is not None]
    changed = True
    while changed:
        changed = False
        for node, target in binders:
            fields = reached(node)
            for name in ast.walk(target) if fields is not None else ():
                if isinstance(name, ast.Name) and name.id not in (me, "super"):
                    known = aliases.get(name.id)
                    if known is None or not fields <= known:
                        aliases[name.id] = fields | (known or set())
                        changed = True

    reads, stores, mutates, calls = set(), set(), set(), set()
    unnamed = False

    def mutate(expr: ast.AST) -> None:
        nonlocal unnamed
        fields = reached(expr)
        if fields is not None:
            mutates.update(fields)
            unnamed = unnamed or not fields

    for node in nodes:
        if isinstance(node, ast.Attribute) and is_self(node.value):
            (reads if isinstance(node.ctx, ast.Load) else stores).add(node.attr)
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            if not isinstance(node.ctx, ast.Load):
                mutate(node.value)
        elif isinstance(node, ast.AugAssign):  # ``b += [x]`` extends an alias in place
            mutate(node.target)
        elif isinstance(node, ast.Call):
            callee, args = node.func, [*node.args, *(k.value for k in node.keywords)]
            builtin = getattr(callee, "id", None)
            if builtin in ("setattr", "delattr", "getattr", "hasattr") and \
                    len(node.args) > 1 and is_self(node.args[0]):
                name = getattr(node.args[1], "value", None)
                if isinstance(name, str):
                    (reads if builtin in _PURE_BUILTINS else stores).add(name)
                unnamed = unnamed or not (isinstance(name, str) or builtin in _PURE_BUILTINS)
                args = args[2:]
            if builtin in _PURE_BUILTINS:
                args = [keyword.value for keyword in node.keywords]  # ``key=`` runs
            elif isinstance(callee, ast.Attribute) and is_self(callee.value):
                calls.add(callee.attr)
            elif getattr(callee, "attr", None) in _READ_ONLY_METHODS:
                args = []
            else:
                mutate(callee)
            for arg in args:
                mutate(arg)
    return SelfEffects(*map(frozenset, (reads, stores, mutates, calls)), unnamed)


@functools.cache
def method_effects(fn: Callable) -> SelfEffects:
    """:func:`self_effects` of a represented-class method, from its source;
    memoised per function, since reading the source costs more than a
    view build's other work (the cache keeps each analysed method alive)."""
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError) as exc:
        raise ViewGenerationError(
            f"method {getattr(fn, '__qualname__', fn)!r} has no Python source, "
            f"so VIG cannot tell what it touches; customize it in the XML rules"
        ) from exc
    # Unlike dedent, ``if 1:`` also parses a string with lines at column 0.
    return self_effects(f"if 1:\n{source}" if source[:1].isspace() else source)


def represented_fields(cls: type) -> set[str]:
    """Fields declared by a class hierarchy.

    Combines class-level annotations, non-callable class attributes, and
    the names each ``__init__`` along the MRO stores on ``self``.
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
        if inspect.isfunction(init):
            try:
                fields.update(method_effects(init).stores)
            except ViewGenerationError:
                if not is_dataclass(klass):  # a generated __init__ sets the annotations
                    raise
    return fields


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
        self._absorb_references(gen, method_name, method_effects(fn))

    def _absorb_references(
        self, gen: _Generation, origin_method: str, effects: SelfEffects
    ) -> None:
        """Copy helper methods and auto-replicate fields a method touches."""
        # A copied method whose self hides in ``*args`` (a wrapper) is opaque, not refused.
        code = getattr(gen.copied.get(origin_method), "__code__", None)
        if effects.unnamed_write and code and code.co_argcount and not gen.spec.replicated_fields:
            raise ViewGenerationError(
                f"view {gen.spec.name}: method {origin_method!r} writes self through a "
                f"computed name, which the view cannot sync to the original; declare "
                f"the fields it writes in <Replicates_Fields> or customize it"
            )
        for ref in sorted(effects.names):
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
                self._absorb_references(gen, ref, method_effects(helper))
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
            effects = self_effects(source)
            code = compile(source, f"<vig:{gen.spec.name}.{method.name}>", "exec")
        except SyntaxError as exc:
            raise ViewGenerationError(
                f"view {gen.spec.name}: body of {method.name!r} is not valid "
                f"Python (line {exc.lineno - 1}: {exc.msg}); rectify the XML rules"
            ) from exc
        self._absorb_references(gen, method.name, effects)
        namespace: dict[str, Any] = {}
        exec(code, namespace)
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
            self._origin = self._runtime.origin_port(spec.represents, self)
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
