"""VIG under generated represented classes.

A seeded generator writes classes as source text (int, list and dict
fields; methods drawn from a statement grammar that covers every write
shape the self-field analysis must see, plain reads, and calls into
private helpers) and random local-mode view specs over them.  Ground
truth comes from running the methods, not from the analysis.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ViewGenerationError, ViewSpecError
from repro.views import (
    COHERENCE_METHODS,
    InterfaceDef,
    InterfaceRegistry,
    MethodSig,
    MethodSpec,
    ViewRuntime,
    ViewSpec,
    Vig,
    method_writes_state,
)
from repro.views.spec import InterfaceMode, InterfaceRestriction

from . import exec_with_source

INITIAL = {"int": "0", "list": "[]", "dict": '{"k": 0, "box": []}'}

# (kind, writes?, lines): ``{f}`` is the field.  One write per shape of
# the analysis: augmented store, store by name, delete, mutator call,
# alias, augmented item, nested mutator, subscript store.
STATEMENTS = [
    ("int", True, ["self.{f} += 1"]),
    ("int", True, ['setattr(self, "{f}", self.{f} + 2)']),
    ("int", True, ["del self.{f}", "self.{f} = 5"]),
    ("int", False, ["r = self.{f} * 2"]),
    ("list", True, ["self.{f}.append(3)"]),
    ("list", True, ["b = self.{f}", "b.append(4)"]),
    ("list", True, ["b = self.{f}", "b += [5]"]),
    ("list", True, ["del self.{f}", "self.{f} = [9]"]),
    ("list", False, ["r = sum(self.{f}) + len(self.{f})"]),
    ("dict", True, ['self.{f}["k"] += 1']),
    ("dict", True, ['self.{f}["box"].append(1)']),
    ("dict", True, ['self.{f}["new"] = 2']),
    ("dict", False, ['r = self.{f}.get("k")', "r = sorted(self.{f})"]),
]

_modules = itertools.count()


@st.composite
def represented_classes(draw):
    """``(cls, public methods)``: a class emitted as source into a fresh
    module, so VIG can read every method's text."""
    kinds = draw(st.lists(st.sampled_from(sorted(INITIAL)), min_size=1, max_size=3))
    fields = {f"f{i}": kind for i, kind in enumerate(kinds)}

    def statement(allow_calls: int) -> list[str]:
        if allow_calls and draw(st.integers(0, 4)) == 0:
            return [f"self._h{draw(st.integers(0, allow_calls - 1))}()"]
        field = draw(st.sampled_from(sorted(fields)))
        lines = draw(st.sampled_from([s[2] for s in STATEMENTS if s[0] == fields[field]]))
        return [line.format(f=field) for line in lines]

    def body(allow_calls: int) -> list[str]:
        n = draw(st.integers(1, 3))
        return [line for _ in range(n) for line in statement(allow_calls)]

    helpers = [body(0) for _ in range(draw(st.integers(0, 2)))]
    publics = [body(len(helpers)) for _ in range(draw(st.integers(1, 4)))]
    name = f"Gen{next(_modules)}"
    source = [f"class {name}:", "    def __init__(self):"]
    source += [f"        self.{f} = {INITIAL[kind]}" for f, kind in fields.items()]
    for prefix, bodies in (("m", publics), ("_h", helpers)):
        for i, lines in enumerate(bodies):
            source += [f"    def {prefix}{i}(self):"] + [f"        {line}" for line in lines]
    cls = exec_with_source("\n".join(source) + "\n", name.lower())[name]
    return cls, [f"m{i}" for i in range(len(publics))]


@st.composite
def views(draw):
    """A class, a registry of interfaces over its public methods, and a
    local-mode spec restricting it to a random nonempty subset of them."""
    cls, methods = draw(represented_classes())
    groups: dict[str, list[str]] = {}
    for method in methods:
        groups.setdefault(f"{cls.__name__}I{draw(st.integers(0, 2))}", []).append(method)
    registry = InterfaceRegistry()
    for iface, members in groups.items():
        registry.register(InterfaceDef(iface, tuple(MethodSig(m, ()) for m in members)))
    chosen = draw(st.lists(st.sampled_from(sorted(groups)), min_size=1, unique=True))
    spec = ViewSpec(
        name=f"{cls.__name__}View",
        represents=cls.__name__,
        interfaces=tuple(InterfaceRestriction(i, InterfaceMode.LOCAL) for i in chosen),
    )
    return cls, registry, spec, sorted(m for i in chosen for m in groups[i])


def _state(obj) -> dict:
    return copy.deepcopy(vars(obj))


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(represented_classes())
def test_the_write_classifier_is_sound(generated):
    """(a) A method that changes state when run is classified as writing."""
    cls, methods = generated
    for method in methods:
        obj = cls()
        before = _state(obj)
        getattr(obj, method)()
        if _state(obj) != before:
            assert method_writes_state(cls, method), method


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(views(), st.data())
def test_views_of_generated_classes(generated, data):
    cls, registry, spec, exposed = generated
    view_cls = Vig(registry).generate(spec, cls)

    # (b) The view exposes exactly its spec's methods.
    public = {
        name for klass in view_cls.__mro__[:-1] for name in vars(klass)
        if not name.startswith("_") and name not in COHERENCE_METHODS
    }
    assert public == set(exposed)

    # (c) Under ON_DEMAND, each call (acquire, run, release) leaves the
    # origin as the same call leaves a twin of it.
    origin = cls()
    twin = copy.deepcopy(origin)
    view = view_cls(ViewRuntime(local_objects={cls.__name__: origin}))
    for method in data.draw(st.lists(st.sampled_from(exposed), max_size=4)):
        getattr(view, method)()
        getattr(twin, method)()
        assert vars(origin) == vars(twin)

    # (d) Extract then merge is the identity on the replicated fields.
    replicated = {
        name: copy.deepcopy(getattr(view, name)) for name in view_cls.__replicated_fields__
    }
    view.mergeImageIntoView(view.extractImageFromView())
    assert {name: getattr(view, name) for name in replicated} == replicated
    held = _state(origin)
    view.mergeImageIntoObj(view.extractImageFromObj())
    assert vars(origin) == held


UNKNOWN = ["ghost", "f9", "_h9", "m9"]
PLACES = ["interface method", "interface", "copied method", "customized method", "body"]


@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(views(), st.sampled_from(UNKNOWN), st.sampled_from(PLACES))
def test_unknown_members_raise_typed_errors(generated, unknown, place):
    """(e) A spec naming a member the class lacks fails with a spec or
    generation error, never another exception."""
    cls, registry, spec, _ = generated
    registry.register(InterfaceDef("GhostI", (MethodSig(unknown, ()),)))
    change = {
        "interface method": {"interfaces": spec.interfaces + (
            InterfaceRestriction("GhostI", InterfaceMode.LOCAL),
        )},
        "interface": {"interfaces": (InterfaceRestriction(f"{unknown}I", InterfaceMode.LOCAL),)},
        "copied method": {"copied_methods": (unknown,)},
        "customized method": {"customized_methods": (MethodSpec(unknown, (), "return None"),)},
        "body": {"added_methods": (MethodSpec("probe", (), f"return self.{unknown}"),)},
    }[place]
    with pytest.raises((ViewSpecError, ViewGenerationError)):
        Vig(registry).generate(dataclasses.replace(spec, **change), cls)
