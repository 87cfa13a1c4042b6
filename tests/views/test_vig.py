"""VIG tests: generation, restriction, customization, validation errors,
coherence wrapping, caching, and the mirrored inheritance chain."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ViewGenerationError
from repro.views import (
    InterfaceDef,
    InterfaceRegistry,
    MethodSig,
    Vig,
    ViewRuntime,
    ViewSpec,
)
from repro.views.spec import (
    InterfaceMode,
    InterfaceRestriction,
    FieldSpec,
    MethodSpec,
)
from repro.views.vig import method_effects, represented_fields, represented_methods


class Counter:
    """Simple represented class with a private helper and two fields."""

    def __init__(self):
        self.count = 0
        self.log = []

    def increment(self):
        self.count = self.count + 1
        self._record("inc")
        return self.count

    def current(self):
        return self.count

    def reset(self):
        self.count = 0
        return True

    def _record(self, what):
        self.log.append(what)


CounterI = InterfaceDef(
    "CounterI",
    (MethodSig("increment", ()), MethodSig("current", ())),
)
ResetI = InterfaceDef("ResetI", (MethodSig("reset", ()),))


@pytest.fixture()
def vig():
    registry = InterfaceRegistry()
    registry.register(CounterI)
    registry.register(ResetI)
    return Vig(registry)


def local_spec(name="CounterView", interfaces=("CounterI",), **kwargs):
    return ViewSpec(
        name=name,
        represents="Counter",
        interfaces=tuple(
            InterfaceRestriction(n, InterfaceMode.LOCAL) for n in interfaces
        ),
        **kwargs,
    )


class TestIntrospection:
    def test_self_attribute_refs(self):
        refs = method_effects(Counter.increment).names
        assert {"count", "_record"} <= refs

    def test_represented_fields(self):
        assert {"count", "log"} <= represented_fields(Counter)

    def test_dataclass_fields_come_from_annotations(self):
        @dataclasses.dataclass
        class Point:  # its generated __init__ has no source to read
            x: int
            y: int

        assert represented_fields(Point) == {"x", "y"}

    def test_represented_methods(self):
        methods = represented_methods(Counter)
        assert {"increment", "current", "reset", "_record"} <= set(methods)


class Tally:
    """Writes VIG used to miss: an augmented store and a store by name."""

    def __init__(self):
        self.n = 0
        self.tag = ""

    def bump(self):
        self.n += 1

    def label(self, v):
        setattr(self, "tag", v)


class TestCopiedWritesReachTheOriginal:
    def _view(self, method, params):
        registry = InterfaceRegistry()
        registry.register(InterfaceDef("TallyI", (MethodSig(method, params),)))
        spec = ViewSpec(
            name=f"Tally_{method}",
            represents="Tally",
            interfaces=(InterfaceRestriction("TallyI", InterfaceMode.LOCAL),),
        )
        origin = Tally()
        view_cls = Vig(registry).generate(spec, Tally)
        return view_cls(ViewRuntime(local_objects={"Tally": origin})), origin

    def test_augmented_store(self):
        view, origin = self._view("bump", ())
        view.bump()
        view.bump()
        assert origin.n == 2

    def test_store_by_name(self):
        view, origin = self._view("label", ("v",))
        view.label("seen")
        assert origin.tag == "seen"


class Box:
    """A write through a computed name, which no analysis can name."""

    def __init__(self):
        self.lid = None

    def put(self, name, v):
        setattr(self, name, v)


class TestComputedNameWrites:
    def _spec(self, **kwargs):
        return ViewSpec(
            name="BoxView",
            represents="Box",
            interfaces=(InterfaceRestriction("BoxI", InterfaceMode.LOCAL),),
            **kwargs,
        )

    def _vig(self):
        registry = InterfaceRegistry()
        registry.register(InterfaceDef("BoxI", (MethodSig("put", ("name", "v")),)))
        return Vig(registry)

    def test_a_copied_computed_name_write_is_refused(self):
        with pytest.raises(ViewGenerationError, match="'put'.*computed name"):
            self._vig().generate(self._spec(), Box)

    def test_a_wrapper_whose_self_hides_in_args_is_not_refused(self):
        def wrap(fn):
            def shim(*args, **kwargs):
                return fn(*args, **kwargs)
            return shim

        class Wrapped(Box):
            put = wrap(Box.put)

        assert self._vig().generate(self._spec(), Wrapped).__name__ == "BoxView"

    def test_declared_fields_are_the_contract(self):
        view_cls = self._vig().generate(self._spec(replicated_fields=("lid",)), Box)
        origin = Box()
        view = view_cls(ViewRuntime(local_objects={"Box": origin}))
        view.put("lid", "shut")
        assert origin.lid == "shut"


class TestGeneration:
    def test_local_methods_copied_and_work(self, vig):
        view_cls = vig.generate(local_spec(), Counter)
        origin = Counter()
        view = view_cls(ViewRuntime(local_objects={"Counter": origin}))
        assert view.increment() == 1
        assert view.current() == 1

    def test_restriction_hides_other_methods(self, vig):
        view_cls = vig.generate(local_spec(), Counter)
        view = view_cls(ViewRuntime(local_objects={"Counter": Counter()}))
        assert not hasattr(view, "reset")

    def test_fields_auto_replicated(self, vig):
        view_cls = vig.generate(local_spec(), Counter)
        assert "count" in view_cls.__replicated_fields__
        assert "log" in view_cls.__replicated_fields__  # via _record helper

    def test_helper_methods_copied(self, vig):
        view_cls = vig.generate(local_spec(), Counter)
        assert hasattr(view_cls, "_record")

    def test_coherence_pushes_to_origin(self, vig):
        view_cls = vig.generate(local_spec(), Counter)
        origin = Counter()
        view = view_cls(ViewRuntime(local_objects={"Counter": origin}))
        view.increment()
        assert origin.count == 1
        assert origin.log == ["inc"]

    def test_coherence_pulls_from_origin(self, vig):
        view_cls = vig.generate(local_spec(), Counter)
        origin = Counter()
        view = view_cls(ViewRuntime(local_objects={"Counter": origin}))
        origin.count = 41
        assert view.increment() == 42

    def test_customized_method_overrides(self, vig):
        spec = local_spec(
            customized_methods=(
                MethodSpec("current", (), "return -self.count"),
            )
        )
        view_cls = vig.generate(spec, Counter)
        origin = Counter()
        origin.count = 5
        view = view_cls(ViewRuntime(local_objects={"Counter": origin}))
        assert view.current() == -5

    def test_added_method(self, vig):
        spec = local_spec(
            added_methods=(
                MethodSpec("double", (), "return self.count * 2"),
            )
        )
        view_cls = vig.generate(spec, Counter)
        origin = Counter()
        origin.count = 21
        view = view_cls(ViewRuntime(local_objects={"Counter": origin}))
        assert view.double() == 42

    def test_added_field_initialized_none(self, vig):
        spec = local_spec(added_fields=(FieldSpec(name="scratch"),))
        view_cls = vig.generate(spec, Counter)
        view = view_cls(ViewRuntime(local_objects={"Counter": Counter()}))
        assert view.scratch is None

    def test_constructor_body_runs_last(self, vig):
        spec = local_spec(
            added_fields=(FieldSpec(name="banner"),),
            constructor_body="self.banner = 'ready:' + str(self.count)",
        )
        view_cls = vig.generate(spec, Counter)
        origin = Counter()
        origin.count = 7
        view = view_cls(ViewRuntime(local_objects={"Counter": origin}))
        assert view.banner == "ready:7"

    def test_view_metadata(self, vig):
        spec = local_spec()
        view_cls = vig.generate(spec, Counter)
        assert view_cls.__view_spec__ is spec
        assert view_cls.__represents__ is Counter
        assert view_cls.__view_interfaces__ == ("CounterI",)
        assert view_cls.__name__ == "CounterView"


class TestValidationErrors:
    """The paper: VIG errors 'indicate how the XML rules can be rectified'."""

    def test_unknown_interface(self, vig):
        with pytest.raises(ViewGenerationError, match="not .*registered"):
            vig.generate(local_spec(interfaces=("GhostI",)), Counter)

    def test_interface_method_missing_from_object(self, vig):
        registry = vig.interfaces
        registry.register(InterfaceDef("BadI", (MethodSig("missing", ()),)))
        with pytest.raises(ViewGenerationError, match="not defined by"):
            vig.generate(local_spec(interfaces=("BadI",)), Counter)

    def test_unknown_self_reference_in_body(self, vig):
        spec = local_spec(
            added_methods=(MethodSpec("bad", (), "return self.ghost"),)
        )
        with pytest.raises(ViewGenerationError, match="self.ghost"):
            vig.generate(spec, Counter)

    def test_error_names_the_fix(self, vig):
        spec = local_spec(
            added_methods=(MethodSpec("bad", (), "return self.ghost"),)
        )
        with pytest.raises(ViewGenerationError, match="<Field"):
            vig.generate(spec, Counter)

    def test_syntax_error_in_body(self, vig):
        spec = local_spec(
            added_methods=(MethodSpec("bad", (), "return ((("),)
        )
        with pytest.raises(ViewGenerationError, match="rectify the XML rules"):
            vig.generate(spec, Counter)

    def test_compile_time_error_in_body(self, vig):
        spec = local_spec(added_methods=(MethodSpec("bad", (), "nonlocal x"),))
        with pytest.raises(ViewGenerationError, match="no binding for nonlocal"):
            vig.generate(spec, Counter)

    def test_method_without_source_is_named(self):
        namespace: dict = {}
        exec("def tick(self):\n    self.n += 1", namespace)
        Opaque = type("Opaque", (), {"tick": namespace["tick"]})
        registry = InterfaceRegistry()
        registry.register(InterfaceDef("TickI", (MethodSig("tick", ()),)))
        spec = ViewSpec(
            name="OpaqueView",
            represents="Opaque",
            interfaces=(InterfaceRestriction("TickI", InterfaceMode.LOCAL),),
        )
        with pytest.raises(ViewGenerationError, match="'tick' has no Python source"):
            Vig(registry).generate(spec, Opaque)

    def test_customizing_nonexistent_method(self, vig):
        spec = local_spec(
            customized_methods=(MethodSpec("ghost", (), "pass"),)
        )
        with pytest.raises(ViewGenerationError, match="Adds_Methods"):
            vig.generate(spec, Counter)

    def test_adding_existing_method(self, vig):
        spec = local_spec(
            added_methods=(MethodSpec("reset", (), "pass"),)
        )
        with pytest.raises(ViewGenerationError, match="Customizes_Methods"):
            vig.generate(spec, Counter)


class TestCaching:
    """Generation deferred + cached: cost proportional to utility."""

    def test_same_spec_hits_cache(self, vig):
        spec = local_spec()
        first = vig.generate(spec, Counter)
        second = vig.generate(spec, Counter)
        assert first is second
        assert vig.stats.generated == 1
        assert vig.stats.cache_hits == 1

    def test_equivalent_spec_hits_cache(self, vig):
        assert vig.generate(local_spec(), Counter) is vig.generate(
            local_spec(), Counter
        )

    def test_different_spec_regenerates(self, vig):
        a = vig.generate(local_spec(), Counter)
        b = vig.generate(local_spec(name="Other"), Counter)
        assert a is not b
        assert vig.stats.generated == 2


class TestInheritanceMirroring:
    def test_shadow_chain_mirrors_extends(self, vig):
        class Base:
            def __init__(self):
                self.base_field = 1

            def base_method(self):
                return self.base_field

        class Derived(Base):
            def __init__(self):
                super().__init__()
                self.derived_field = 2

            def derived_method(self):
                return self.derived_field

        iface = InterfaceDef(
            "BothI",
            (MethodSig("base_method", ()), MethodSig("derived_method", ())),
        )
        vig.interfaces.register(iface)
        spec = ViewSpec(
            name="DerivedView",
            represents="Derived",
            interfaces=(InterfaceRestriction("BothI", InterfaceMode.LOCAL),),
        )
        view_cls = vig.generate(spec, Derived)
        shadows = [getattr(c, "__shadows__", None) for c in view_cls.__mro__]
        assert Base in shadows  # the extends chain is mirrored
        origin = Derived()
        view = view_cls(ViewRuntime(local_objects={"Derived": origin}))
        assert view.base_method() == 1
        assert view.derived_method() == 2


class TestXmlEndToEnd:
    def test_generate_from_xml(self, vig):
        xml = """
        <View name="XmlView">
          <Represents name="Counter"/>
          <Restricts><Interface name="CounterI" type="local"/></Restricts>
          <Customizes_Methods>
            <MSign>int current()</MSign>
            <MBody>return self.count * 10</MBody>
          </Customizes_Methods>
        </View>
        """
        view_cls = vig.generate_from_xml(xml, Counter)
        origin = Counter()
        origin.count = 3
        view = view_cls(ViewRuntime(local_objects={"Counter": origin}))
        assert view.current() == 30


class TestViewProperties:
    """§4.2: "view properties to be specified at creation time"."""

    def test_spec_properties_flow_to_instance(self, vig):
        spec = local_spec()
        spec.properties["tier"] = "partner"
        view_cls = vig.generate(spec, Counter)
        view = view_cls(ViewRuntime(local_objects={"Counter": Counter()}))
        assert view.properties["tier"] == "partner"

    def test_creation_time_properties_override_spec(self, vig):
        spec = local_spec(name="PropView")
        spec.properties["tier"] = "default"
        view_cls = vig.generate(spec, Counter)
        view = view_cls(
            ViewRuntime(local_objects={"Counter": Counter()}),
            properties={"tier": "gold", "extra": 1},
        )
        assert view.properties == {"tier": "gold", "extra": 1}

    def test_properties_reach_cache_manager(self, vig):
        view_cls = vig.generate(local_spec(name="CmProps"), Counter)
        view = view_cls(
            ViewRuntime(local_objects={"Counter": Counter()}),
            properties={"sync": "eager"},
        )
        assert view._cache_manager.properties["sync"] == "eager"

    def test_instances_do_not_share_property_dicts(self, vig):
        view_cls = vig.generate(local_spec(name="PropIso"), Counter)
        origin = Counter()
        a = view_cls(ViewRuntime(local_objects={"Counter": origin}))
        b = view_cls(ViewRuntime(local_objects={"Counter": origin}))
        a.properties["x"] = 1
        assert "x" not in b.properties
