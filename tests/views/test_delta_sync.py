"""Remote views sync by delta: a differential test against whole-image
sync, the lost-write property, and what one view call puts on the wire.

Views here are VIG-generated and reach their original over plain RPC on
the simulated network, so every image crosses a real JSON wire.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import ViewError
from repro.net import EventScheduler, Network, Transport
from repro.switchboard import NamingRegistry, PlainRpcEndpoint, ServiceAddress
from repro.switchboard.rpc import RemoteError
from repro.views import (
    IMAGE_BINDING_PREFIX,
    ImageService,
    InterfaceRegistry,
    RemoteOrigin,
    Vig,
    ViewRuntime,
    ViewSpec,
    interface_from_class,
)
from repro.views.spec import InterfaceMode, InterfaceRestriction

FIELDS = ("n", "s", "items", "groups")
KEYS = ("a", "b", "c")


class Record:
    """The represented object: scalar, list and dict-of-list fields."""

    def __init__(self):
        self.n = 0
        self.s = ""
        self.items = []
        self.groups = {}

    def set_n(self, value):
        self.n = value

    def set_s(self, value):
        self.s = value

    def set_items(self, value):
        self.items = value

    def append_item(self, value):
        self.items.append(value)

    def front_item(self, value):
        self.items.insert(0, value)

    def pop_item(self):
        if self.items:
            self.items.pop()

    def set_group(self, key, value):
        self.groups[key] = value

    def append_group(self, key, value):
        self.groups.setdefault(key, []).append(value)

    def front_group(self, key, value):
        self.groups.setdefault(key, []).insert(0, value)

    def pop_group(self, key):
        if self.groups.get(key):
            self.groups[key].pop()

    def drop_group(self, key):
        self.groups.pop(key, None)

    def read(self):
        return [self.n, self.s, list(self.items), dict(self.groups)]


class FlakyImages(ImageService):
    """An ImageService that fails the next pull or push when armed, and
    records the digests each pull was sent."""

    def __init__(self, obj):
        super().__init__(obj)
        self.armed = None
        """``"pull"``, ``"push"`` (before applying) or ``"push-applied"``."""
        self.tripped = False
        self.pulls = []
        self.replies = []
        self.pushes = []

    def _trip(self, when):
        if self.armed == when:
            self.armed, self.tripped = None, True
            raise ViewError(f"injected {when} failure")

    def pull(self, fields, since):
        self.pulls.append(since)
        self._trip("pull")
        self.replies.append(super().pull(fields, since))
        return self.replies[-1]

    def push(self, ops):
        self.pushes.append(copy.deepcopy(ops))
        self._trip("push")
        super().push(ops)
        self._trip("push-applied")


class World:
    """One original on ``origin``; views of it on ``client``, each with
    its own image service so failures and pulls are per view."""

    def __init__(self, views=2):
        net = Network()
        net.add_node("origin")
        net.add_node("client")
        net.add_link("origin", "client", latency_s=0.001)
        transport = Transport(net, EventScheduler())
        self.transport = transport
        origin_rpc = PlainRpcEndpoint(transport, "origin")
        client_rpc = PlainRpcEndpoint(transport, "client")
        self.original = Record()
        registry = InterfaceRegistry()
        registry.register(interface_from_class(Record, "RecordI"))
        view_cls = Vig(registry).generate(
            ViewSpec(
                name="RecordView",
                represents="Record",
                interfaces=(InterfaceRestriction("RecordI", InterfaceMode.LOCAL),),
                replicated_fields=FIELDS,
            ),
            Record,
        )
        self.services, self.views = [], []
        for index in range(views):
            service = FlakyImages(self.original)
            target = f"record#image{index}"
            origin_rpc.exporter.export(target, service)
            naming = NamingRegistry()
            naming.bind(
                IMAGE_BINDING_PREFIX + "Record", ServiceAddress("origin", "rmi", target)
            )
            self.services.append(service)
            self.views.append(view_cls(ViewRuntime(naming=naming, rpc=client_rpc)))


def fields(obj):
    return {name: getattr(obj, name) for name in FIELDS}


def load(obj, image):
    for name, value in copy.deepcopy(image).items():
        setattr(obj, name, value)


_values = st.integers(-3, 3)
_lists = st.lists(_values, max_size=3)
_keys = st.sampled_from(KEYS)
METHODS = st.one_of(
    st.tuples(st.just("set_n"), st.tuples(_values)),
    st.tuples(st.just("set_s"), st.tuples(st.text("xy", max_size=3))),
    st.tuples(st.just("set_items"), st.tuples(_lists)),
    st.tuples(st.just("append_item"), st.tuples(_values)),
    st.tuples(st.just("front_item"), st.tuples(_values)),
    st.tuples(st.just("pop_item"), st.just(())),
    st.tuples(st.just("set_group"), st.tuples(_keys, _lists)),
    st.tuples(st.just("append_group"), st.tuples(_keys, _values)),
    st.tuples(st.just("front_group"), st.tuples(_keys, _values)),
    st.tuples(st.just("pop_group"), st.tuples(_keys)),
    st.tuples(st.just("drop_group"), st.tuples(_keys)),
    st.tuples(st.just("read"), st.just(())),
)
_view = st.integers(0, 1)
STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("call"), _view, METHODS,
            st.sampled_from([None, None, None, "pull", "push", "push-applied"]),
        ),
        st.tuples(st.just("origin"), METHODS),
        st.tuples(st.just("out-of-band"), _view, METHODS),
    ),
    max_size=25,
)


def apply(obj, method):
    name, args = method
    return getattr(Record, name)(obj, *copy.deepcopy(args))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(steps=STEPS)
@example(steps=[
    ("call", 0, ("set_group", ("b", [1])), None),
    ("out-of-band", 0, ("append_group", ("b", 9))),
    ("origin", ("drop_group", ("b",))),
    ("call", 0, ("read", ()), None),
])
def test_delta_sync_matches_whole_image_sync(steps):
    """After every step the original and both views hold what a view
    that pulls and pushes its whole image on every call would hold."""
    world = World()
    model_origin = Record()
    model_views = [Record(), Record()]
    full_pull_due = [False, False]
    for step in steps:
        if step[0] == "origin":
            apply(world.original, step[1])
            apply(model_origin, step[1])
        elif step[0] == "out-of-band":
            _, index, method = step
            apply(world.views[index], method)
            apply(model_views[index], method)
        else:
            _, index, method, failure = step
            service, view, model = world.services[index], world.views[index], model_views[index]
            service.armed, service.tripped = failure, False
            pulls, pushes = len(service.pulls), len(service.pushes)
            try:
                result = getattr(view, method[0])(*copy.deepcopy(method[1]))
            except RemoteError:
                assert service.tripped
            else:
                assert not service.tripped
                if method[0] == "read":
                    assert result == [model_origin.n, model_origin.s,
                                      model_origin.items, model_origin.groups]
            service.armed = None
            if failure != "pull":
                load(model, fields(model_origin))
                apply(model, method)
                if failure != "push":
                    load(model_origin, fields(model))
            assert len(service.pulls) == pulls + 1
            if full_pull_due[index]:
                assert service.pulls[pulls] == {}, "a failed sync must make the next pull full"
            full_pull_due[index] = service.tripped
            if method[0] == "read":
                assert len(service.pushes) == pushes, "a read pushed"
        assert fields(world.original) == fields(model_origin)
        for view, model in zip(world.views, model_views):
            assert fields(view) == fields(model)


def slot(method):
    name, args = method
    if name.endswith("_group"):
        return ("groups", args[0])
    return {"set_n": ("n",), "set_s": ("s",)}.get(name, ("items",))


def slot_value(obj, where):
    value = getattr(obj, where[0])
    return value.get(where[1], "absent") if len(where) == 2 else value


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    history=st.lists(st.tuples(_view, METHODS), max_size=6),
    first=METHODS,
    second=METHODS,
)
def test_a_write_to_another_slot_survives_a_concurrent_push(history, first, second):
    """View 0 pulls, view 1 completes a write to another slot or key, then
    view 0 writes and pushes: both writes reach the original."""
    assume("read" not in (first[0], second[0]) and slot(first) != slot(second))
    world = World()
    for index, method in history:
        getattr(world.views[index], method[0])(*copy.deepcopy(method[1]))
    slow, fast = world.views
    slow._cache_manager.acquire_image()
    apply(slow, first)
    getattr(fast, second[0])(*copy.deepcopy(second[1]))
    slow._cache_manager.release_image()
    assert slot_value(world.original, slot(first)) == slot_value(slow, slot(first))
    assert slot_value(world.original, slot(second)) == slot_value(fast, slot(second))


class TestWire:
    @pytest.fixture()
    def world(self):
        return World(views=1)

    def test_an_unchanged_view_pulls_nothing_and_pushes_nothing(self, world):
        view, service = world.views[0], world.services[0]
        view.append_group("a", 1)
        assert service.pushes == [[["set_key", "groups", "a", [1]]]]
        assert view.read() == [0, "", [], {"a": [1]}]
        assert set(service.pulls[-1]) == set(FIELDS)
        assert service.replies[-1] == []
        assert len(service.pushes) == 1

    def test_an_append_travels_as_an_extend(self, world):
        view, service = world.views[0], world.services[0]
        view.set_items([1, 2, 3])
        view.append_item(4)
        view.append_group("a", 5)
        view.append_group("a", 6)
        assert service.pushes[-3:] == [
            [["extend", "items", [4]]],
            [["set_key", "groups", "a", [5]]],
            [["extend", "groups", "a", [6]]],
        ]
        assert world.original.items == [1, 2, 3, 4]
        assert world.original.groups == {"a": [5, 6]}

    def test_a_grown_list_that_is_not_appended_to_is_resent(self, world):
        view, service = world.views[0], world.services[0]
        view.set_items([1, 2])
        view.front_item(0)
        assert service.pushes[-1] == [["set", "items", [0, 1, 2]]]
        assert world.original.items == [0, 1, 2]

    def test_bytes_per_call_do_not_grow_with_the_image(self, world):
        view, stats = world.views[0], world.transport.stats

        def call_bytes():
            before = stats.bytes_sent
            view.append_group("a", "m" * 100)
            return stats.bytes_sent - before

        call_bytes()
        small = call_bytes()
        for _ in range(200):
            view.append_group("a", "m" * 100)
        assert call_bytes() <= small + 16
        assert len(world.original.groups["a"]) == 203

    def test_an_origin_side_change_arrives_as_that_key_alone(self, world):
        view, service = world.views[0], world.services[0]
        view.set_group("a", [1])
        view.set_group("b", [2])
        world.original.groups["b"].append(3)
        assert view.read()[3] == {"a": [1], "b": [2, 3]}
        assert list(service.pulls[-1]["groups"]) == ["a", "b"]
        assert service.replies[-1] == [["set_key", "groups", "b", [2, 3]]]

    def test_a_non_string_key_travels_as_json_would_send_it(self, world):
        view = world.views[0]
        view.set_group(1, [5])
        assert world.original.groups == {"1": [5]}
        assert view.read()[3] == {"1": [5]}

    def test_an_original_with_non_string_keys_syncs_as_whole_images_did(self, world):
        view = world.views[0]
        world.original.groups[2] = [5]
        assert view.read()[3] == {"2": [5]}
        view.append_group("2", 6)
        assert world.original.groups == {"2": [5, 6]}

    def test_the_snapshot_is_not_shared_with_the_view(self, world):
        view = world.views[0]
        view.set_items([1])
        view.items.append(2)  # out of band: never pushed
        view.append_item(3)
        assert world.original.items == [1, 3]
        assert view.items == [1, 3]

    @pytest.mark.parametrize(
        "method, expected",
        [
            (("read", ()), {}),
            (("set_group", ("c", [2])), {"c": [2]}),
            (("drop_group", ("c",)), {}),
        ],
    )
    def test_an_out_of_band_write_does_not_bring_back_a_dropped_key(
        self, world, method, expected
    ):
        view, service = world.views[0], world.services[0]
        view.set_group("b", [1])
        view.groups["b"].append(9)  # out of band: never pushed
        world.original.groups.pop("b")
        getattr(view, method[0])(*method[1])
        assert "groups" not in service.pulls[-1], "a stale field is pulled whole"
        assert view.groups == world.original.groups == expected

    def test_extract_image_from_obj_returns_only_what_the_view_lacks(self, world):
        view = world.views[0]
        view.set_items([1])
        assert view.extractImageFromObj() == {}
        world.original.n = 5
        assert view.extractImageFromObj() == {"n": 5}

    def test_without_a_view_every_pull_is_whole(self):
        original = Record()
        original.items = [1]

        class Wire:
            """Copies arguments and results, as a real stub's codec does."""

            def __getattr__(self, method):
                call = getattr(ImageService(original), method)
                return lambda *args: json.loads(json.dumps(call(*json.loads(json.dumps(args)))))

        port = RemoteOrigin(Wire())
        assert port.extract_image(list(FIELDS)) == fields(original)
        assert port.extract_image(list(FIELDS)) == fields(original)
