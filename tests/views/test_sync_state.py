"""The sync state of remote views: what one sync hashes, and that the
origin's shadow copy of the image never hides a change from a view.

Each :class:`ImageService` keeps a JSON copy of the slots it last hashed
and compares the live original with it using ``==``; both ends advance
their slot digests over the ops they exchange.  The worlds here are the
two-node RPC worlds of ``test_delta_sync``.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ViewError
from repro.switchboard.rpc import RemoteError
from repro.views import ImageService, coherence

from .test_delta_sync import FIELDS, KEYS, Record, World, apply, fields, load


@pytest.fixture()
def hashed(monkeypatch):
    """Every slot either end hashes whole (``digest``) or chains an
    extend onto (``chain``), as ``(kind, value)`` in call order."""
    calls = []
    digest, chain = coherence._digest, coherence._chain

    def spy_digest(value):
        calls.append(("digest", copy.deepcopy(value)))
        return digest(value)

    def spy_chain(old, items):
        calls.append(("chain", copy.deepcopy(items)))
        return chain(old, items)

    monkeypatch.setattr(coherence, "_digest", spy_digest)
    monkeypatch.setattr(coherence, "_chain", spy_chain)
    return calls


def message(n):
    return {"sender": "amy", "subject": f"s{n}", "body": "m" * 64}


@pytest.fixture()
def mailbox_world():
    """One view whose ``groups`` holds a 50-message mailbox."""
    world = World(views=1)
    for n in range(50):
        world.views[0].append_group("bob", message(n))
    return world


class TestCounts:
    def test_a_read_in_steady_state_hashes_nothing(self, mailbox_world, hashed):
        view, service = mailbox_world.views[0], mailbox_world.services[0]
        assert view.read()[3]["bob"][-1] == message(49)
        view.read()
        assert service.replies[-2:] == [[], []]
        assert hashed == []

    def test_an_append_hashes_only_its_items(self, mailbox_world, hashed):
        view, service = mailbox_world.views[0], mailbox_world.services[0]
        view.append_group("bob", message(50))
        assert service.pushes[-1] == [["extend", "groups", "bob", [message(50)]]]
        # The origin and the view each chain the one message onto the slot.
        assert hashed == [("chain", [message(50)])] * 2

    def test_an_origin_write_rehashes_only_the_slot_it_changed(self, mailbox_world, hashed):
        view, world = mailbox_world.views[0], mailbox_world
        world.original.groups.setdefault("amy", []).append(message(0))
        world.original.n = 3
        assert view.read()[:1] == [3]
        expected = [("digest", 3), ("digest", [message(0)])]
        # Hashed once by the origin (the shadow differs) and once by the view.
        assert sorted(hashed, key=repr) == sorted(expected * 2, key=repr)


class TestShadow:
    def test_an_in_place_write_to_a_pushed_item_reaches_the_next_pull(self):
        world = World(views=1)
        view = world.views[0]
        view.append_group("a", {"k": 1})
        view.set_items([{"k": 1}])
        world.original.groups["a"][-1]["k"] = 2
        world.original.items[0]["k"] = 3
        assert view.read()[2:] == [[{"k": 3}], {"a": [{"k": 2}]}]

    def test_a_push_that_fails_partway_keeps_its_head(self):
        original = Record()
        original.items = [1]
        service = ImageService(original)
        snapshot, digests = {}, {}
        coherence._track(snapshot, digests, wire(service.pull(list(FIELDS), {})))
        with pytest.raises(ViewError):
            service.push([["extend", "items", [2]], ["set_key", "items", "a", 3], ["set", "n", 9]])
        assert original.items == [1, 2] and original.n == 0
        assert wire(service.pull(list(FIELDS), digests)) == [["set", "items", [1, 2]]]

    @pytest.mark.parametrize("pulled", [False, True])
    def test_a_push_the_shadow_cannot_take_still_succeeds(self, pulled):
        original = Record()
        service = ImageService(original)
        snapshot, digests = {}, {}
        if pulled:
            coherence._track(snapshot, digests, wire(service.pull(list(FIELDS), {})))
            original.groups = []  # in process: the shadow still holds a dict
        service.push([["extend", "groups", [1]]] if pulled else [["set_key", "groups", "a", [1]]])
        expected = [1] if pulled else {"a": [1]}
        assert original.groups == expected
        assert wire(service.pull(["groups"], digests)) == [["set", "groups", expected]]


class TestEquality:
    """A change ``==`` cannot see is no change, at either end."""

    def test_the_origin_does_not_send_it(self):
        world = World(views=1)
        view, service = world.views[0], world.services[0]
        view.set_n(1)
        view.set_group("a", [{"x": 1, "y": 2}])
        world.original.n = True
        world.original.groups["a"][0] = {"y": 2, "x": 1}
        view.read()
        assert service.replies[-1] == []
        assert view.n == 1 and view.n is not True
        assert list(view.groups["a"][0]) == ["x", "y"]

    def test_the_view_does_not_push_it(self):
        world = World(views=1)
        view, service = world.views[0], world.services[0]
        view.set_n(1)
        view.n = True  # out of band, between calls
        view.read()
        assert len(service.pushes) == 1
        assert world.original.n == 1 and world.original.n is not True


def wire(value):
    return json.loads(json.dumps(value))


# -- the differential property, with dict-valued items ----------------------

_items = st.builds(lambda k: {"k": k}, st.integers(-3, 3))
_lists = st.lists(_items, max_size=3)
_keys = st.sampled_from(KEYS)
METHODS = st.one_of(
    st.tuples(st.just("set_n"), st.tuples(st.integers(-3, 3))),
    st.tuples(st.just("set_items"), st.tuples(_lists)),
    st.tuples(st.just("append_item"), st.tuples(_items)),
    st.tuples(st.just("front_item"), st.tuples(_items)),
    st.tuples(st.just("pop_item"), st.just(())),
    st.tuples(st.just("set_group"), st.tuples(_keys, _lists)),
    st.tuples(st.just("append_group"), st.tuples(_keys, _items)),
    st.tuples(st.just("pop_group"), st.tuples(_keys)),
    st.tuples(st.just("drop_group"), st.tuples(_keys)),
    st.tuples(st.just("read"), st.just(())),
)
# (list, index, new value): an item's "k" rewritten in place.
IN_PLACE = st.tuples(st.one_of(st.just(None), _keys), st.integers(0, 2), st.integers(-3, 3))
_view = st.integers(0, 1)
STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("call"), _view, METHODS,
            st.sampled_from([None, None, None, "pull", "push", "push-applied"]),
        ),
        st.tuples(st.just("origin"), METHODS),
        st.tuples(st.just("in-place"), IN_PLACE),
        st.tuples(st.just("out-of-band"), _view, METHODS),
    ),
    max_size=25,
)


def write_in_place(obj, where):
    key, index, value = where
    items = obj.items if key is None else obj.groups.get(key, [])
    if items:
        items[index % len(items)]["k"] = value


def check_against_whole_image_sync(steps):
    """After every step the original and both views hold what views that
    pull and push their whole image on every call would hold."""
    world = World()
    model_origin = Record()
    model_views = [Record(), Record()]
    for step in steps:
        if step[0] == "origin":
            apply(world.original, step[1])
            apply(model_origin, step[1])
        elif step[0] == "in-place":
            write_in_place(world.original, step[1])
            write_in_place(model_origin, step[1])
        elif step[0] == "out-of-band":
            _, index, method = step
            apply(world.views[index], method)
            apply(model_views[index], method)
        else:
            _, index, method, failure = step
            service, view, model = world.services[index], world.views[index], model_views[index]
            service.armed, service.tripped = failure, False
            try:
                getattr(view, method[0])(*copy.deepcopy(method[1]))
            except RemoteError:
                assert service.tripped
            service.armed = None
            if failure != "pull":
                load(model, fields(model_origin))
                apply(model, method)
                if failure != "push":
                    load(model_origin, fields(model))
        assert fields(world.original) == fields(model_origin)
        for view, model in zip(world.views, model_views):
            assert fields(view) == fields(model)


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=100, **_SETTINGS)
@given(steps=STEPS)
def test_dict_items_and_in_place_writes_sync_as_whole_images(steps):
    check_against_whole_image_sync(steps)


@pytest.mark.slow
@settings(max_examples=2000, **_SETTINGS)
@given(steps=STEPS)
def test_dict_items_and_in_place_writes_sync_as_whole_images_long(steps):
    check_against_whole_image_sync(steps)
