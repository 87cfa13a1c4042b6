"""Cache-coherence machinery tests."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ViewError
from repro.mail.crypto_components import Encryptor
from repro.mail.server import MailServer
from repro.views.coherence import (
    CacheManager,
    CoherencePolicy,
    ImageService,
    LocalOrigin,
)


class FakeView:
    """Minimal view exposing the four image methods."""

    def __init__(self, origin):
        self.state = {"x": 0}
        self._origin = origin
        self.pulls = 0
        self.pushes = 0

    def extractImageFromView(self):
        return dict(self.state)

    def mergeImageIntoView(self, image):
        self.pulls += 1
        self.state.update(image)

    def extractImageFromObj(self):
        return self._origin.extract_image(["x"])

    def mergeImageIntoObj(self, image):
        self.pushes += 1
        self._origin.merge_image(image)


class Origin:
    def __init__(self):
        self.x = 10


@pytest.fixture()
def pair():
    origin = Origin()
    view = FakeView(LocalOrigin(origin))
    return origin, view


class TestLocalOrigin:
    def test_extract(self, pair):
        origin, view = pair
        assert LocalOrigin(origin).extract_image(["x"]) == {"x": 10}

    def test_merge(self, pair):
        origin, _ = pair
        LocalOrigin(origin).merge_image({"x": 99})
        assert origin.x == 99

    def test_unknown_field(self, pair):
        origin, _ = pair
        with pytest.raises(ViewError):
            LocalOrigin(origin).extract_image(["ghost"])


class TestImageService:
    def test_round_trip(self):
        origin = Origin()
        service = ImageService(origin)
        assert service.extract_image(["x"]) == {"x": 10}
        service.push([["set", "x", 5]])
        assert origin.x == 5


class TestCacheManagerPolicies:
    def test_on_demand_pulls_and_pushes(self, pair):
        origin, view = pair
        manager = CacheManager(view, policy=CoherencePolicy.ON_DEMAND)
        manager.acquire_image()
        assert view.state["x"] == 10  # pulled
        view.state["x"] = 77
        manager.release_image()
        assert origin.x == 77  # pushed

    def test_manual_does_nothing(self, pair):
        origin, view = pair
        manager = CacheManager(view, policy=CoherencePolicy.MANUAL)
        manager.acquire_image()
        view.state["x"] = 5
        manager.release_image()
        assert origin.x == 10
        assert view.pulls == 0 and view.pushes == 0


class TestReentrancy:
    def test_nested_acquire_synchronizes_once(self, pair):
        _, view = pair
        manager = CacheManager(view, policy=CoherencePolicy.ON_DEMAND)
        manager.acquire_image()
        manager.acquire_image()  # nested method call
        manager.release_image()
        manager.release_image()
        assert view.pulls == 1
        assert view.pushes == 1
        assert manager.stats.acquires == 1
        assert manager.stats.releases == 1

    def test_unbalanced_release_raises(self, pair):
        _, view = pair
        manager = CacheManager(view)
        with pytest.raises(ViewError):
            manager.release_image()


class TestFailedPull:
    def test_failed_pull_does_not_freeze_coherence(self, pair):
        origin, view = pair
        pull = view.extractImageFromObj
        failures = [TimeoutError("origin unreachable")]

        def flaky_pull():
            if failures:
                raise failures.pop()
            return pull()

        view.extractImageFromObj = flaky_pull
        manager = CacheManager(view, policy=CoherencePolicy.ON_DEMAND)
        with pytest.raises(TimeoutError):
            manager.acquire_image()
        assert manager._depth == 0
        manager.acquire_image()
        view.state["x"] = 42
        manager.release_image()
        assert view.pulls == 1
        assert view.pushes == 1
        assert origin.x == 42
        assert manager._depth == 0


    def test_failed_view_merge_does_not_freeze_coherence(self, pair):
        origin, view = pair
        merge = view.mergeImageIntoView
        failures = [ValueError("image does not fit the view")]

        def flaky_merge(image):
            if failures:
                raise failures.pop()
            merge(image)

        view.mergeImageIntoView = flaky_merge
        manager = CacheManager(view, policy=CoherencePolicy.ON_DEMAND)
        with pytest.raises(ValueError):
            manager.acquire_image()
        assert manager._depth == 0
        manager.acquire_image()
        assert manager.stats.images_pulled == 1
        view.state["x"] = 42
        manager.release_image()
        assert origin.x == 42
        assert manager._depth == 0


class TestImageServiceConfinement:
    """Only the original's data fields cross the image API."""

    def test_extract_cannot_read_internals(self):
        service = ImageService(MailServer())
        with pytest.raises(ViewError):
            service.extract_image(["__dict__"])
        with pytest.raises(ViewError):
            service.pull(["__dict__"], {})

    def test_merge_cannot_replace_a_method(self):
        server = MailServer()
        service = ImageService(server)
        with pytest.raises(ViewError):
            service.push([["set", "sendMail", "x"]])
        with pytest.raises(ViewError):
            service.push([["extend", "sendMail", ["x"]]])
        assert server.sendMail({"recipient": "bob", "subject": "hi"}) is True

    def test_private_fields_are_not_data(self):
        encryptor = Encryptor(MailServer())
        service = ImageService(encryptor)
        for call in (
            lambda: service.extract_image(["_cipher"]),
            lambda: service.pull(["_upstream"], {}),
            lambda: service.push([["set", "_cipher", None]]),
            lambda: service.push([["set", "_upstream", "x"]]),
        ):
            with pytest.raises(ViewError):
                call()
        blob = encryptor.fetchMailEnc("bob")
        assert isinstance(blob, str)

    def test_non_callable_class_attributes_are_data(self):
        class Tuned:
            limit = 5

        tuned = Tuned()
        service = ImageService(tuned)
        assert service.extract_image(["limit"]) == {"limit": 5}
        service.push([["set", "limit", 7]])
        assert tuned.limit == 7 and Tuned.limit == 5

    @pytest.mark.parametrize(
        "op",
        [
            "set",
            [],
            ["set", "delivered"],
            ["set", "delivered", 1, 2],
            ["set_key", "mailboxes", "bob"],
            ["drop_key", "mailboxes"],
            ["extend", "mailboxes", "bob", [1], 2],
            ["nope", "delivered", 1],
            [["set"], "delivered", 1],
            ["set", ["delivered"], 1],
            ["set_key", "delivered", "bob", 1],
            ["set_key", "mailboxes", ["bob"], []],
            ["drop_key", "delivered", "bob"],
            ["extend", "delivered", [1]],
            ["extend", "mailboxes", "nobody", [1]],
            ["extend", "mailboxes", "bob", "not a list"],
            ["extend", "directory", [1]],
        ],
    )
    def test_malformed_push_op_is_a_view_error(self, op):
        server = MailServer()
        server.mailboxes["bob"] = []
        with pytest.raises(ViewError):
            ImageService(server).push([op])

    def test_ops_must_be_a_list(self):
        with pytest.raises(ViewError):
            ImageService(MailServer()).push({"set": 1})


_FIELDS = ["mailboxes", "directory", "delivered"]
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text("ab", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3),
    max_leaves=8,
)
_names = st.sampled_from(_FIELDS + ["sendMail", "__dict__", "__class__", "ghost"])
_kinds = st.sampled_from(["set", "set_key", "drop_key", "extend", "bogus"])
_op = st.one_of(
    st.builds(lambda kind, name, rest: [kind, name, *rest],
              _kinds, _names, st.lists(st.one_of(st.sampled_from(["bob", "amy"]), _json),
                                       max_size=3)),
    st.lists(st.one_of(_kinds, _names, _json), max_size=4),
    _json,
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.one_of(st.lists(_op, max_size=6), _json))
def test_push_gives_a_typed_error_or_a_valid_state(ops):
    """Mutated op lists: ``push`` raises ViewError or leaves an original
    whose fields are still JSON data and whose methods still work."""
    server = MailServer()
    server.mailboxes["bob"] = [{"subject": "s"}]
    server.directory["bob"] = {"name": "bob"}
    service = ImageService(server)
    try:
        service.push(ops)
    except ViewError:
        pass
    assert sorted(vars(server)) == sorted(_FIELDS)
    json.dumps(service.extract_image(list(_FIELDS)))
    assert callable(server.sendMail) and callable(server.fetchMail)


class TestStats:
    def test_counters(self, pair):
        _, view = pair
        manager = CacheManager(view, policy=CoherencePolicy.ON_DEMAND)
        for _ in range(3):
            manager.acquire_image()
            manager.release_image()
        assert manager.stats.images_pulled == 3
        assert manager.stats.images_pushed == 3
