"""Cache-coherence machinery tests."""

from __future__ import annotations

import pytest

from repro.errors import ViewError
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
        service.merge_image({"x": 5})
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

    def test_write_through_skips_pull(self, pair):
        origin, view = pair
        manager = CacheManager(view, policy=CoherencePolicy.WRITE_THROUGH)
        manager.acquire_image()
        assert view.state["x"] == 0  # no pull
        view.state["x"] = 3
        manager.release_image()
        assert origin.x == 3

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


class TestStats:
    def test_counters(self, pair):
        _, view = pair
        manager = CacheManager(view, policy=CoherencePolicy.ON_DEMAND)
        for _ in range(3):
            manager.acquire_image()
            manager.release_image()
        assert manager.stats.images_pulled == 3
        assert manager.stats.images_pushed == 3
