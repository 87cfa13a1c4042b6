"""Cache coherence between views and their original objects (§4.1/§4.3).

Views derived from Object Views (OOPSLA '99) carry four image methods —
``mergeImageIntoView``, ``mergeImageIntoObj``, ``extractImageFromView``,
``extractImageFromObj`` — plus the invariant VIG enforces by construction:
"all methods should work with the most current image.  VIG ensures it by
placing acquireImage and releaseImage method calls at the beginning and
the end of every method implemented by the view."

The :class:`CacheManager` implements that acquire/release protocol with a
pluggable policy; :class:`ImageService` is the origin-side half, exported
over RMI/Switchboard when the original object lives on another node.

Images are JSON-compatible dicts of field values, the Python analogue of
the paper's ``byte[]`` images.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Protocol

from .. import obs
from ..errors import ViewError
from ..obs import names as metric_names


class CoherencePolicy(enum.Enum):
    """When the view synchronizes with its original object.

    * ``ON_DEMAND`` — pull a fresh image on every acquire and push local
      updates on every release (strongest; the default).
    * ``WRITE_THROUGH`` — push on release only; reads use the local image.
    * ``MANUAL`` — the application invokes the image methods explicitly
      (the paper's base behaviour, where coherence code is user-supplied).
    """

    ON_DEMAND = "on-demand"
    WRITE_THROUGH = "write-through"
    MANUAL = "manual"


class OriginPort(Protocol):
    """The origin-side image operations, local or remote."""

    def extract_image(self, fields: list[str]) -> dict:  # pragma: no cover
        ...

    def merge_image(self, image: dict) -> None:  # pragma: no cover
        ...


class LocalOrigin:
    """Adapter exposing a same-process original object as an OriginPort."""

    def __init__(self, obj: Any) -> None:
        self._obj = obj

    def extract_image(self, fields: list[str]) -> dict:
        image: dict[str, Any] = {}
        for name in fields:
            if not hasattr(self._obj, name):
                raise ViewError(
                    f"original object has no replicated field {name!r}"
                )
            image[name] = getattr(self._obj, name)
        return image

    def merge_image(self, image: dict) -> None:
        for name, value in image.items():
            setattr(self._obj, name, value)


class ImageService:
    """Origin-side service exported for remote views.

    The deployment infrastructure exports one of these next to the
    original object; remote views call it through their rmi or switchboard
    stubs.
    """

    def __init__(self, obj: Any) -> None:
        self._origin = LocalOrigin(obj)

    def extract_image(self, fields: list[str]) -> dict:
        return self._origin.extract_image(fields)

    def merge_image(self, image: dict) -> None:
        self._origin.merge_image(image)


@dataclass
class CoherenceStats:
    acquires: int = 0
    releases: int = 0
    images_pulled: int = 0
    images_pushed: int = 0


class CacheManager:
    """Per-view coherence driver.

    The generated view calls :meth:`acquire_image` / :meth:`release_image`
    around every public method (inserted by VIG).  Reentrant calls (a view
    method invoking another view method) are tracked so only the outermost
    call synchronizes.
    """

    def __init__(
        self,
        view: Any,
        *,
        policy: CoherencePolicy = CoherencePolicy.ON_DEMAND,
        properties: dict | None = None,
    ) -> None:
        self.view = view
        self.policy = policy
        self.properties = dict(properties or {})
        self.stats = CoherenceStats()
        self._depth = 0

    def acquire_image(self) -> None:
        self._depth += 1
        if self._depth > 1:
            return
        self.stats.acquires += 1
        obs.counter(metric_names.COHERENCE_ACQUIRES).inc()
        if self.policy is CoherencePolicy.ON_DEMAND:
            try:
                image = self.view.extractImageFromObj()
            except BaseException:
                # Callers acquire outside their try/finally, so no release
                # follows a failed pull: undo the acquire, or every later
                # call would see a nested depth and skip its sync.
                self._depth -= 1
                raise
            if image:
                self.view.mergeImageIntoView(image)
                self.stats.images_pulled += 1
                obs.counter(metric_names.COHERENCE_IMAGES_PULLED).inc()

    def release_image(self) -> None:
        if self._depth == 0:
            raise ViewError("release_image without matching acquire_image")
        self._depth -= 1
        if self._depth > 0:
            return
        self.stats.releases += 1
        obs.counter(metric_names.COHERENCE_RELEASES).inc()
        if self.policy in (CoherencePolicy.ON_DEMAND, CoherencePolicy.WRITE_THROUGH):
            image = self.view.extractImageFromView()
            if image:
                self.view.mergeImageIntoObj(image)
                self.stats.images_pushed += 1
                obs.counter(metric_names.COHERENCE_IMAGES_PUSHED).inc()
