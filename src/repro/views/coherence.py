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
the paper's ``byte[]`` images.  A view shares a same-process original's
objects (:class:`LocalOrigin`) and syncs with a remote one by delta
(:class:`RemoteOrigin`).  A *slot* is a field or one key of a dict field.
Per call the wire carries one ``pull`` (the slot digests of each field the
view holds in sync, answered by ops for the slots that differ) and at most one
``push`` (the slots the call changed).  The ops set a field, set or drop a
key, and ``extend`` a list that only grew.  A failed pull or push forgets
the view's snapshot, so the next pull is whole and overwrites the view.

Both ends keep a JSON copy of each slot with its digest and advance the
digests over the ops they exchange (:func:`_track`): a ``set`` digests the
value it carries and an ``extend`` chains its items onto the old digest, so
a sync costs what changed, not the whole image.  The origin finds writes
that bypass the ops by comparing each live slot with its copy using ``==``;
a change ``==`` cannot see (``1`` → ``True``, the key order of a nested
dict) is no change to either end.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Protocol

from .. import obs
from ..errors import ViewError
from ..obs import names as metric_names

_MISSING = object()

SET, SET_KEY, DROP_KEY, EXTEND = "set", "set_key", "drop_key", "extend"
_ARITIES = {SET: (3,), SET_KEY: (4,), DROP_KEY: (3,), EXTEND: (3, 4)}


def _encode(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"))


def _fresh(value: Any) -> Any:
    """A deep copy, normalised as the wire would leave it."""
    return json.loads(_encode(value))


def _str_keyed(value: Any) -> bool:
    """A dict JSON carries unchanged, so it syncs key by key."""
    return isinstance(value, dict) and all(isinstance(key, str) for key in value)


def _digest(value: Any) -> str:
    """sha256 over the compact JSON encoding of one slot's value."""
    return hashlib.sha256(_encode(value).encode()).hexdigest()


def _chain(digest: str, items: list) -> str:
    """A list slot's digest after ``extend(items)``: sha256 over its old
    digest and the encoded items, so an append hashes only what it adds."""
    return hashlib.sha256((digest + _encode(items)).encode()).hexdigest()


def _apply_ops(ops: Any, read: Callable, write: Callable) -> None:
    """Apply image ops in order through ``read(field)``/``write(field, value)``.

    A malformed op raises :class:`ViewError`; the ops before it stay applied.
    """
    for op in ops if isinstance(ops, list) else [ops]:
        if not (
            isinstance(op, list) and op and isinstance(op[0], str)
            and len(op) in _ARITIES.get(op[0], ()) and isinstance(op[1], str)
        ):
            raise ViewError(f"malformed image op {op!r:.80}")
        if op[0] == SET:
            write(op[1], op[2])
            continue
        target = read(op[1])
        if isinstance(target, dict) and not _str_keyed(target):
            # A whole-image push would have replaced it with its JSON form.
            target = _fresh(target)
            write(op[1], target)
        if len(op) == 4 or op[0] == DROP_KEY:
            if not isinstance(target, dict) or not isinstance(op[2], str):
                raise ViewError(f"{op[0]}: {op[1]!r} is not a dict keyed by {op[2]!r:.40}")
            if op[0] == SET_KEY:
                target[op[2]] = op[3]
                continue
            if op[0] == DROP_KEY:
                target.pop(op[2], None)
                continue
            target = target.get(op[2])
        if not isinstance(target, list) or not isinstance(op[-1], list):
            raise ViewError(f"extend: {op[1]!r} needs a list and a list of items")
        target.extend(op[-1])


def _track(snapshot: dict, digests: dict, ops: Any) -> None:
    """Apply ``ops`` to ``snapshot``, a dict of JSON copies, advancing the
    ``digests`` of the slots each op touches right after it.  Both ends of
    a sync run this over the same ops, so their digests agree exactly when
    they started from the same slot."""
    for op in ops if isinstance(ops, list) else [ops]:
        _apply_ops([op], snapshot.get, snapshot.__setitem__)
        name = op[1]
        if op[0] == SET:
            digests[name] = (
                {key: _digest(item) for key, item in op[2].items()}
                if isinstance(op[2], dict) else _digest(op[2])
            )
        elif op[0] == DROP_KEY:
            digests[name].pop(op[2], None)
        elif op[0] == SET_KEY:
            digests[name][op[2]] = _digest(op[3])
        elif len(op) == 4:
            digests[name][op[2]] = _chain(digests[name][op[2]], op[3])
        else:
            digests[name] = _chain(digests[name], op[2])


def _change(slot: list, value: Any, old: Any) -> list:
    """The op turning ``old`` into ``value`` at ``[field]`` or ``[field, key]``."""
    if isinstance(value, list) and isinstance(old, list) and (
        len(old) < len(value) and value[: len(old)] == old
    ):
        return [EXTEND, *slot, value[len(old):]]
    return [SET_KEY if len(slot) == 2 else SET, *slot, value]


class CoherencePolicy(enum.Enum):
    """When the view synchronizes with its original object.

    * ``ON_DEMAND`` — pull a fresh image on every acquire and push local
      updates on every release (strongest; the default).
    * ``MANUAL`` — the application invokes the image methods explicitly
      (the paper's base behaviour, where coherence code is user-supplied).
    """

    ON_DEMAND = "on-demand"
    MANUAL = "manual"


class OriginPort(Protocol):
    """The origin-side image operations, local or remote.

    ``extract_image`` returns the fields the view must take in:
    :class:`LocalOrigin` returns every field asked for, while
    :class:`RemoteOrigin` returns only those whose synced value the view
    does not already hold, and ``{}`` when it holds them all.
    """

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
    stubs.  ``extract_image`` reads a whole image and ``pull``/``push``
    move deltas.  The service keeps a shadow: a JSON copy of each slot it
    last hashed, with its digest, shared by all its views.  A pull hashes
    only the slots whose live value differs from the shadow (so writes that
    bypass the service are seen) or whose digest differs from the view's.
    Every name it is given must pass :meth:`_field`, so a caller can
    neither read the original's internals nor replace a method.
    """

    def __init__(self, obj: Any) -> None:
        self._obj = obj
        self._shadow: dict[str, Any] = {}
        self._digests: dict[str, Any] = {}

    def _field(self, name: Any) -> str:
        """``name`` if it is an instance attribute or a non-callable class
        attribute of the original and not private (``_``-prefixed, as the
        RPC dispatcher also treats such names); else ViewError."""
        if isinstance(name, str) and not name.startswith("_"):
            if name in getattr(self._obj, "__dict__", ()):
                return name
            declared = getattr(type(self._obj), name, _MISSING)
            if declared is not _MISSING and not callable(declared):
                return name
        raise ViewError(f"{name!r:.40} is not a data field of the original object")

    def _fields(self, fields: Any) -> list[str]:
        if not isinstance(fields, list):
            raise ViewError(f"expected field names, got {type(fields).__name__}")
        return [self._field(name) for name in fields]

    def _read(self, name: str) -> Any:
        return getattr(self._obj, self._field(name))

    def _write(self, name: str, value: Any) -> None:
        try:
            setattr(self._obj, self._field(name), value)
        except (AttributeError, TypeError) as exc:
            raise ViewError(f"cannot write field {name!r}: {exc}") from None

    def extract_image(self, fields: list[str]) -> dict:
        return {name: getattr(self._obj, name) for name in self._fields(fields)}

    @staticmethod
    def _stale(shadow: dict, digests: dict, key: str, item: Any, prev: Any) -> bool:
        """Whether a holder of digest ``prev`` lacks slot ``key``, whose live
        value is ``item``.  The slot is copied and hashed again only if
        ``item`` differs from its shadow or its digest from ``prev``."""
        if digests.get(key) != prev or shadow.get(key, _MISSING) != item:
            shadow[key], digests[key] = _fresh(item), _digest(item)
        return digests[key] != prev

    def pull(self, fields: list[str], since: dict) -> list:
        """Ops for the slots whose digest differs from ``since``, which maps
        a field to its digest or a dict field to its per-key digests.  A
        dict whose keys moved is resent whole, keeping the origin's order."""
        ops: list = []
        for name in self._fields(fields):
            value = getattr(self._obj, name)
            prev = since.get(name) if isinstance(since, dict) else None
            if not isinstance(value, dict):
                if self._stale(self._shadow, self._digests, name, value, prev):
                    ops.append([SET, name, value])
                continue
            if not _str_keyed(value):
                value = _fresh(value)  # as the wire carries it
            if not isinstance(self._digests.get(name), dict):
                self._shadow[name], self._digests[name] = {}, {}
            shadow, digests = self._shadow[name], self._digests[name]
            for key in [key for key in shadow if key not in value]:
                del shadow[key], digests[key]
            whole = not isinstance(prev, dict) or [k for k in prev if k in value] + [
                k for k in value if k not in prev
            ] != list(value)
            # A view digests every key of a dict sent whole afresh.
            stale = [key for key, item in value.items() if self._stale(
                shadow, digests, key, item, None if whole else prev.get(key))]
            if whole:
                ops.append([SET, name, value])
                continue
            ops.extend([DROP_KEY, name, key] for key in prev if key not in value)
            ops.extend([SET_KEY, name, key, value[key]] for key in stale)
        return ops

    def push(self, ops: list) -> None:
        """Apply ``ops`` to the original, then to the shadow.  Where the
        shadow cannot take an op, it falls behind and the next pull re-takes
        what differs."""
        _apply_ops(ops, self._read, self._write)
        with contextlib.suppress(ViewError):
            _track(self._shadow, self._digests, _fresh(ops))


class RemoteOrigin:
    """The :class:`OriginPort` of a remote original: syncs by delta.

    ``stub`` reaches the original's :class:`ImageService` over a wire that
    copies arguments and results, as rmi and switchboard stubs do.  The
    port keeps a private snapshot of the image it last synced (deep
    copies, never shared with the view) and its slot digests, advanced
    over the ops it exchanges as the origin advances its own.  A field
    whose value in ``view`` no longer equals the snapshot is resent whole;
    without a view, every pull is whole.  So ``extract_image`` is a delta:
    it returns only the fields the view does not hold in sync.
    """

    def __init__(self, stub: Any, view: Any = None) -> None:
        self._stub = stub
        self._view = view
        self._snapshot: dict[str, Any] = {}
        self._digests: dict[str, Any] = {}

    def extract_image(self, fields: list[str]) -> dict:
        """The fields whose synced value the view does not hold, as fresh
        objects; ``{}`` when the view is up to date."""
        since: dict[str, Any] = {}
        stale: set[str] = set()
        for name in fields:
            snap = self._snapshot.get(name, _MISSING)
            live = getattr(self._view, name, _MISSING) if self._view is not None else _MISSING
            if snap is not _MISSING and live == snap:
                since[name] = self._digests.get(name)
                continue
            stale.add(name)
        stale.update(self._sync(self._stub.pull, list(fields), since))
        return {name: _fresh(self._snapshot[name]) for name in fields if name in stale}

    def merge_image(self, image: dict) -> None:
        """Push the slots of ``image`` that differ from the snapshot."""
        ops: list = []
        for name, value in image.items():
            snap = self._snapshot.get(name, _MISSING)
            if value == snap:
                continue
            if not (_str_keyed(value) and isinstance(snap, dict)):
                ops.append(_change([name], value, snap))
                continue
            ops.extend([DROP_KEY, name, key] for key in snap if key not in value)
            ops.extend(
                _change([name, key], item, snap.get(key, _MISSING))
                for key, item in value.items() if item != snap.get(key, _MISSING)
            )
        if ops:
            ops = _fresh(ops)
            # A push returns nothing; what the snapshot records is the ops.
            self._sync(lambda: self._stub.push(ops) or ops)

    def _sync(self, call: Callable, *args: Any) -> set[str]:
        """Apply the ops ``call`` returns to the snapshot, advancing its
        digests, and return the touched fields.  On any failure forget the
        snapshot, so the next pull is whole."""
        try:
            ops = call(*args)
            _track(self._snapshot, self._digests, ops)
        except BaseException:
            self._snapshot, self._digests = {}, {}
            raise
        return {op[1] for op in ops}


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
                if image:
                    self.view.mergeImageIntoView(image)
            except BaseException:
                # Callers acquire outside their try/finally, so no release
                # follows a failed pull or merge: undo the acquire, or every
                # later call would see a nested depth and skip its sync.
                self._depth -= 1
                raise
            if image:
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
        if self.policy is CoherencePolicy.ON_DEMAND:
            image = self.view.extractImageFromView()
            if image:
                self.view.mergeImageIntoObj(image)
                self.stats.images_pushed += 1
                obs.counter(metric_names.COHERENCE_IMAGES_PUSHED).inc()
