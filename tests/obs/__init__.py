"""Helpers for the tracing tests: run a harness with and without the
root spans it issues its ops under, and record what the run did."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, TypeVar

import pytest

from repro import obs
from repro.hermetic import HarnessWorld, harness_world
from repro.load import generator as generator_module
from repro.obs import dist as dist_module

T = TypeVar("T")

#: The root span each harness opens per op; a call outside one is untraced.
ROOT_SPANS = ("trace.op", "load.request")


@dataclass
class Observed:
    """What one harness run put on the wire, per world it built."""

    frames: list[tuple[str, str, bytes]] = field(default_factory=list)
    """``(src, dst, payload)`` as every ``observe_link`` observer saw it."""
    bytes_sent: list[int] = field(default_factory=list)
    makespans: list[float] = field(default_factory=list)
    tracers: list[obs.Tracer] = field(default_factory=list)

    def spans(self, name: str) -> int:
        return sum(len(tracer.find(name)) for tracer in self.tracers)


def run_observed(run: Callable[[], T], *, traced: bool) -> tuple[T, Observed]:
    """``run()`` with an observer on every link of every harness world it
    builds; ``traced=False`` opens none of the per-op root spans."""
    seen = Observed()
    real_span = obs.span

    @contextmanager
    def watched_world(**kwargs) -> Iterator[HarnessWorld]:
        with harness_world(**kwargs) as world:
            for link in world.network.links():
                world.transport.observe_link(
                    link.a, link.b,
                    lambda payload, src, dst: seen.frames.append((src, dst, payload)),
                )
            seen.tracers.append(obs.get_tracer())
            yield world
            seen.bytes_sent.append(world.transport.stats.bytes_sent)
            seen.makespans.append(world.scheduler.now())

    def root_less_span(name: str, **attributes) -> obs.Span:
        return obs.NULL_SPAN if name in ROOT_SPANS else real_span(name, **attributes)

    with pytest.MonkeyPatch.context() as patch:
        for module in (dist_module, generator_module):
            patch.setattr(module, "harness_world", watched_world)
        if not traced:
            patch.setattr(obs, "span", root_less_span)
        result = run()
    return result, seen
