"""Shared benchmark fixtures.

Benchmarks use full-size (1024-bit) RSA keys by default so the reported
crypto costs are representative; set the key store once per session.
Every experiment prints its paper-shaped table to stdout (run with
``pytest benchmarks/ --benchmark-only -s`` to see them); EXPERIMENTS.md
records the measured numbers.

Each benchmark also snapshots the :mod:`repro.obs` metrics registry into
``benchmark.extra_info["obs"]``, so a ``--benchmark-json=BENCH_*.json``
run records internal counters (proof edges visited, frames sent, plan
backtracks, ...) next to the wall-clock numbers.  Set ``REPRO_OBS=0`` to
measure the zero-cost disabled mode instead.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.crypto import KeyStore
from repro.mail import build_scenario, register_components
from repro.psf import Registrar

BENCH_KEY_BITS = 1024


@pytest.fixture(autouse=True)
def obs_snapshot(request):
    """Reset metrics per benchmark; attach the snapshot to its results."""
    obs.reset()
    yield
    benchmark = request.node.funcargs.get("benchmark")
    if benchmark is None:
        return
    snapshot = obs.snapshot()
    if any(snapshot.values()):
        benchmark.extra_info["obs"] = snapshot


@pytest.fixture(scope="session")
def key_store() -> KeyStore:
    return KeyStore(key_bits=BENCH_KEY_BITS)


@pytest.fixture(scope="session")
def shared_scenario(key_store):
    """Read-only scenario shared across benchmarks."""
    return build_scenario(key_store=key_store)


@pytest.fixture(scope="session")
def mail_app() -> Registrar:
    """The mail application, loaded from its document into a registrar."""
    registrar = Registrar()
    register_components(registrar)
    return registrar


@pytest.fixture()
def scenario_factory(key_store):
    def build(**kwargs):
        kwargs.setdefault("key_store", key_store)
        return build_scenario(**kwargs)

    return build


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Uniform fixed-width table printer for experiment outputs."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
