"""E-CHAOS — fault injection and recovery under a wilder seeded storm.

The seed-7, 5 s storm is the ``chaos`` row of ``python -m repro verify``,
which gates no violations, one recovery per injected fault class and a
byte-identical report from a fresh interpreter.  This test keeps what
that row does not cover: the same harness at 1.5x intensity over 10 s.
"""

from __future__ import annotations

from repro.faults import ChaosRunner


def test_chaos_scales_with_intensity(key_store):
    """A wilder storm (more fault rounds) must still recover every class."""
    report = ChaosRunner(seed=7, duration=10.0, intensity=1.5, key_store=key_store).run()
    assert report.violations == []
    assert len(report.events) >= 6
