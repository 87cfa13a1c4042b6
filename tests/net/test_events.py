"""Discrete-event scheduler tests."""

from __future__ import annotations

import math

import pytest

from repro.net.events import EventScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        log = []
        scheduler.schedule(3.0, lambda: log.append("c"))
        scheduler.schedule(1.0, lambda: log.append("a"))
        scheduler.schedule(2.0, lambda: log.append("b"))
        scheduler.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        scheduler = EventScheduler()
        log = []
        scheduler.schedule(1.0, lambda: log.append(1))
        scheduler.schedule(1.0, lambda: log.append(2))
        scheduler.run()
        assert log == [1, 2]

    def test_clock_advances_to_event_time(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(2.5, lambda: seen.append(scheduler.now()))
        scheduler.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule(-1, lambda: None)

    def test_cancel(self):
        scheduler = EventScheduler()
        log = []
        cancel = scheduler.schedule(1.0, lambda: log.append("x"))
        cancel()
        scheduler.run()
        assert log == []

    def test_nested_scheduling(self):
        scheduler = EventScheduler()
        log = []

        def outer():
            log.append(("outer", scheduler.now()))
            scheduler.schedule(1.0, lambda: log.append(("inner", scheduler.now())))

        scheduler.schedule(1.0, outer)
        scheduler.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_schedule_at(self):
        scheduler = EventScheduler(start=5.0)
        seen = []
        scheduler.schedule_at(7.0, lambda: seen.append(scheduler.now()))
        scheduler.run()
        assert seen == [7.0]
        # Exactly the timestamp given, not now + (t - now): from 2.2 that
        # sum rounds the float after 15.0 back onto 15.0.
        scheduler = EventScheduler(start=2.2)
        deadline = math.nextafter(15.0, math.inf)
        scheduler.schedule_at(deadline, lambda: seen.append(scheduler.now()))
        scheduler.run()
        assert seen == [7.0, deadline]
        assert seen[-1] > 15.0

    def test_schedule_at_past_rejected(self):
        scheduler = EventScheduler(start=5.0)
        with pytest.raises(ValueError):
            scheduler.schedule_at(4.0, lambda: None)


class TestRunUntil:
    def test_stops_at_boundary(self):
        scheduler = EventScheduler()
        log = []
        scheduler.schedule(1.0, lambda: log.append("early"))
        scheduler.schedule(5.0, lambda: log.append("late"))
        scheduler.run_until(3.0)
        assert log == ["early"]
        assert scheduler.now() == 3.0
        assert scheduler.pending == 1

    def test_backwards_rejected(self):
        scheduler = EventScheduler(start=10.0)
        with pytest.raises(ValueError):
            scheduler.run_until(5.0)


class TestRepeating:
    def test_schedule_every(self):
        scheduler = EventScheduler()
        ticks = []
        cancel = scheduler.schedule_every(2.0, lambda: ticks.append(scheduler.now()))
        scheduler.run_until(7.0)
        cancel()
        scheduler.run_until(20.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule_every(0, lambda: None)

    def test_runaway_guard(self):
        scheduler = EventScheduler()
        scheduler.schedule_every(0.001, lambda: None)
        with pytest.raises(RuntimeError):
            scheduler.run(max_events=100)
