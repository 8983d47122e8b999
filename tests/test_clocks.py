import math
import threading
import time

import pytest

from queuemc.clocks import VirtualClock, WallClock
from queuemc.errors import SimulationStalledError


def test_wall_clock_monotone():
    clock = WallClock()
    a = clock.now()
    b = clock.now()
    assert 0 <= a <= b


def test_virtual_clock_starts_at_zero():
    assert VirtualClock().now() == 0.0


def test_virtual_clock_fires_events_in_time_order():
    clock = VirtualClock()
    fired = []
    clock.schedule(5.0, lambda: fired.append("late"))
    clock.schedule(1.0, lambda: fired.append("early"))
    cond = threading.Condition()
    with cond:
        clock.wait(cond, deadline=10.0)
        clock.wait(cond, deadline=10.0)
    assert fired == ["early", "late"]
    assert clock.now() == 5.0


def test_virtual_clock_tie_breaks_by_schedule_order():
    clock = VirtualClock()
    fired = []
    clock.schedule(2.0, lambda: fired.append("first"))
    clock.schedule(2.0, lambda: fired.append("second"))
    cond = threading.Condition()
    with cond:
        clock.wait(cond, deadline=None)
        clock.wait(cond, deadline=None)
    assert fired == ["first", "second"]


def test_virtual_clock_timeout_jumps_without_events():
    clock = VirtualClock()
    cond = threading.Condition()
    with cond:
        clock.wait(cond, deadline=3.5)
    assert clock.now() == 3.5


def test_virtual_clock_lands_exactly_on_its_deadline():
    # 1.1 + (7.3 - 1.1) is 7.299999999999999: a wait given the time left
    # would miss the stamp by one unit in the last place.
    clock = VirtualClock()
    clock.schedule(1.1, lambda: None)
    cond = threading.Condition()
    with cond:
        clock.wait(cond, deadline=None)
        clock.wait(cond, deadline=7.3)
        assert clock.now() == 7.3
        clock.wait(cond, deadline=2.0)  # a deadline already passed leaves the clock
    assert clock.now() == 7.3


def test_wall_clock_wait_returns_at_a_passed_deadline():
    clock = WallClock()
    cond = threading.Condition()
    start = time.monotonic()
    with cond:
        clock.wait(cond, deadline=clock.now() - 1.0)
        clock.wait(cond, deadline=clock.now() + 0.01)
    assert time.monotonic() - start < 1.0


def test_virtual_clock_does_not_fire_beyond_deadline():
    clock = VirtualClock()
    fired = []
    clock.schedule(10.0, lambda: fired.append("x"))
    cond = threading.Condition()
    with cond:
        clock.wait(cond, deadline=2.0)
    assert fired == [] and clock.now() == 2.0
    with cond:
        clock.wait(cond, deadline=None)  # the event is still pending
    assert fired == ["x"] and clock.now() == 10.0


def test_virtual_clock_indefinite_wait_without_events_raises():
    clock = VirtualClock()
    cond = threading.Condition()
    with cond:
        for deadline in (None, math.inf):
            with pytest.raises(SimulationStalledError):
                clock.wait(cond, deadline=deadline)
    assert clock.now() == 0.0


def test_virtual_clock_rejects_past_schedule():
    clock = VirtualClock()
    cond = threading.Condition()
    clock.schedule(1.0, lambda: None)
    with cond:
        clock.wait(cond, deadline=None)
    with pytest.raises(ValueError):
        clock.schedule(0.5, lambda: None)


def test_virtual_clock_refuses_a_nan_time():
    clock = VirtualClock()
    fired = []
    with pytest.raises(ValueError, match="nan"):
        clock.schedule(math.nan, lambda: fired.append("nan"))
    clock.schedule(1.0, lambda: fired.append("one"))
    cond = threading.Condition()
    with cond:
        clock.wait(cond, deadline=None)
        with pytest.raises(SimulationStalledError):
            clock.wait(cond, deadline=None)
    assert fired == ["one"] and clock.now() == 1.0
