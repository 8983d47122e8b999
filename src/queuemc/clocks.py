"""Injectable time sources.

Queues and compute backends never read the system clock directly; they
take a clock object, so wall time and simulated time are interchangeable.
``WallClock`` reports real elapsed seconds. ``VirtualClock`` is a small
discrete-event engine: components schedule actions at absolute virtual
times and the clock advances only when a consumer waits on it, firing
due actions in time order. All timestamps are seconds relative to the
clock's origin.

A wait takes an absolute deadline on both clocks, not a timeout. A
virtual wait that reaches its deadline sets the clock to it exactly, so a
consumer that waits for a stamp lands on that stamp, with no
``now + (stamp - now)`` rounding.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time
from typing import Callable, Protocol

from .errors import SimulationStalledError


class Clock(Protocol):
    def now(self) -> float:
        """Current time in seconds since the clock origin."""
        ...

    def wait(self, cond: threading.Condition, deadline: float | None) -> None:
        """Block until ``cond`` is notified, an event fires, or the clock
        reaches ``deadline``, an absolute time; None waits without one.

        Called with ``cond`` held; must return with ``cond`` held.
        """
        ...


class WallClock:
    """Real time, measured from instantiation with a monotonic source."""

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._t0

    def wait(self, cond: threading.Condition, deadline: float | None) -> None:
        # A longer wait overflows the platform's timeout; callers re-check
        # their deadline after every wake-up.
        cond.wait(None if deadline is None
                  else min(deadline - self.now(), threading.TIMEOUT_MAX))


class VirtualClock:
    """Deterministic simulated time.

    Single-threaded by design: events fire inside the waiting caller's
    thread. ``wait`` releases the caller's condition lock while an event
    action runs so the action may push messages back into the waited-on
    queue.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._events: list[tuple[float, int, Callable[..., object], tuple]] = []
        self._seq = itertools.count()

    def now(self) -> float:
        return self._now

    def schedule(self, when: float, action: Callable[..., object], *args) -> None:
        """Arrange for ``action(*args)`` to run when virtual time reaches ``when``.

        Actions due at one time run in the order they were scheduled. A
        ``when`` before the clock's time, or NaN, raises ``ValueError``.
        """
        # Written so that NaN fails it.
        if not when >= self._now:
            raise ValueError(f"cannot schedule at {when}: clock is already at {self._now}")
        heapq.heappush(self._events, (float(when), next(self._seq), action, args))

    def wait(self, cond: threading.Condition, deadline: float | None) -> None:
        """Fire the next event due by ``deadline``; with none, move the
        clock to ``deadline`` (never back), or raise
        :class:`SimulationStalledError` if there is no finite deadline."""
        if deadline is None:
            deadline = math.inf
        if self._events and self._events[0][0] <= deadline:
            when, _, action, args = heapq.heappop(self._events)
            self._now = max(self._now, when)
            cond.release()
            try:
                action(*args)
            finally:
                cond.acquire()
        elif deadline == math.inf:
            raise SimulationStalledError(
                "waiting forever on virtual time with no scheduled events")
        elif deadline > self._now:
            self._now = deadline
