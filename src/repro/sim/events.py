"""Event queue and scheduler for the discrete-event simulator.

The event loop is the single source of truth for virtual time.  Components
(TV services, ACR clients, network links) schedule callbacks; the loop pops
them in timestamp order and advances the clock.

Determinism: ties on timestamp are broken by insertion sequence number, so a
run is fully reproducible from its seed regardless of heap internals.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from .clock import Clock


class Event:
    """A scheduled callback.

    Events are cancellable: :meth:`cancel` marks the event dead and the loop
    skips it on pop.  This is how timeouts and interrupted sleeps work.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: int, seq: int,
                 callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the loop will not execute it."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {state})"


class EventLoop:
    """Deterministic discrete-event loop.

    Usage::

        loop = EventLoop()
        loop.call_at(clock_ns, fn, arg1)
        loop.call_after(delay_ns, fn)
        loop.run_until(hours(1))
    """

    def __init__(self) -> None:
        self.clock = Clock()
        self._heap: List[Event] = []
        self._seq = 0
        self._running = False
        self._executed = 0

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def executed(self) -> int:
        """Number of events executed so far."""
        return self._executed

    def call_at(self, time: int, callback: Callable[..., Any],
                *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: {time} < {self.clock.now}")
        event = Event(int(time), self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def call_after(self, delay: int, callback: Callable[..., Any],
                   *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.clock.now + delay, callback, *args)

    def run_until(self, deadline: int) -> None:
        """Execute events up to and including ``deadline``.

        The clock finishes exactly at ``deadline`` even if the queue drains
        early, so capture durations are exact.
        """
        if deadline < self.clock.now:
            raise ValueError("deadline is in the past")
        self._running = True
        try:
            while self._heap and self._heap[0].time <= deadline:
                event = heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                self.clock.advance_to(event.time)
                self._executed += 1
                event.callback(*event.args)
            self.clock.advance_to(deadline)
        finally:
            self._running = False

    def run_to_completion(self, max_events: Optional[int] = None) -> None:
        """Drain the queue entirely (mainly for tests)."""
        self._running = True
        try:
            count = 0
            while self._heap:
                event = heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                self.clock.advance_to(event.time)
                self._executed += 1
                event.callback(*event.args)
                count += 1
                if max_events is not None and count >= max_events:
                    break
        finally:
            self._running = False

    def __repr__(self) -> str:
        return (f"EventLoop(now={self.clock.format()}, "
                f"pending={self.pending}, executed={self._executed})")
