"""Virtual time for the discrete-event simulator.

All simulation time is kept in integer nanoseconds to avoid floating point
drift over hour-long experiments (the paper's unit of capture is one hour,
and its finest-grained analysis bins packets per *millisecond*, Figure 4).
"""

from __future__ import annotations

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SECOND = 1_000_000_000
NS_PER_MINUTE = 60 * NS_PER_SECOND
NS_PER_HOUR = 60 * NS_PER_MINUTE


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return round(value * NS_PER_SECOND)


def milliseconds(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return round(value * NS_PER_MS)


def microseconds(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return round(value * NS_PER_US)


def minutes(value: float) -> int:
    """Convert minutes to integer nanoseconds."""
    return round(value * NS_PER_MINUTE)


def hours(value: float) -> int:
    """Convert hours to integer nanoseconds."""
    return round(value * NS_PER_HOUR)


class Clock:
    """Monotonic virtual clock owned by a :class:`~repro.sim.events.EventLoop`.

    The clock only moves forward, and only the event loop may advance it.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now

    def advance_to(self, t: int) -> None:
        """Move the clock forward to ``t`` nanoseconds.

        Raises ``ValueError`` on any attempt to move backwards; the event
        loop's heap ordering makes this a programming error, not a runtime
        condition.
        """
        if t < self._now:
            raise ValueError(f"clock moved backwards: {t} < {self._now}")
        self._now = t

    def format(self) -> str:
        """Render the current time as ``HH:MM:SS.mmm`` for logs."""
        total_ms, __ = divmod(self._now, NS_PER_MS)
        total_s, ms = divmod(total_ms, 1000)
        h, rem = divmod(total_s, 3600)
        m, s = divmod(rem, 60)
        return f"{h:02d}:{m:02d}:{s:02d}.{ms:03d}"

    def __repr__(self) -> str:
        return f"Clock({self.format()})"
