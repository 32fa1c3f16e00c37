"""Discrete-event simulation core.

The testbed (:mod:`repro.testbed`) runs every experiment on this engine: a
virtual :class:`~repro.sim.clock.Clock`, a deterministic
:class:`~repro.sim.events.EventLoop`, generator-based
:class:`~repro.sim.process.Process` objects for device behaviour, and named
seeded random streams (:class:`~repro.sim.rng.RngRegistry`).
"""

from .clock import (
    Clock,
    NS_PER_HOUR,
    NS_PER_MINUTE,
    NS_PER_MS,
    NS_PER_SECOND,
    NS_PER_US,
    hours,
    microseconds,
    milliseconds,
    minutes,
    seconds,
)
from .events import Event, EventLoop
from .process import Process, Sleep, spawn
from .rng import RngRegistry

__all__ = [
    "Clock",
    "Event",
    "EventLoop",
    "Process",
    "RngRegistry",
    "Sleep",
    "NS_PER_HOUR",
    "NS_PER_MINUTE",
    "NS_PER_MS",
    "NS_PER_SECOND",
    "NS_PER_US",
    "hours",
    "microseconds",
    "milliseconds",
    "minutes",
    "seconds",
    "spawn",
]
