"""Server-controlled smart plug.

The methodology powers TVs on and off through smart plugs so the whole
experiment workflow is automated and the boot DNS burst is always captured.
"""

from __future__ import annotations

from typing import List, Tuple

from ..sim.events import EventLoop
from .device import SmartTV


class SmartPlug:
    """Schedules TV power transitions on the event loop."""

    def __init__(self, loop: EventLoop, tv: SmartTV) -> None:
        self.loop = loop
        self.tv = tv
        self.transitions: List[Tuple[int, str]] = []

    def power_on_at(self, at_ns: int) -> None:
        self.loop.call_at(at_ns, self._on)

    def power_off_at(self, at_ns: int) -> None:
        self.loop.call_at(at_ns, self._off)

    def _on(self) -> None:
        self.tv.power_on()
        self.transitions.append((self.loop.now, "on"))

    def _off(self) -> None:
        self.tv.power_off()
        self.transitions.append((self.loop.now, "off"))

    def __repr__(self) -> str:
        return f"SmartPlug({len(self.transitions)} transitions)"
