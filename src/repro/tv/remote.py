"""Trigger scripts: the ADB/Tuya remote-control abstraction.

In the paper, Android phones wired to the servers act as remote controls
("effectively transforming mobile phones into remote controls for the smart
TVs").  Here a :class:`RemoteControl` schedules the same actions — launch
an app, tune a channel, switch input — on the event loop, and keeps an
action log the validation scripts check.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from ..media.sources import InputSource
from ..sim.events import EventLoop
from .device import SmartTV


class RemoteControl:
    """Automated remote: deferred, logged device actions."""

    def __init__(self, loop: EventLoop, tv: SmartTV) -> None:
        self.loop = loop
        self.tv = tv
        self.action_log: List[Tuple[int, str]] = []

    def _do(self, at_ns: int, label: str,
            action: Callable[[], None]) -> None:
        def run() -> None:
            action()
            self.action_log.append((self.loop.now, label))
        self.loop.call_at(at_ns, run)

    # -- high-level actions ---------------------------------------------------

    def select_source_at(self, at_ns: int, source: InputSource) -> None:
        self._do(at_ns, f"select-source:{source.source_type.value}",
                 lambda: self.tv.select_source(source))

    def __repr__(self) -> str:
        return f"RemoteControl({len(self.action_log)} actions)"
