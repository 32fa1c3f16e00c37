"""Generator-based processes on top of the event loop.

A process is a Python generator that yields *commands*; the scheduler
interprets each command and resumes the generator when it is satisfied.
This gives device models a readable, sequential style::

    def acr_loop(proc):
        while True:
            yield Sleep(seconds(15))
            client.flush_batch()

Supported commands:

* :class:`Sleep` — resume after a virtual-time delay.

Processes can be stopped (e.g. when the TV powers off); a stopped process
never resumes.
"""

from __future__ import annotations

from typing import Any, Generator, Iterator, Optional

from .events import Event, EventLoop


class Sleep:
    """Yield command: suspend the process for ``delay`` nanoseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: int) -> None:
        if delay < 0:
            raise ValueError("negative sleep")
        self.delay = int(delay)


ProcessBody = Generator[Any, Any, None]


class Process:
    """A running generator bound to an event loop."""

    def __init__(self, loop: EventLoop, body: ProcessBody,
                 name: str = "proc") -> None:
        self.loop = loop
        self.name = name
        self._body: Optional[Iterator[Any]] = body
        self._pending_event: Optional[Event] = None
        self.finished = False
        self.stopped = False

    def start(self) -> "Process":
        """Schedule the first step at the current virtual time."""
        self._pending_event = self.loop.call_after(0, self._resume, None)
        return self

    def stop(self) -> None:
        """Terminate the process; it will never resume."""
        self.stopped = True
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._body is not None:
            self._body.close()
            self._body = None
        self.finished = True

    @property
    def alive(self) -> bool:
        """True while the process can still make progress."""
        return not self.finished and not self.stopped

    def _resume(self, value: Any) -> None:
        if self.stopped or self._body is None:
            return
        self._pending_event = None
        try:
            command = self._body.send(value)
        except StopIteration:
            self.finished = True
            self._body = None
            return
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, Sleep):
            self._pending_event = self.loop.call_after(
                command.delay, self._resume, None)
        else:
            raise TypeError(
                f"process {self.name!r} yielded unsupported command: "
                f"{command!r}")

    def __repr__(self) -> str:
        if self.stopped:
            state = "stopped"
        elif self.finished:
            state = "finished"
        else:
            state = "running"
        return f"Process({self.name!r}, {state})"


def spawn(loop: EventLoop, body: ProcessBody, name: str = "proc") -> Process:
    """Create and start a process in one call."""
    return Process(loop, body, name).start()
