"""A capture log for stack-level tests, read back as packets."""

from packet_oracle import load_bytes
from repro.net import CaptureLog


class Tap:
    """A recording :class:`CaptureLog` whose packets read like a list.

    Iterating encodes what the log holds since the last read, which
    empties it, and appends those packets (in capture-time order) to
    the ones read before.
    """

    def __init__(self) -> None:
        self.log = CaptureLog()
        self.log.recording = True
        self._packets = []

    def __iter__(self):
        self._packets.extend(load_bytes(self.log.encode()))
        return iter(self._packets)

    def __len__(self) -> int:
        return len(self._packets) + len(self.log)
