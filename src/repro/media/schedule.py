"""Channel schedules for linear broadcast and FAST streaming.

A channel is a deterministic timeline of slots — show segments interleaved
with ad breaks; ``playing_at`` answers "what content, at what offset, is on
this channel at wall-time t" — which is what the tuner and FAST app render
and the ACR client fingerprints.
"""

from __future__ import annotations

from typing import List

from ..sim.clock import NS_PER_SECOND
from .content import ContentItem, PlayState
from .library import MediaLibrary

AD_BREAK_EVERY_S = 600  # one break roughly every ten minutes
AD_SLOTS_PER_BREAK = 3
SHOWS_PER_CHANNEL = 6


class ScheduleSlot:
    """One slot: a content item playing from ``item_offset_s`` for
    ``duration_s`` seconds, starting at channel time ``start_s``."""

    __slots__ = ("start_s", "duration_s", "item", "item_offset_s")

    def __init__(self, start_s: int, duration_s: int, item: ContentItem,
                 item_offset_s: int = 0) -> None:
        if duration_s <= 0:
            raise ValueError("slot duration must be positive")
        self.start_s = start_s
        self.duration_s = duration_s
        self.item = item
        self.item_offset_s = item_offset_s

    @property
    def end_s(self) -> int:
        return self.start_s + self.duration_s

    def __repr__(self) -> str:
        return (f"ScheduleSlot({self.start_s}s +{self.duration_s}s: "
                f"{self.item.content_id}@{self.item_offset_s}s)")


class Channel:
    """A broadcast or FAST channel with a repeating timeline."""

    def __init__(self, name: str, slots: List[ScheduleSlot],
                 kind: str = "linear") -> None:
        if not slots:
            raise ValueError("empty schedule")
        for earlier, later in zip(slots, slots[1:]):
            if later.start_s != earlier.end_s:
                raise ValueError("slots must be strictly consecutive")
        self.name = name
        self.slots = slots
        self.kind = kind
        self.cycle_s = slots[-1].end_s

    def playing_at(self, at_ns: int) -> PlayState:
        """The play state on this channel at virtual time ``at_ns``."""
        second = (at_ns // NS_PER_SECOND) % self.cycle_s
        lo, hi = 0, len(self.slots) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.slots[mid].end_s <= second:
                lo = mid + 1
            else:
                hi = mid
        slot = self.slots[lo]
        return PlayState(slot.item,
                         slot.item_offset_s + (second - slot.start_s))

    def __repr__(self) -> str:
        return (f"Channel({self.name!r}, {self.kind}, "
                f"{len(self.slots)} slots, cycle={self.cycle_s}s)")


def build_channel(name: str, library: MediaLibrary, kind: str = "linear",
                  offset: int = 0) -> Channel:
    """A channel alternating show segments with ad breaks.

    ``offset`` lets different channels draw different shows from the same
    library, so two channels never have identical timelines.
    """
    if not library.shows or not library.ads:
        raise ValueError("library must be populated")
    slots: List[ScheduleSlot] = []
    clock_s = 0
    ad_cursor = offset
    for i in range(SHOWS_PER_CHANNEL):
        show = library.shows[(offset + i) % len(library.shows)]
        position = 0
        while position < show.duration_s:
            segment = min(show.duration_s - position, AD_BREAK_EVERY_S)
            slots.append(ScheduleSlot(clock_s, segment, show, position))
            clock_s += segment
            position += segment
            if position < show.duration_s:
                for __ in range(AD_SLOTS_PER_BREAK):
                    ad = library.ads[ad_cursor % len(library.ads)]
                    ad_cursor += 1
                    slots.append(ScheduleSlot(clock_s, ad.duration_s, ad))
                    clock_s += ad.duration_s
    return Channel(name, slots, kind)
