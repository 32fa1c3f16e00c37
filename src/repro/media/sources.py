"""TV input sources — one per experimental scenario.

A source answers two questions the ACR client asks at capture time:
"what's on screen right now?" (:meth:`screen_state`) and "what kind of
input am I?" (:attr:`source_type`).  The six paper scenarios map to:

========== ==========================
Scenario   Source
========== ==========================
Idle       :class:`HomeScreen`
Linear     :class:`Tuner`
FAST       :class:`FastApp`
OTT        :class:`OttApp`
HDMI       :class:`HdmiInput`
ScreenCast :class:`ScreenCast`
========== ==========================
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional

from ..sim.clock import NS_PER_SECOND
from .content import ContentItem, ContentKind, PlayState
from .schedule import Channel


class SourceType(Enum):
    """Input classes the ACR policy can discriminate between."""

    HOME = "home"
    TUNER = "tuner"
    FAST = "fast"
    OTT = "ott"
    HDMI = "hdmi"
    CAST = "cast"


class InputSource:
    """Base class: a thing the TV can display."""

    source_type: SourceType

    def screen_state(self, at_ns: int) -> Optional[PlayState]:
        """What is on screen at ``at_ns`` (None = nothing / static UI).

        Must answer for any ``at_ns >= 0``, without side effects: the
        ACR client also asks about the times its next ticks will
        sample, to fingerprint them ahead in one batch.
        """
        raise NotImplementedError

    @property
    def app_id(self) -> Optional[str]:
        """The foreground app identity, if the source is an app."""
        return None


class HomeScreen(InputSource):
    """The launcher UI: a single static 'content' item of kind UI."""

    source_type = SourceType.HOME

    def __init__(self, ui_item: ContentItem) -> None:
        if ui_item.kind != ContentKind.UI:
            raise ValueError("home screen needs a UI content item")
        self.ui_item = ui_item

    def screen_state(self, at_ns: int) -> PlayState:
        # The launcher animates mildly; position cycles slowly.
        return PlayState(self.ui_item, (at_ns // NS_PER_SECOND) % 30)


class Tuner(InputSource):
    """Linear broadcast via antenna."""

    source_type = SourceType.TUNER

    def __init__(self, channel: Channel) -> None:
        if channel.kind != "linear":
            raise ValueError("tuner needs a linear channel")
        self.channel = channel

    def screen_state(self, at_ns: int) -> PlayState:
        return self.channel.playing_at(at_ns)


class FastApp(InputSource):
    """The manufacturer's FAST platform (Samsung TV+ / LG Channels)."""

    source_type = SourceType.FAST

    def __init__(self, app_name: str, channel: Channel) -> None:
        if channel.kind != "fast":
            raise ValueError("FAST app needs a fast channel")
        self._app_name = app_name
        self.channel = channel

    @property
    def app_id(self) -> str:
        return self._app_name

    def screen_state(self, at_ns: int) -> PlayState:
        return self.channel.playing_at(at_ns)


class OttApp(InputSource):
    """A third-party streaming app (Netflix / YouTube)."""

    source_type = SourceType.OTT

    def __init__(self, app_name: str, playlist: List[ContentItem]) -> None:
        if not playlist:
            raise ValueError("empty playlist")
        self._app_name = app_name
        self.playlist = playlist

    @property
    def app_id(self) -> str:
        return self._app_name

    def screen_state(self, at_ns: int) -> PlayState:
        second = at_ns // NS_PER_SECOND
        for item in self.playlist:
            if second < item.duration_s:
                return PlayState(item, second)
            second -= item.duration_s
        # Loop the playlist.
        total = sum(item.duration_s for item in self.playlist)
        return self.screen_state((at_ns // NS_PER_SECOND % total)
                                 * NS_PER_SECOND)


class HdmiInput(InputSource):
    """An external device over HDMI: laptop or game console.

    The display alternates between the external item's own timeline —
    the TV has no idea what the pixels are, it is a "dumb" display.
    """

    source_type = SourceType.HDMI

    def __init__(self, external_items: List[ContentItem],
                 dwell_s: int = 300) -> None:
        if not external_items:
            raise ValueError("HDMI needs at least one external item")
        if dwell_s <= 0:
            raise ValueError("dwell must be positive")
        self.external_items = external_items
        self.dwell_s = dwell_s

    def screen_state(self, at_ns: int) -> PlayState:
        second = at_ns // NS_PER_SECOND
        index = (second // self.dwell_s) % len(self.external_items)
        item = self.external_items[index]
        return PlayState(item, second % min(self.dwell_s, item.duration_s))


class ScreenCast(InputSource):
    """Wi-Fi mirroring of a phone/laptop playing streamed video."""

    source_type = SourceType.CAST

    def __init__(self, mirrored: ContentItem) -> None:
        self.mirrored = mirrored

    def screen_state(self, at_ns: int) -> PlayState:
        second = at_ns // NS_PER_SECOND
        return PlayState(self.mirrored, second % self.mirrored.duration_s)
