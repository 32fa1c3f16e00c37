"""Content items: the things that can appear on a TV screen.

Everything the six experimental scenarios can display — broadcast shows,
ads, streaming episodes, a laptop desktop, a game — is a
:class:`ContentItem`.  Content identity is what the ACR server ultimately
tries to recover from fingerprints.
"""

from __future__ import annotations

import hashlib
from enum import Enum


class ContentKind(Enum):
    """What sort of content an item is."""

    SHOW = "show"            # broadcast programme
    AD = "ad"                # advertisement
    MOVIE = "movie"          # on-demand film
    EPISODE = "episode"      # on-demand series episode
    LIVE = "live"            # live feed (news, sport)
    GAME = "game"            # console game output (HDMI)
    DESKTOP = "desktop"      # laptop screen (HDMI / cast)
    UI = "ui"                # smart TV home screen


GENRES = ["news", "sports", "drama", "travel", "shopping", "cooking",
          "documentary", "kids", "music", "comedy"]


class ContentItem:
    """One piece of content with stable identity and visual seed."""

    __slots__ = ("content_id", "title", "kind", "duration_s", "genre")

    def __init__(self, content_id: str, title: str, kind: ContentKind,
                 duration_s: int, genre: str) -> None:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if genre not in GENRES:
            raise ValueError(f"unknown genre: {genre!r}")
        self.content_id = content_id
        self.title = title
        self.kind = kind
        self.duration_s = duration_s
        self.genre = genre

    @property
    def visual_seed(self) -> int:
        """Stable seed that drives this item's synthetic frames."""
        digest = hashlib.sha256(self.content_id.encode("ascii")).digest()
        return int.from_bytes(digest[:8], "big")

    def __repr__(self) -> str:
        return (f"ContentItem({self.content_id!r}, {self.kind.value}, "
                f"{self.duration_s}s, {self.genre})")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ContentItem)
                and other.content_id == self.content_id)

    def __hash__(self) -> int:
        return hash(("content", self.content_id))


def make_content_id(namespace: str, index: int) -> str:
    """Deterministic content id, e.g. ``uk-bbc:show:0012``."""
    return f"{namespace}:{index:04d}"


class PlayState:
    """A content item at a playback position."""

    __slots__ = ("item", "position_s")

    def __init__(self, item: ContentItem, position_s: float) -> None:
        if position_s < 0:
            raise ValueError("negative playback position")
        self.item = item
        self.position_s = position_s

    def __repr__(self) -> str:
        return f"PlayState({self.item.content_id} @ {self.position_s:.1f}s)"


def launcher_item() -> ContentItem:
    """The smart TV launcher UI as a content item (Idle scenario)."""
    return ContentItem("ui:launcher", "Launcher", ContentKind.UI,
                       duration_s=86400, genre="news")
