"""Deterministic media library generation.

Builds the catalog of shows, ads, movies and live feeds that channels play
and the ACR reference database is trained on — plus "off-library" content
(games, desktops) that external devices display over HDMI and casting.
"""

from __future__ import annotations

from typing import List

from ..sim.rng import RngRegistry
from .content import (ContentItem, ContentKind, GENRES, make_content_id)


class MediaLibrary:
    """A reproducible catalog of content items."""

    def __init__(self, namespace: str, seed: int = 0) -> None:
        self.namespace = namespace
        self._rng = RngRegistry(seed).stream(f"library:{namespace}")
        self.shows: List[ContentItem] = []
        self.ads: List[ContentItem] = []
        self.movies: List[ContentItem] = []
        self.live_feeds: List[ContentItem] = []
        self.episodes: List[ContentItem] = []
        self.off_library: List[ContentItem] = []
        self._counter = 0

    def _next_id(self, kind: str) -> str:
        self._counter += 1
        return make_content_id(f"{self.namespace}:{kind}", self._counter)

    def _genre(self) -> str:
        return GENRES[self._rng.randrange(len(GENRES))]

    # -- population ---------------------------------------------------------

    def populate(self) -> "MediaLibrary":
        """Fill the catalog with the standard mix (40 shows, 30 ads, 15
        movies, 6 live feeds, 25 episodes, 5 games, 3 desktops); returns
        self."""
        for i in range(40):
            self.shows.append(ContentItem(
                self._next_id("show"), f"Show {i}", ContentKind.SHOW,
                duration_s=self._rng.choice([1320, 1740, 2640]),
                genre=self._genre()))
        for i in range(30):
            self.ads.append(ContentItem(
                self._next_id("ad"), f"Ad {i}", ContentKind.AD,
                duration_s=self._rng.choice([15, 20, 30]),
                genre=self._rng.choice(["shopping", "travel"])))
        for i in range(15):
            self.movies.append(ContentItem(
                self._next_id("movie"), f"Movie {i}", ContentKind.MOVIE,
                duration_s=self._rng.choice([5400, 6600, 7800]),
                genre=self._genre()))
        for i in range(6):
            self.live_feeds.append(ContentItem(
                self._next_id("live"), f"Live feed {i}", ContentKind.LIVE,
                duration_s=86400, genre=self._rng.choice(
                    ["news", "sports"])))
        for i in range(25):
            self.episodes.append(ContentItem(
                self._next_id("episode"), f"Episode {i}",
                ContentKind.EPISODE,
                duration_s=self._rng.choice([1500, 2700, 3300]),
                genre=self._genre()))
        for i in range(5):
            self.off_library.append(ContentItem(
                self._next_id("game"), f"Game session {i}",
                ContentKind.GAME, duration_s=86400, genre="kids"))
        for i in range(3):
            self.off_library.append(ContentItem(
                self._next_id("desktop"), f"Laptop desktop {i}",
                ContentKind.DESKTOP, duration_s=86400, genre="news"))
        return self

    # -- access ---------------------------------------------------------------

    @property
    def reference_items(self) -> List[ContentItem]:
        """Everything a vendor's ACR reference database would contain."""
        return (self.shows + self.ads + self.movies + self.live_feeds
                + self.episodes)

    @property
    def all_items(self) -> List[ContentItem]:
        return self.reference_items + self.off_library

    def game(self, index: int = 0) -> ContentItem:
        games = [i for i in self.off_library
                 if i.kind == ContentKind.GAME]
        return games[index % len(games)]

    def desktop(self) -> ContentItem:
        return next(i for i in self.off_library
                    if i.kind == ContentKind.DESKTOP)

    def __len__(self) -> int:
        return len(self.all_items)


def standard_library(country: str, seed: int = 0) -> MediaLibrary:
    """The library used by the testbed for one country."""
    return MediaLibrary(f"{country}-catalog", seed).populate()
