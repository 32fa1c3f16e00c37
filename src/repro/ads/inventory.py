"""Ad inventory: the creatives an ad server can place on a smart TV.

Each creative targets an audience segment (or is a run-of-network "house"
ad); the linkage study measures whether the creatives a TV receives
correlate with what its ACR profile says it watched.
"""

from __future__ import annotations

from typing import Dict, List

from ..acr.segments import SEGMENT_LABELS
from ..sim.rng import RngRegistry

HOUSE_SEGMENT = "house"


class AdCreative:
    """One ad with its targeting segment."""

    __slots__ = ("creative_id", "title", "segment", "cpm_millis")

    def __init__(self, creative_id: str, title: str, segment: str,
                 cpm_millis: int) -> None:
        if cpm_millis <= 0:
            raise ValueError("CPM must be positive")
        self.creative_id = creative_id
        self.title = title
        self.segment = segment
        self.cpm_millis = cpm_millis

    @property
    def is_targeted(self) -> bool:
        return self.segment != HOUSE_SEGMENT

    def __repr__(self) -> str:
        return (f"AdCreative({self.creative_id}, {self.segment}, "
                f"cpm={self.cpm_millis / 1000:.2f})")


class AdInventory:
    """A reproducible catalog of creatives covering every segment."""

    def __init__(self, seed: int = 0, per_segment: int = 4,
                 house_ads: int = 6) -> None:
        if per_segment < 1 or house_ads < 1:
            raise ValueError("inventory needs at least one ad per bucket")
        rng = RngRegistry(seed).stream("ads:inventory")
        self._by_segment: Dict[str, List[AdCreative]] = {}
        counter = 0
        for segment in sorted(set(SEGMENT_LABELS.values())):
            creatives = []
            for __ in range(per_segment):
                counter += 1
                creatives.append(AdCreative(
                    f"cr-{counter:04d}",
                    f"{segment} creative {counter}",
                    segment,
                    cpm_millis=rng.randint(8000, 30000)))
            self._by_segment[segment] = creatives
        house = []
        for __ in range(house_ads):
            counter += 1
            house.append(AdCreative(
                f"cr-{counter:04d}", f"House ad {counter}",
                HOUSE_SEGMENT, cpm_millis=rng.randint(500, 2000)))
        self._by_segment[HOUSE_SEGMENT] = house

    def creatives_for(self, segment: str) -> List[AdCreative]:
        return list(self._by_segment.get(segment, ()))

    @property
    def house_ads(self) -> List[AdCreative]:
        return list(self._by_segment[HOUSE_SEGMENT])

    @property
    def segments(self) -> List[str]:
        return sorted(s for s in self._by_segment if s != HOUSE_SEGMENT)

    @property
    def all_creatives(self) -> List[AdCreative]:
        return [c for creatives in self._by_segment.values()
                for c in creatives]

    def __len__(self) -> int:
        return len(self.all_creatives)
