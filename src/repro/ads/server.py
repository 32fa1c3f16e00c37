"""The ad server: segment-targeted ad decisioning over ACR profiles.

Closes the loop Figure 1 promises: ACR viewing history -> audience
segments -> "target personalized ads".  When a device has usable segments
(and ad personalization consent), targeted creatives win the auction;
otherwise the device gets house ads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..acr.segments import SegmentProfiler
from ..sim.rng import RngRegistry
from .inventory import AdCreative, AdInventory

TARGETED_FILL_RATE = 0.85  # targeted campaigns occasionally lose anyway


class AdImpression:
    """One served ad."""

    __slots__ = ("device_id", "creative", "at_ns", "targeted_on")

    def __init__(self, device_id: str, creative: AdCreative, at_ns: int,
                 targeted_on: Optional[str]) -> None:
        self.device_id = device_id
        self.creative = creative
        self.at_ns = at_ns
        self.targeted_on = targeted_on

    @property
    def is_targeted(self) -> bool:
        return self.targeted_on is not None

    def __repr__(self) -> str:
        basis = self.targeted_on or "house"
        return (f"AdImpression({self.device_id}, "
                f"{self.creative.creative_id} [{basis}])")


class AdServer:
    """Serves ad slots using the operator's segment profiles."""

    def __init__(self, inventory: AdInventory, profiler: SegmentProfiler,
                 rng: RngRegistry) -> None:
        self.inventory = inventory
        self.profiler = profiler
        self.rng = rng
        self.impressions: List[AdImpression] = []
        self._consent: Dict[str, bool] = {}

    def set_consent(self, device_id: str, personalized: bool) -> None:
        """Record a device's ad-personalization consent state."""
        self._consent[device_id] = personalized

    def serve(self, device_id: str, at_ns: int) -> AdImpression:
        """Fill one ad slot for a device."""
        segments = []
        if self._consent.get(device_id, True):
            segments = self.profiler.profile(device_id).segments
        creative, targeted_on = self._decide(device_id, segments)
        impression = AdImpression(device_id, creative, at_ns, targeted_on)
        self.impressions.append(impression)
        return impression

    def _decide(self, device_id: str, segments: List[str]):
        for segment in segments:
            candidates = self.inventory.creatives_for(segment)
            if candidates and self.rng.chance(
                    f"ads:fill:{device_id}", TARGETED_FILL_RATE):
                index = self.rng.bounded_int(
                    f"ads:pick:{device_id}", 0, len(candidates) - 1)
                return candidates[index], segment
        house = self.inventory.house_ads
        index = self.rng.bounded_int(
            f"ads:house:{device_id}", 0, len(house) - 1)
        return house[index], None

    # -- reporting -----------------------------------------------------------

    def impressions_for(self, device_id: str) -> List[AdImpression]:
        return [i for i in self.impressions if i.device_id == device_id]

    def targeting_rate(self, device_id: str) -> float:
        """Fraction of a device's impressions that were targeted."""
        impressions = self.impressions_for(device_id)
        if not impressions:
            return 0.0
        return sum(i.is_targeted for i in impressions) / len(impressions)

    def revenue_millis(self, device_id: str) -> int:
        return sum(i.creative.cpm_millis
                   for i in self.impressions_for(device_id))

    def __repr__(self) -> str:
        return f"AdServer({len(self.impressions)} impressions served)"
