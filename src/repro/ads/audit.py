"""The ACR -> ad-personalization linkage study (paper future work:
"investigate the link between ACR tracking and ad personalization").

Protocol: two otherwise-identical devices watch the same content through
the full ACR loop; one is opted in, one opted out.  Both then request the
same number of home-screen ad slots.  The linkage is established when the
opted-in device's impressions are (a) mostly targeted, (b) aligned with
the genre it watched, while the opted-out device receives house ads only.
"""

from __future__ import annotations

from typing import Dict, List

from ..acr.fingerprint import FingerprintBatch, capture_batch
from ..acr.segments import SEGMENT_LABELS, SegmentProfiler
from ..acr.server import AcrBackend
from ..media.content import ContentItem
from ..sim.clock import seconds
from ..sim.rng import RngRegistry
from .inventory import AdInventory
from .server import AdServer


class LinkageResult:
    """Outcome of the linkage study for one content genre."""

    __slots__ = ("genre", "expected_segment", "optin_rate", "optout_rate",
                 "optin_aligned_rate", "optin_revenue_millis",
                 "optout_revenue_millis", "impressions")

    def __init__(self, genre: str, expected_segment: str,
                 optin_rate: float, optout_rate: float,
                 optin_aligned_rate: float,
                 optin_revenue_millis: int, optout_revenue_millis: int,
                 impressions: int) -> None:
        self.genre = genre
        self.expected_segment = expected_segment
        self.optin_rate = optin_rate
        self.optout_rate = optout_rate
        self.optin_aligned_rate = optin_aligned_rate
        self.optin_revenue_millis = optin_revenue_millis
        self.optout_revenue_millis = optout_revenue_millis
        self.impressions = impressions

    @property
    def linkage_established(self) -> bool:
        """ACR viewing demonstrably drives ad selection."""
        return (self.optin_rate > 0.5
                and self.optout_rate == 0.0
                and self.optin_aligned_rate > 0.5)

    @property
    def revenue_lift(self) -> float:
        """How much more the opted-in device's slots are worth."""
        if self.optout_revenue_millis == 0:
            return float("inf")
        return self.optin_revenue_millis / self.optout_revenue_millis

    def __repr__(self) -> str:
        return (f"LinkageResult({self.genre}: opt-in {self.optin_rate:.0%}"
                f" targeted vs opt-out {self.optout_rate:.0%}, "
                f"aligned {self.optin_aligned_rate:.0%})")


def _watch(backend: AcrBackend, device_id: str, item: ContentItem,
           minutes_watched: int) -> None:
    """Feed the backend recognised batches as if the device watched."""
    for minute in range(minutes_watched):
        position = (60.0 * minute) % max(1, item.duration_s - 10)
        captures = capture_batch(item, [position + i for i in range(6)])
        backend.ingest(FingerprintBatch(device_id, captures),
                       seconds(60 * minute))


def run_linkage_study(backend: AcrBackend, item: ContentItem,
                      minutes_watched: int = 30, ad_slots: int = 40,
                      seed: int = 0) -> LinkageResult:
    """Run the two-device protocol for one content item."""
    rng = RngRegistry(seed).fork("ads-linkage")
    profiler = SegmentProfiler(backend, backend.library)
    server = AdServer(AdInventory(seed), profiler, rng)

    optin_device = f"linkage-optin-{item.content_id}"
    optout_device = f"linkage-optout-{item.content_id}"
    # Only the opted-in device's viewing reaches the backend at all
    # (opt-out stops ACR traffic entirely, §4.2) — and its consent
    # enables personalization.
    _watch(backend, optin_device, item, minutes_watched)
    server.set_consent(optin_device, True)
    server.set_consent(optout_device, False)

    expected_segment = SEGMENT_LABELS.get(item.genre, "")
    aligned = 0
    for slot in range(ad_slots):
        impression = server.serve(optin_device, seconds(3600 + slot * 30))
        if impression.targeted_on == expected_segment:
            aligned += 1
        server.serve(optout_device, seconds(3600 + slot * 30))

    optin_impressions = server.impressions_for(optin_device)
    targeted = [i for i in optin_impressions if i.is_targeted]
    return LinkageResult(
        genre=item.genre,
        expected_segment=expected_segment,
        optin_rate=server.targeting_rate(optin_device),
        optout_rate=server.targeting_rate(optout_device),
        optin_aligned_rate=(aligned / len(targeted) if targeted else 0.0),
        optin_revenue_millis=server.revenue_millis(optin_device),
        optout_revenue_millis=server.revenue_millis(optout_device),
        impressions=ad_slots,
    )


def run_multi_genre_study(backend: AcrBackend,
                          items: List[ContentItem],
                          seed: int = 0) -> Dict[str, LinkageResult]:
    """The study across several genres (one result per item genre)."""
    results: Dict[str, LinkageResult] = {}
    for index, item in enumerate(items):
        results[item.genre] = run_linkage_study(
            backend, item, seed=seed + index)
    return results
