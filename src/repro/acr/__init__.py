"""The ACR system under audit: fingerprinting, reference library, matcher,
vendor capture policies, on-TV client and operator backend — the
Figure-1 loop of the paper up to the operator's viewing history."""

from .client import AcrClient, AcrClientStats, AcrTransport
from .fingerprint import (Capture, FingerprintBatch, capture_state,
                          hamming_distance, video_fingerprint)
from .library import ReferenceLibrary, bands_of
from .matcher import BatchVerdict, FingerprintMatcher, Match
from .policy import (CaptureDecision, VendorAcrProfile,
                     capture_decision, profile_for)
from .server import AcrBackend, ViewingEvent, ViewingSession

__all__ = [
    "AcrBackend",
    "AcrClient",
    "AcrClientStats",
    "AcrTransport",
    "BatchVerdict",
    "Capture",
    "CaptureDecision",
    "FingerprintBatch",
    "FingerprintMatcher",
    "Match",
    "ReferenceLibrary",
    "VendorAcrProfile",
    "ViewingEvent",
    "ViewingSession",
    "bands_of",
    "capture_decision",
    "capture_state",
    "hamming_distance",
    "profile_for",
    "video_fingerprint",
]
