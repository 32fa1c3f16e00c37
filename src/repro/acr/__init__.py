"""The ACR system under audit: fingerprinting, reference library, matcher,
vendor capture policies, on-TV client, operator backend and audience
segmentation — the full Figure-1 loop of the paper."""

from .client import AcrClient, AcrClientStats, AcrTransport
from .fingerprint import (Capture, FingerprintBatch, audio_fingerprint,
                          capture_state, hamming_distance,
                          video_fingerprint)
from .library import ReferenceLibrary, bands_of
from .matcher import BatchVerdict, FingerprintMatcher, Match
from .policy import (CaptureDecision, VendorAcrProfile,
                     capture_decision, profile_for)
from .segments import (AudienceProfile, SEGMENT_LABELS, SegmentProfiler)
from .server import AcrBackend, ViewingEvent, ViewingSession

__all__ = [
    "AcrBackend",
    "AcrClient",
    "AcrClientStats",
    "AcrTransport",
    "AudienceProfile",
    "BatchVerdict",
    "Capture",
    "CaptureDecision",
    "FingerprintBatch",
    "FingerprintMatcher",
    "Match",
    "ReferenceLibrary",
    "SEGMENT_LABELS",
    "SegmentProfiler",
    "VendorAcrProfile",
    "ViewingEvent",
    "ViewingSession",
    "audio_fingerprint",
    "bands_of",
    "capture_decision",
    "capture_state",
    "hamming_distance",
    "profile_for",
    "video_fingerprint",
]
