"""Tracker blocklists in the style of Blokada's 1Hosts and Netify.

The paper validates its "acr"-substring heuristic against these sources:
"Identified domains with the 'acr' string were classified as
tracking-related by sources like Netify and Blocada."  We model both as
suffix/wildcard lists over the simulated domain universe.
"""

from __future__ import annotations

from typing import Dict, Optional

# Blokada-1Hosts-like: plain suffix entries; a domain is listed when it
# equals an entry or ends with "." + entry.
BLOKADA_LITE = [
    "alphonso.tv",
    "samsungacr.com",
    "samsungcloud.tv",
    "samsungcloudsolution.com",
    "samsungads.com",
    "lgsmartad.com",
    "lgads.tv",
    # Extension-vendor operators (appended: earlier entries keep their
    # positions so paper-vendor classifications never shift).
    "teletrack.tv",
    "inscape.example.tv",
]

# Netify-like: domain suffix -> (application, category).
NETIFY_CATALOG: Dict[str, Dict[str, str]] = {
    "alphonso.tv": {"application": "Alphonso", "category": "advertiser"},
    "samsungacr.com": {"application": "Samsung ACR",
                       "category": "advertiser"},
    "samsungcloud.tv": {"application": "Samsung TV",
                        "category": "advertiser"},
    "samsungcloudsolution.com": {"application": "Samsung TV",
                                 "category": "platform"},
    "samsungads.com": {"application": "Samsung Ads",
                       "category": "advertiser"},
    "lgsmartad.com": {"application": "LG Smart Ad",
                      "category": "advertiser"},
    "lgtvsdp.com": {"application": "LG SDP", "category": "platform"},
    "lge.com": {"application": "LG Electronics", "category": "platform"},
    "netflix.com": {"application": "Netflix", "category": "streaming"},
    "youtube.com": {"application": "YouTube", "category": "streaming"},
    "teletrack.tv": {"application": "Teletrack ACR",
                     "category": "advertiser"},
    "inscape.example.tv": {"application": "Inscape-style Data",
                           "category": "advertiser"},
}


def _suffix_match(domain: str, entry: str) -> bool:
    domain = domain.lower().rstrip(".")
    return domain == entry or domain.endswith("." + entry)


class Blocklist:
    """A Blokada-style hosts list."""

    def __init__(self) -> None:
        self.entries = [entry.lower() for entry in BLOKADA_LITE]

    def is_listed(self, domain: str) -> bool:
        return any(_suffix_match(domain, entry) for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class NetifyDirectory:
    """A Netify-style domain intelligence directory."""

    def __init__(self) -> None:
        self.catalog = NETIFY_CATALOG

    def classify(self, domain: str) -> Optional[Dict[str, str]]:
        for suffix, info in self.catalog.items():
            if _suffix_match(domain, suffix):
                return dict(info)
        return None

    def is_tracking_related(self, domain: str) -> bool:
        info = self.classify(domain)
        return bool(info and info["category"] == "advertiser")
