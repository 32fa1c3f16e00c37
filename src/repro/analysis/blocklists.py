"""Tracker blocklists in the style of Blokada's 1Hosts and Netify.

The paper validates its "acr"-substring heuristic against these sources:
"Identified domains with the 'acr' string were classified as
tracking-related by sources like Netify and Blocada."  We model both as
suffix/wildcard lists over the simulated domain universe.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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

    def __init__(self, entries: Optional[List[str]] = None) -> None:
        self.entries = [e.lower() for e in
                        (entries if entries is not None else BLOKADA_LITE)]

    def is_listed(self, domain: str) -> bool:
        return any(_suffix_match(domain, entry) for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class HostsFileBlocklist:
    """A hosts-file-style list: *exact hostnames*, as Blokada ships them.

    Exactness is the operational weakness the rotation study exploits:
    a snapshot listing ``eu-acr1..eu-acr4.alphonso.tv`` silently misses
    ``eu-acr5`` when the vendor rotates past the snapshot.
    """

    def __init__(self, hostnames: List[str]) -> None:
        self.hostnames = {h.lower().rstrip(".") for h in hostnames}

    def is_listed(self, domain: str) -> bool:
        return domain.lower().rstrip(".") in self.hostnames

    def __len__(self) -> int:
        return len(self.hostnames)

    def __repr__(self) -> str:
        return f"HostsFileBlocklist({len(self.hostnames)} hosts)"


def stale_hosts_snapshot(known_rotation_max: int = 4
                         ) -> HostsFileBlocklist:
    """A Blokada-like snapshot taken when only rotation indices
    1..``known_rotation_max`` had been observed in the wild."""
    hosts = []
    for prefix in ("eu-acr", "tkacr"):
        hosts.extend(f"{prefix}{i}.alphonso.tv"
                     for i in range(1, known_rotation_max + 1))
    hosts += [
        "acr-eu-prd.samsungcloud.tv",
        "acr-us-prd.samsungcloud.tv",
        "acr0.samsungcloudsolution.com",
        "log-config.samsungacr.com",
        "log-ingestion-eu.samsungacr.com",
        "log-ingestion.samsungacr.com",
    ]
    return HostsFileBlocklist(hosts)


class NetifyDirectory:
    """A Netify-style domain intelligence directory."""

    def __init__(self,
                 catalog: Optional[Dict[str, Dict[str, str]]] = None
                 ) -> None:
        self.catalog = catalog if catalog is not None else NETIFY_CATALOG

    def classify(self, domain: str) -> Optional[Dict[str, str]]:
        for suffix, info in self.catalog.items():
            if _suffix_match(domain, suffix):
                return dict(info)
        return None

    def is_tracking_related(self, domain: str) -> bool:
        info = self.classify(domain)
        return bool(info and info["category"] == "advertiser")
