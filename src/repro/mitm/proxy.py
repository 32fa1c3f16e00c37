"""The MITM interception proxy and its plaintext tap.

Deployed at the access point, the proxy terminates the TV's TLS sessions
with testbed-CA certificates and re-encrypts upstream.  Whether a given
session yields plaintext depends on the client's trust store:

* CA installed + host not pinned  -> full plaintext visibility;
* host pinned                     -> the client detects the forged
  certificate; the proxy falls back to pass-through (bytes flow, no
  plaintext) — mitmproxy's behaviour for pinned apps;
* CA not installed                -> pass-through for everything.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .ca import TESTBED_CA, TrustStore


class PlaintextRecord:
    """One decrypted application message."""

    __slots__ = ("at_ns", "domain", "direction", "plaintext")

    def __init__(self, at_ns: int, domain: str, direction: str,
                 plaintext: bytes) -> None:
        if direction not in ("request", "response"):
            raise ValueError(f"bad direction: {direction!r}")
        self.at_ns = at_ns
        self.domain = domain
        self.direction = direction
        self.plaintext = plaintext

    def __len__(self) -> int:
        return len(self.plaintext)

    def __repr__(self) -> str:
        return (f"PlaintextRecord({self.domain}, {self.direction}, "
                f"{len(self.plaintext)}B @ {self.at_ns / 1e9:.0f}s)")


class InterceptionStats:
    """Per-domain interception accounting."""

    __slots__ = ("intercepted", "passthrough")

    def __init__(self) -> None:
        self.intercepted = 0
        self.passthrough = 0

    @property
    def total(self) -> int:
        return self.intercepted + self.passthrough

    def __repr__(self) -> str:
        return (f"InterceptionStats(intercepted={self.intercepted}, "
                f"passthrough={self.passthrough})")


class MitmProxy:
    """TLS-terminating proxy with pinning-aware fallback."""

    def __init__(self, trust_store: TrustStore) -> None:
        self.trust_store = trust_store
        self.records: List[PlaintextRecord] = []
        self.stats: Dict[str, InterceptionStats] = {}

    def can_intercept(self, domain: str) -> bool:
        """Would this client accept our forged leaf for ``domain``?"""
        forged = TESTBED_CA.issue(domain)
        return self.trust_store.accepts(forged, domain)

    def observe(self, at_ns: int, domain: str,
                request_plaintext: Optional[bytes],
                response_plaintext: Optional[bytes]) -> bool:
        """Called per application exchange; returns True if decrypted."""
        stats = self.stats.setdefault(domain, InterceptionStats())
        if not self.can_intercept(domain):
            stats.passthrough += 1
            return False
        stats.intercepted += 1
        if request_plaintext is not None:
            self.records.append(PlaintextRecord(
                at_ns, domain, "request", request_plaintext))
        if response_plaintext is not None:
            self.records.append(PlaintextRecord(
                at_ns, domain, "response", response_plaintext))
        return True

    # -- queries -----------------------------------------------------------

    @property
    def intercepted_domains(self) -> List[str]:
        return sorted(d for d, s in self.stats.items()
                      if s.intercepted > 0)

    @property
    def opaque_domains(self) -> List[str]:
        """Domains the proxy saw but could not decrypt (pinned)."""
        return sorted(d for d, s in self.stats.items()
                      if s.passthrough > 0 and s.intercepted == 0)

    def __repr__(self) -> str:
        return (f"MitmProxy({len(self.records)} plaintext records, "
                f"{len(self.intercepted_domains)} domains open, "
                f"{len(self.opaque_domains)} pinned)")
