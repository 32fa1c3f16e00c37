"""Testbed certificate authority and certificate-pinning model.

The paper's future work: "we plan to explore more advanced man-in-the-
middle (MITM) techniques to understand the payload of ACR network
traffic."  A MITM proxy only sees plaintext when the client trusts the
proxy's CA *and* does not pin the operator certificate.  Real smart-TV
clients pin inconsistently — which is exactly the partial-visibility
situation this module models.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from typing import Dict, Set


class Certificate:
    """A simulated X.509 leaf: subject, issuer, stable fingerprint."""

    __slots__ = ("subject", "issuer", "fingerprint")

    def __init__(self, subject: str, issuer: str) -> None:
        self.subject = subject.lower()
        self.issuer = issuer
        digest = hashlib.sha256(
            f"{issuer}/{subject}".encode("ascii")).hexdigest()
        self.fingerprint = digest[:40]

    def __repr__(self) -> str:
        return (f"Certificate({self.subject!r} by {self.issuer!r}, "
                f"fp={self.fingerprint[:12]}...)")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Certificate)
                and other.fingerprint == self.fingerprint)

    def __hash__(self) -> int:
        return hash(("cert", self.fingerprint))


class CertificateAuthority:
    """Issues leaves; the testbed CA impersonates operator domains."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._issued: Dict[str, Certificate] = {}

    def issue(self, subject: str) -> Certificate:
        subject = subject.lower()
        cert = self._issued.get(subject)
        if cert is None:
            cert = Certificate(subject, self.name)
            self._issued[subject] = cert
        return cert

    @property
    def issued_count(self) -> int:
        return len(self._issued)

    def __repr__(self) -> str:
        return f"CertificateAuthority({self.name!r}, {self.issued_count})"


OPERATOR_CA = CertificateAuthority("DigiCert-like Operator CA")
TESTBED_CA = CertificateAuthority("Testbed MITM CA")

class _RegistryPins(Mapping):
    """Live view of each vendor profile's declared certificate pins.

    Resolves through the registry on every access (like every other
    vendor-dispatch site) so vendors registered after this module's
    import are still covered.
    """

    def __getitem__(self, vendor: str) -> Set[str]:
        from ..tv import vendors
        return set(vendors.get(vendor).pinned_domains)

    def __iter__(self):
        from ..tv import vendors
        return iter(vendors.vendor_names())

    def __len__(self) -> int:
        from ..tv import vendors
        return len(vendors.vendor_names())


# Which hostnames each vendor's clients pin to the operator certificate,
# as declared on the vendor profiles: Samsung pins its fingerprint
# ingestion endpoints (uploads are the sensitive channel); LG's webOS
# client validates against the system trust store only, so a
# user-installed CA intercepts everything.
PINNED_DOMAINS: Mapping = _RegistryPins()


class TrustStore:
    """A client's certificate validation policy."""

    def __init__(self, vendor: str) -> None:
        self.vendor = vendor
        self.roots = [OPERATOR_CA]
        self.pinned = set(PINNED_DOMAINS.get(vendor, set()))

    def install_root(self, ca: CertificateAuthority) -> None:
        if ca not in self.roots:
            self.roots.append(ca)

    def accepts(self, cert: Certificate, expected_subject: str) -> bool:
        """Standard validation: matching subject, trusted issuer, and —
        for pinned hosts — the *operator* certificate specifically."""
        if cert.subject != expected_subject.lower():
            return False
        if cert.issuer not in [ca.name for ca in self.roots]:
            return False
        if expected_subject.lower() in self.pinned:
            return cert == OPERATOR_CA.issue(expected_subject)
        return True

    def __repr__(self) -> str:
        return (f"TrustStore({self.vendor}, {len(self.roots)} roots, "
                f"{len(self.pinned)} pinned)")
