"""Device identifiers.

The paper conjectures that "ACR tracking may be relying on the Advertising
ID of the TV and/or the IP address rather than the user account ID" — which
is why login status has no effect on ACR traffic.  Our ACR client uses the
advertising ID as its device id, making that conjecture true by
construction and testable.
"""

from __future__ import annotations

import hashlib
import uuid

from ..net.addresses import MacAddress, mac_from_seed


def _digest(seed: int, label: str) -> bytes:
    return hashlib.sha256(f"{seed}:{label}".encode("ascii")).digest()


class DeviceIdentifiers:
    """All the identifiers one TV carries."""

    __slots__ = ("vendor", "serial_number", "mac", "advertising_id",
                 "platform_id", "account_id")

    def __init__(self, vendor: str, seed: int) -> None:
        from . import vendors
        self.vendor = vendor
        prefix = vendors.get(vendor).serial_prefix
        raw = _digest(seed, f"{vendor}:serial")
        self.serial_number = prefix + raw.hex()[:10].upper()
        self.mac: MacAddress = mac_from_seed(
            int.from_bytes(_digest(seed, f"{vendor}:mac")[:6], "big"))
        # LGUDID on webOS, TIFA (Tizen Identifier For Advertising).
        self.advertising_id = str(uuid.UUID(
            bytes=_digest(seed, f"{vendor}:adid")[:16]))
        # PSID-style platform identifier.
        self.platform_id = _digest(seed, f"{vendor}:psid").hex()[:24]
        # Populated only while a user account is linked.
        self.account_id = None

    def link_account(self, seed: int) -> str:
        """Simulate logging in; returns the account id."""
        self.account_id = "acct-" + _digest(seed, "account").hex()[:12]
        return self.account_id

    @property
    def acr_device_id(self) -> str:
        """What the ACR client reports: the advertising ID, never the
        account (hence login status cannot affect ACR traffic)."""
        return f"{self.vendor}-{self.advertising_id}"

    def __repr__(self) -> str:
        return (f"DeviceIdentifiers({self.vendor}, "
                f"serial={self.serial_number}, adid={self.advertising_id})")
