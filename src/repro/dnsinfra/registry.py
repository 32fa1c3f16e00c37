"""The vendor domain catalog and the rotating ACR hostname scheme.

The paper observes:

* LG contacts a single ACR domain per region, with a rotating number:
  ``eu-acrX.alphonso.tv`` in the UK and ``tkacrX.alphonso.tv`` in the US.
* Samsung contacts a set of ACR domains: ``acr-eu-prd.samsungcloud.tv``,
  ``acr0.samsungcloudsolution.com``, ``log-config.samsungacr.com`` and
  ``log-ingestion-eu.samsungacr.com`` in the UK; in the US the
  ``samsungcloudsolution`` domain is dropped and ``-eu`` suffixes disappear.
* Plenty of *non*-ACR platform traffic exists (e.g. ``samsungads.com``)
  that the "acr"-substring heuristic must exclude.

The per-vendor hostname data itself is declared by the vendor plugins in
:mod:`repro.tv.vendors`; this module assembles their catalogs, assigns
every hostname a server in the ground-truth
:class:`~repro.geo.ipspace.IpSpace`, and resolves the rotation and
fingerprint-domain policies through the registered profiles.

Catalog iteration follows the profiles' ``catalog_order`` — the IP
allocator hands out addresses sequentially per provider block, so this
order is part of the byte-stability contract for cached captures.
"""

from __future__ import annotations

from typing import Dict, List

from ..geo.ipspace import IpSpace, ServerRecord
from ..sim.clock import NS_PER_HOUR

ROTATION_PERIOD_NS = 6 * NS_PER_HOUR
ROTATION_POOL_SIZE = 6


class DomainRecord:
    """One catalog entry: hostname -> provider/city/role."""

    __slots__ = ("name", "provider", "city_key", "role", "ptr_label")

    def __init__(self, name: str, provider: str, city_key: str,
                 role: str, ptr_label: str = "edge") -> None:
        self.name = name.lower()
        self.provider = provider
        self.city_key = city_key
        self.role = role
        self.ptr_label = ptr_label

    def __repr__(self) -> str:
        return (f"DomainRecord({self.name!r}, {self.provider}, "
                f"{self.city_key}, role={self.role})")


# Roles (declared by the vendor plugins):
#   acr-fingerprint : carries content fingerprints (the heavy channel)
#   acr-log         : ACR logging / config / keep-alive endpoints
#   ads             : ad platform, NOT matched by the "acr" heuristic
#   platform        : OS services (time, store, firmware)
#   ott             : third-party streaming backends


class DomainRegistry:
    """Catalog of hostnames with allocated ground-truth servers."""

    def __init__(self) -> None:
        from ..tv import vendors
        self.ipspace = IpSpace()
        self._records: Dict[str, DomainRecord] = {}
        self._servers: Dict[str, ServerRecord] = {}
        for profile in vendors.catalog_profiles():
            for country in profile.countries:
                for record in profile.domains(country):
                    self._add(record)

    def _add(self, record: DomainRecord) -> None:
        if record.name in self._records:
            return  # shared domains (log-config, netflix...) allocate once
        self._records[record.name] = record
        self._servers[record.name] = self.ipspace.allocate(
            record.provider, record.city_key, record.ptr_label)

    # -- catalog queries ----------------------------------------------------

    def domains_for(self, vendor: str, country: str) -> List[DomainRecord]:
        """Every catalog entry for one vendor in one country."""
        from ..tv import vendors
        if not vendors.is_registered(vendor):
            raise KeyError(
                f"unknown vendor/country: {vendor!r}/{country!r}")
        profile = vendors.get(vendor)
        if country not in profile.countries:
            raise KeyError(
                f"unknown vendor/country: {vendor!r}/{country!r}")
        return list(profile.domains(country))

    def record(self, name: str) -> DomainRecord:
        try:
            return self._records[name.lower()]
        except KeyError:
            raise KeyError(f"domain not in catalog: {name!r}") from None

    def server(self, name: str) -> ServerRecord:
        try:
            return self._servers[name.lower()]
        except KeyError:
            raise KeyError(f"domain not in catalog: {name!r}") from None

    def all_names(self) -> List[str]:
        return sorted(self._records)

    # -- rotation -------------------------------------------------------------

    def fingerprint_domain(self, vendor: str, country: str, at_ns: int,
                           seed: int = 0) -> str:
        """The hostname fingerprints are shipped to, per vendor/country."""
        from ..tv import vendors
        if not vendors.is_registered(vendor):
            raise ValueError(f"unknown vendor: {vendor!r}")
        return vendors.get(vendor).fingerprint_domain(country, at_ns, seed)
