"""The vendor plugin registry and its declarative profile objects.

Everything vendor-specific in the simulator — ACR cadence, endpoint
rotation policy, fingerprint channel layout, opt-out semantics,
per-country overrides, background services, the domain catalog, the
device class itself — is declared in one :class:`VendorProfile` and
registered here.  Every other layer (``tv/``, ``acr/``, ``dnsinfra/``,
``testbed/``, ``experiments/``, ``fleet/``, ``mitm/``) resolves vendor
behaviour through :func:`get`; no module outside this package is allowed
to compare against a vendor name (``tests/test_vendor_conformance.py``
greps the tree to enforce it).

Registration order is user-visible: it defines the order of the
:class:`~repro.testbed.experiment.Vendor` enum and therefore grid
enumeration, report row order and CLI choice lists.  The *domain
allocation* order is declared separately (``catalog_order``) because the
ground-truth IP allocator hands out addresses in catalog order — the
pre-registry catalog allocated LG before Samsung, and cached captures
are byte-identical only if that order never changes.
"""

from __future__ import annotations

import json
from typing import (Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Tuple)


def json_payload(body: dict) -> bytes:
    """Compact JSON bytes for vendor channel plaintexts (the payloads a
    TLS-terminating MITM proxy would recover)."""
    return json.dumps(body, separators=(",", ":")).encode("utf-8")

#: The vendor's opt-out behaviour once every consent toggle is exercised.
OPTOUT_SILENCE = "silence"        # no ACR traffic at all (the paper's pair)
OPTOUT_DOWNSAMPLE = "downsample"  # uploads continue at a reduced rate

#: Expected ACR activity classes for one (country, phase) cell, derived
#: from the declared consent/opt-out semantics.  The conformance suite
#: asserts the *measured* capture matches the declared class.
ACTIVITY_FULL = "full"                # fingerprint channel fully active
ACTIVITY_DOWNSAMPLED = "downsampled"  # reduced-rate uploads (opted out)
ACTIVITY_ADS_ONLY = "ads-only"        # shared endpoint warm, no fingerprints
ACTIVITY_SILENT = "silent"            # no ACR-candidate traffic at all


class RotationSpec:
    """A rotating fingerprint-hostname scheme (LG's ``eu-acrX`` style).

    The active index is derived from a keyed hash of the rotation window
    so different seeds see different (but stable) schedules.
    """

    __slots__ = ("template_by_country", "pool_size", "period_ns")

    def __init__(self, template_by_country: Mapping[str, str],
                 pool_size: int, period_ns: int) -> None:
        for template in template_by_country.values():
            if "{}" not in template:
                raise ValueError(
                    f"rotation template needs a {{}} slot: {template!r}")
        self.template_by_country = dict(template_by_country)
        self.pool_size = pool_size
        self.period_ns = period_ns

    def hostnames(self, country: str) -> List[str]:
        """Every hostname in the rotation pool for one country."""
        template = self.template_by_country[country]
        return [template.format(i) for i in range(1, self.pool_size + 1)]

    def __repr__(self) -> str:
        return (f"RotationSpec({self.pool_size} names, "
                f"every {self.period_ns / 3.6e12:.0f}h)")


class VendorContract:
    """The externally observable behaviour a vendor's profile promises.

    This is what the differential conformance suite checks captures
    against: the declared fingerprint cadence (or burstiness), the
    expected ACR endpoint set per country, and the opt-out effect.
    ``acr_domains`` uses the paper's normalized notation (rotating names
    collapse to their ``X`` form, see
    :func:`repro.analysis.volumes.normalize_rotating`).
    """

    __slots__ = ("cadence_s", "cadence_tolerance_s", "bursty",
                 "acr_domains", "optout", "shared_ad_endpoint")

    def __init__(self, acr_domains: Mapping[str, Sequence[str]],
                 optout: str, cadence_s: Optional[float] = None,
                 cadence_tolerance_s: float = 2.0,
                 bursty: bool = False,
                 shared_ad_endpoint: bool = False) -> None:
        if optout not in (OPTOUT_SILENCE, OPTOUT_DOWNSAMPLE):
            raise ValueError(f"unknown opt-out semantics: {optout!r}")
        if bursty and cadence_s is not None:
            raise ValueError("bursty vendors declare no fixed cadence")
        self.cadence_s = cadence_s
        self.cadence_tolerance_s = cadence_tolerance_s
        self.bursty = bursty
        self.acr_domains = {country: frozenset(domains)
                            for country, domains in acr_domains.items()}
        self.optout = optout
        self.shared_ad_endpoint = shared_ad_endpoint

    def __repr__(self) -> str:
        cadence = "bursty" if self.bursty else f"{self.cadence_s}s"
        return f"VendorContract(cadence={cadence}, optout={self.optout})"


class VendorProfile:
    """One vendor's complete declarative description.

    The callables (``services``, ``domains``) take a country key and
    return fresh spec lists, so per-country overrides live inside the
    vendor module that declares them.
    """

    __slots__ = (
        "name", "display_name", "audited_in_paper", "device_class",
        "serial_prefix", "operator", "fast_app_id", "opt_out_options",
        "ads_limiter_key", "consent_defaults", "services", "acr_profiles",
        "capture_decisions", "domains", "countries", "catalog_order",
        "rotation", "fingerprint_domains", "pinned_domains", "contract",
    )

    def __init__(self, name: str, display_name: str, device_class: type,
                 serial_prefix: str, operator: str, fast_app_id: str,
                 opt_out_options: Sequence[Tuple[str, str, bool]],
                 ads_limiter_key: str,
                 services: Callable[[str], List],
                 acr_profiles: Mapping[str, object],
                 capture_decisions: Mapping[Tuple[str, object], object],
                 domains: Callable[[str], List],
                 contract: VendorContract,
                 catalog_order: int,
                 countries: Sequence[str] = ("uk", "us"),
                 audited_in_paper: bool = False,
                 rotation: Optional[RotationSpec] = None,
                 fingerprint_domains: Optional[Mapping[str, str]] = None,
                 consent_defaults: Optional[Mapping[str, bool]] = None,
                 pinned_domains: Sequence[str] = ()) -> None:
        option_keys = {key for key, __, __ in opt_out_options}
        if "viewing_information" not in option_keys:
            raise ValueError(
                f"{name}: every vendor needs a viewing_information "
                f"consent (the ACR gate)")
        if ads_limiter_key not in option_keys:
            raise ValueError(f"{name}: ads limiter {ads_limiter_key!r} "
                             f"not among the opt-out options")
        if rotation is None and not fingerprint_domains:
            raise ValueError(f"{name}: need a rotation spec or explicit "
                             f"fingerprint domains")
        for country in countries:
            if country not in acr_profiles:
                raise ValueError(f"{name}: no ACR profile for {country!r}")
        self.name = name
        self.display_name = display_name
        self.audited_in_paper = audited_in_paper
        self.device_class = device_class
        self.serial_prefix = serial_prefix
        self.operator = operator
        self.fast_app_id = fast_app_id
        self.opt_out_options = list(opt_out_options)
        self.ads_limiter_key = ads_limiter_key
        self.consent_defaults = dict(consent_defaults or {})
        self.services = services
        self.acr_profiles = dict(acr_profiles)
        self.capture_decisions = dict(capture_decisions)
        self.domains = domains
        self.countries = tuple(countries)
        self.catalog_order = catalog_order
        self.rotation = rotation
        self.fingerprint_domains = dict(fingerprint_domains or {})
        self.pinned_domains: FrozenSet[str] = frozenset(pinned_domains)
        self.contract = contract

    # -- consent semantics ---------------------------------------------------

    def default_optin(self, country: Optional[str]) -> bool:
        """Whether a factory-fresh TV in ``country`` has the viewing-
        information consent granted (the paper's pair always does; a
        country-dependent default is the Vizio-style behaviour)."""
        if country is None:
            return True
        return self.consent_defaults.get(country, True)

    def expected_activity(self, country: str, phase) -> str:
        """The declared ACR activity class for one (country, phase) cell.

        ``phase`` is a :class:`~repro.testbed.experiment.Phase` (typed
        loosely to keep this package import-light).
        """
        if phase.opted_in and self.default_optin(country):
            return ACTIVITY_FULL
        if not phase.opted_in and self.contract.optout == OPTOUT_DOWNSAMPLE:
            return ACTIVITY_DOWNSAMPLED
        if self.contract.shared_ad_endpoint:
            # Fingerprinting is off (consent default or opt-out), but
            # the shared second-party endpoint still carries ad-stack
            # residue — domain-level silence can never be observed.
            return ACTIVITY_ADS_ONLY
        return ACTIVITY_SILENT

    # -- channel layout ------------------------------------------------------

    def fingerprint_domain(self, country: str, at_ns: int,
                           seed: int = 0) -> str:
        """The hostname fingerprints ship to at virtual time ``at_ns``."""
        if self.rotation is not None:
            return self.rotating_domain(country, at_ns, seed)
        try:
            return self.fingerprint_domains[country]
        except KeyError:
            raise KeyError(f"{self.name}: no fingerprint domain for "
                           f"{country!r}") from None

    def rotating_domain(self, country: str, at_ns: int,
                        seed: int = 0) -> str:
        """The rotation target active at ``at_ns`` (keyed-hash schedule,
        matching the paper's "X is an arbitrary number that changes
        periodically")."""
        import hashlib
        if self.rotation is None:
            raise ValueError(
                f"{self.name} does not rotate ACR hostnames")
        window = at_ns // self.rotation.period_ns
        digest = hashlib.sha256(
            f"{seed}:{country}:{window}".encode("ascii")).digest()
        index = 1 + digest[0] % self.rotation.pool_size
        return self.rotation.template_by_country[country].format(index)

    def __repr__(self) -> str:
        paper = "paper" if self.audited_in_paper else "extension"
        return f"VendorProfile({self.name}, {paper})"


# -- the registry -------------------------------------------------------------

_REGISTRY: Dict[str, VendorProfile] = {}


def register(profile: VendorProfile) -> VendorProfile:
    """Add one vendor to the registry (idempotent per name)."""
    existing = _REGISTRY.get(profile.name)
    if existing is not None and existing is not profile:
        raise ValueError(f"vendor {profile.name!r} already registered")
    orders = {p.catalog_order for p in _REGISTRY.values()
              if p.name != profile.name}
    if profile.catalog_order in orders:
        raise ValueError(f"catalog order {profile.catalog_order} already "
                         f"taken (IP allocation order must be total)")
    _REGISTRY[profile.name] = profile
    return profile


def get(name: str) -> VendorProfile:
    """The profile for one vendor name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown vendor: {name!r} "
            f"(registered: {', '.join(sorted(_REGISTRY))})") from None


def is_registered(name: str) -> bool:
    return name in _REGISTRY


def catalog_profiles() -> List[VendorProfile]:
    """Every profile, in domain-catalog (IP allocation) order."""
    return sorted(_REGISTRY.values(), key=lambda p: p.catalog_order)


def vendor_names() -> List[str]:
    """All registered vendor names, in registration order."""
    return list(_REGISTRY)


def paper_vendor_names() -> List[str]:
    """The vendors the source paper audited (scorecard/table scope)."""
    return [name for name, profile in _REGISTRY.items()
            if profile.audited_in_paper]
