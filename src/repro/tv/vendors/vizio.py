"""Vizio-style vendor plugin: continuous sampling on a shared endpoint.

This extension vendor models the second cluster of behaviours the paper's
pair cannot express:

* **Continuous fine-grained sampling.**  Pixels are sampled every 50 ms
  and batches ship every 10 s — a finer cadence than either paper vendor
  — so the fingerprint channel looks like a steady drizzle rather than
  minute-scale steps.
* **Shared second-party endpoint.**  The fingerprint hostname belongs to
  the platform's ad subsidiary ("Inscape-style") and is *shared with the
  ad stack*: the ads service speaks to the same ``acr-…`` hostname.
  Domain-level analyses therefore see the endpoint stay warm even when
  fingerprinting itself is off — the opt-out differential must look at
  volume and cadence, not mere domain presence.
* **Country-dependent consent default.**  A factory-fresh TV ships with
  viewing-data collection ON in the US but OFF in the UK (GDPR-style
  default), so even the "opted-in" phases carry no UK fingerprints.
"""

from __future__ import annotations

from typing import List

from ...acr.policy import CaptureDecision, VendorAcrProfile
from ...dnsinfra.registry import DomainRecord
from ...media.sources import SourceType
from ...sim.clock import milliseconds, minutes, seconds
from ..device import SmartTV
from ..services import ServiceSpec
from .base import (OPTOUT_SILENCE, VendorContract, VendorProfile, register)

VIZIO_OPT_OUT_OPTIONS = [
    ("viewing_information", "Viewing Data collection", False),
    ("interest_based_ads", "Interest-based advertising", False),
    ("do_not_sell", "Enable Do not sell my personal information", True),
    ("voice_information", "Voice Data collection", False),
]


class VizioTv(SmartTV):
    """Vizio-style model: everything vendor-specific is declarative."""

    vendor = "vizio"


# -- background services -------------------------------------------------------


def _shared_endpoint(country: str) -> str:
    return ("acr-eu.inscape.example.tv" if country == "uk"
            else "acr-us.inscape.example.tv")


def services(country: str) -> List[ServiceSpec]:
    """Platform chatter; the ad service shares the ACR endpoint."""
    return [
        ServiceSpec("platform", "cdn.vizios.example",
                    boot_delay_ns=seconds(1.6), boot_request=850,
                    boot_response=2000, period_ns=minutes(20),
                    request_bytes=600, response_bytes=1000,
                    skip_probability=0.25),
        ServiceSpec("firmware", "fw.vizios.example",
                    boot_delay_ns=seconds(2.7), boot_request=800,
                    boot_response=1500, period_ns=None,
                    request_bytes=0, response_bytes=0),
        # The ad stack rides the *same* second-party hostname as the
        # fingerprint channel — the shared-endpoint behaviour under test.
        ServiceSpec("ads-sync", _shared_endpoint(country),
                    boot_delay_ns=seconds(3.8), boot_request=1100,
                    boot_response=1900, period_ns=minutes(6),
                    request_bytes=1400, response_bytes=2300,
                    skip_probability=0.35, gate="ads"),
    ]


# -- domain catalog ------------------------------------------------------------


def domains(country: str) -> List[DomainRecord]:
    # The UK endpoint is hosted in the US (new_york) — the data-transfer
    # wrinkle the DPF check surfaces for this operator.
    shared_city = "new_york" if country == "uk" else "san_jose"
    platform_city = "london" if country == "uk" else "san_jose"
    return [
        DomainRecord(_shared_endpoint(country), "inscape", shared_city,
                     "acr-fingerprint", ptr_label="acr"),
        DomainRecord("cdn.vizios.example", "bystander", platform_city,
                     "platform"),
        DomainRecord("fw.vizios.example", "bystander", platform_city,
                     "platform"),
        DomainRecord("api.netflix.com", "bystander", platform_city, "ott"),
        DomainRecord("www.youtube.com", "bystander", platform_city, "ott"),
    ]


# -- calibrated ACR profiles ---------------------------------------------------

# Continuous drizzle: 50 ms pixel samples, 10 s batches, compact records.
_COMMON = dict(
    capture_interval_ns=milliseconds(50),
    batch_interval_ns=seconds(10),
    bytes_per_capture=6,
    batch_response_bytes=300,
    peak_every_batches=6,          # minute-scale flushes
    peak_extra_bytes=900,
    beacon_request_bytes=140,
    beacon_response_bytes=110,
    beacon_peak_every=6,
    beacon_peak_scale=1.5,
    cast_request_bytes=140,
    cast_response_bytes=110,
    hdmi_dedup_fraction=0.05,
    backoff_when_unrecognised=False,
)

_ACR_PROFILES = {
    "uk": VendorAcrProfile("vizio", "uk", **_COMMON),
    "us": VendorAcrProfile("vizio", "us", **_COMMON),
}

# Vizio-style platforms fingerprint aggressively: own FAST service and
# even OTT surfaces in the US; the launcher stays silent.
_DECISIONS = {
    ("uk", SourceType.FAST): CaptureDecision.BEACON,
    ("us", SourceType.FAST): CaptureDecision.FULL,
    ("us", SourceType.OTT): CaptureDecision.FULL,
    ("uk", SourceType.HOME): CaptureDecision.SILENT,
    ("us", SourceType.HOME): CaptureDecision.SILENT,
}


register(VendorProfile(
    name="vizio",
    display_name="Vizio-style (Inscape)",
    device_class=VizioTv,
    serial_prefix="VZB",
    operator="inscape",
    fast_app_id="watchfree-plus",
    opt_out_options=VIZIO_OPT_OUT_OPTIONS,
    ads_limiter_key="do_not_sell",
    services=services,
    acr_profiles=_ACR_PROFILES,
    capture_decisions=_DECISIONS,
    domains=domains,
    audited_in_paper=False,
    catalog_order=3,  # extension vendors allocate after the paper pair
    fingerprint_domains={"uk": "acr-eu.inscape.example.tv",
                         "us": "acr-us.inscape.example.tv"},
    consent_defaults={"uk": False, "us": True},
    pinned_domains=("acr-eu.inscape.example.tv",
                    "acr-us.inscape.example.tv"),
    contract=VendorContract(
        cadence_s=10.0,
        cadence_tolerance_s=2.0,
        acr_domains={"uk": ("acr-eu.inscape.example.tv",),
                     "us": ("acr-us.inscape.example.tv",)},
        optout=OPTOUT_SILENCE,
        shared_ad_endpoint=True,
    ),
))
