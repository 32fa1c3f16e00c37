"""LG (webOS-like) vendor plugin: device model + declarative profile.

LG's ACR uses a *single* rotating Alphonso domain per region
(``eu-acrX.alphonso.tv`` / ``tkacrX.alphonso.tv``) for everything:
fingerprint uploads in full mode, and the 15-second status beacons with
minute-cadence peaks the paper observes in restricted scenarios.  All of
that behaviour lives in the shared :class:`~repro.acr.client.AcrClient`;
the device subclass only pins vendor identity, and the rotation policy is
declared on the profile.
"""

from __future__ import annotations

from typing import List

from ...acr.policy import CaptureDecision, VendorAcrProfile
from ...dnsinfra.registry import (DomainRecord, ROTATION_PERIOD_NS,
                                  ROTATION_POOL_SIZE)
from ...media.sources import SourceType
from ...sim.clock import milliseconds, minutes, seconds
from ..device import SmartTV
from ..services import ServiceSpec
from .base import (OPTOUT_SILENCE, RotationSpec, VendorContract,
                   VendorProfile, register)

# Table 1, LG column: (option key, label, value-when-opted-out) —
# ``value-when-opted-out`` captures that some options are *enabled* to
# opt out (e.g. "Limit ad tracking") while most are disabled.
LG_OPT_OUT_OPTIONS = [
    ("limit_ad_tracking", "Enable Limit ad tracking", True),
    ("membership_marketing",
     "TV membership agreement for marketing comms.", False),
    ("do_not_sell", "Enable Do not sell my personal information", True),
    ("viewing_information", "Viewing information agreement", False),
    ("voice_information", "Voice information agreement", False),
    ("interest_based_ads",
     "Interest-based & Cross-device advertising agreement", False),
    ("who_where_what", "Who.Where.What?", False),
    ("home_promotion", "Home promotion", False),
    ("content_recommendation", "Content recommendation", False),
    ("live_plus", "Live plus", False),
    ("ai_recommendation",
     "AI recommendation (Who.Where.What, Smart Tips)", False),
]


class LgTv(SmartTV):
    """LG webOS model (10 ms captures, 15 s batches, Alphonso ACR)."""

    vendor = "lg"

    @property
    def active_acr_domain(self) -> str:
        """The rotation target at the current virtual time."""
        return self.registry.rotating_acr_domain(
            self.vendor, self.country, self.loop.now, self.seed)


# -- background services -------------------------------------------------------


def services(country: str) -> List[ServiceSpec]:
    """webOS-like platform chatter."""
    sdp = "gb.lgtvsdp.com" if country == "uk" else "us.lgtvsdp.com"
    smartad = ("gb.ad.lgsmartad.com" if country == "uk"
               else "us.ad.lgsmartad.com")
    return [
        ServiceSpec("sdp", sdp,
                    boot_delay_ns=seconds(1.5), boot_request=800,
                    boot_response=1900, period_ns=minutes(15),
                    request_bytes=650, response_bytes=900,
                    skip_probability=0.2),
        ServiceSpec("ngfts", "ngfts.lge.com",
                    boot_delay_ns=seconds(2.2), boot_request=600,
                    boot_response=1400, period_ns=minutes(45),
                    request_bytes=600, response_bytes=1000),
        ServiceSpec("portal", "lgtvonline.lge.com",
                    boot_delay_ns=seconds(3.4), boot_request=1000,
                    boot_response=2600, period_ns=minutes(30),
                    request_bytes=800, response_bytes=1700,
                    skip_probability=0.3),
        ServiceSpec("smartad", smartad,
                    boot_delay_ns=seconds(4.3), boot_request=1400,
                    boot_response=2500, period_ns=minutes(9),
                    request_bytes=1700, response_bytes=2800,
                    skip_probability=0.5, gate="ads"),
    ]


# -- domain catalog ------------------------------------------------------------

_ROTATION = RotationSpec(
    template_by_country={"uk": "eu-acr{}.alphonso.tv",
                         "us": "tkacr{}.alphonso.tv"},
    pool_size=ROTATION_POOL_SIZE,
    period_ns=ROTATION_PERIOD_NS,
)


def _rotating_pool(country: str) -> List[DomainRecord]:
    city = "amsterdam" if country == "uk" else "san_jose"
    return [DomainRecord(name, "alphonso", city, "acr-fingerprint",
                         ptr_label="acr")
            for name in _ROTATION.hostnames(country)]


def domains(country: str) -> List[DomainRecord]:
    if country == "uk":
        return _rotating_pool("uk") + [
            DomainRecord("gb.lgtvsdp.com", "bystander", "london",
                         "platform"),
            DomainRecord("ngfts.lge.com", "bystander", "london",
                         "platform"),
            DomainRecord("gb.ad.lgsmartad.com", "bystander", "london",
                         "ads"),
            DomainRecord("lgtvonline.lge.com", "bystander", "amsterdam",
                         "platform"),
            DomainRecord("api.netflix.com", "bystander", "london", "ott"),
            DomainRecord("www.youtube.com", "bystander", "london", "ott"),
        ]
    return _rotating_pool("us") + [
        DomainRecord("us.lgtvsdp.com", "bystander", "san_jose",
                     "platform"),
        DomainRecord("ngfts.lge.com", "bystander", "san_jose",
                     "platform"),
        DomainRecord("us.ad.lgsmartad.com", "bystander", "new_york",
                     "ads"),
        DomainRecord("lgtvonline.lge.com", "bystander", "san_jose",
                     "platform"),
        DomainRecord("api.netflix.com", "bystander", "san_jose", "ott"),
        DomainRecord("www.youtube.com", "bystander", "san_jose", "ott"),
    ]


# -- calibrated ACR profiles ---------------------------------------------------

# LG webOS: 10 ms captures, 15 s batches; compact per-capture records;
# duplicate-frame suppression trims HDMI batches (desktop content is
# largely static).
_COMMON = dict(
    capture_interval_ns=milliseconds(10),
    batch_interval_ns=seconds(15),
    bytes_per_capture=12,
    batch_response_bytes=360,
    peak_every_batches=4,          # minute-cadence peaks (Fig. 4a)
    peak_extra_bytes=2600,
    beacon_peak_every=4,           # "peaks every minute"
    beacon_peak_scale=2.4,
    hdmi_dedup_fraction=0.10,
    backoff_when_unrecognised=False,
)

_ACR_PROFILES = {
    "uk": VendorAcrProfile(
        "lg", "uk",
        beacon_request_bytes=370, beacon_response_bytes=240,
        cast_request_bytes=370, cast_response_bytes=240,
        **_COMMON),
    "us": VendorAcrProfile(
        "lg", "us",
        beacon_request_bytes=260, beacon_response_bytes=170,
        cast_request_bytes=260, cast_response_bytes=170,
        **_COMMON),
}

# The manufacturer FAST platform: restricted in the UK, active in the
# US (§4.3: "the FAST scenario deviates from the UK findings").
_DECISIONS = {
    ("uk", SourceType.FAST): CaptureDecision.BEACON,
    ("us", SourceType.FAST): CaptureDecision.FULL,
}


register(VendorProfile(
    name="lg",
    display_name="LG (webOS)",
    device_class=LgTv,
    serial_prefix="LGW",
    operator="alphonso",
    fast_app_id="lg-channels",
    opt_out_options=LG_OPT_OUT_OPTIONS,
    ads_limiter_key="limit_ad_tracking",
    services=services,
    acr_profiles=_ACR_PROFILES,
    capture_decisions=_DECISIONS,
    domains=domains,
    audited_in_paper=True,
    catalog_order=0,  # pre-registry catalog allocated LG first
    rotation=_ROTATION,
    contract=VendorContract(
        cadence_s=15.0,
        cadence_tolerance_s=3.0,
        acr_domains={"uk": ("eu-acrX.alphonso.tv",),
                     "us": ("tkacrX.alphonso.tv",)},
        optout=OPTOUT_SILENCE,
    ),
))
