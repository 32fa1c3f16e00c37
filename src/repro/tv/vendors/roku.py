"""Roku-style vendor plugin: a third-party ACR SDK with burst uploads.

This extension vendor models behaviour the paper's pair cannot express:

* **Third-party SDK.**  ACR is not first-party: fingerprints ship to the
  licensed "Teletrack" SDK's ingestion endpoints, not to the platform
  owner's own cloud.  The SDK additionally phones home for configuration
  *unconditionally* — even a full opt-out leaves that channel warm.
* **Content-gated bursts.**  Instead of a fixed upload period, the SDK
  uploads when the on-screen content *changes* (channel zaps, ad-break
  boundaries, HDMI source switches), shipping a multi-batch burst at each
  boundary plus a slow background refresh while content is static.
* **Opt-out only downsamples.**  Exercising every privacy toggle does not
  silence the SDK; it drops the upload rate (every Nth tick, bursts
  suppressed).  The conformance suite asserts this differential — reduced
  but non-zero — against the analysis pipeline.
"""

from __future__ import annotations

from typing import List

from ...acr.policy import (CaptureDecision, TRIGGER_CONTENT_CHANGE,
                           VendorAcrProfile)
from ...dnsinfra.registry import DomainRecord
from ...media.sources import SourceType
from ...sim.clock import milliseconds, minutes, seconds
from ...sim.process import Sleep
from ..device import SmartTV
from ..services import ServiceSpec
from .base import (OPTOUT_DOWNSAMPLE, VendorContract, VendorProfile,
                   json_payload, register)


SDK_CONFIG_DOMAIN = "acr-cfg.teletrack.tv"

ROKU_OPT_OUT_OPTIONS = [
    ("viewing_information", "Use information from TV inputs", False),
    ("interest_based_ads", "Personalize ads with viewing data", False),
    ("limit_ad_tracking", "Enable Limit ad tracking", True),
    ("usage_analytics", "Share usage analytics", False),
]


class RokuTv(SmartTV):
    """Roku-style player OS with an embedded third-party ACR SDK."""

    vendor = "roku"

    def acr_aux_loops(self) -> None:
        self._spawn(self._sdk_config_loop(), "acr:sdk-config")

    def _sdk_config_loop(self):
        """The SDK's config/attestation channel.

        Deliberately *not* gated on any consent: the SDK fetches its kill
        switches and sampling policy regardless, which is exactly why the
        opt-out differential for this vendor is "reduced", never "absent".
        """
        yield Sleep(seconds(7))
        self.send(self.loop.now, SDK_CONFIG_DOMAIN, 520, 1400,
                  request_plaintext=json_payload({
                      "type": "sdk-config-fetch",
                      "device": self.identifiers.acr_device_id,
                      "sdk": "teletrack-3.2",
                  }))
        while True:
            yield Sleep(self.rng.jitter_ns("acr:sdk-config",
                                           minutes(30), 0.1))
            self.send(self.loop.now, SDK_CONFIG_DOMAIN, 380, 900,
                      request_plaintext=json_payload({
                          "type": "sdk-config-refresh",
                          "device": self.identifiers.acr_device_id,
                      }))


# -- background services -------------------------------------------------------


def services(country: str) -> List[ServiceSpec]:
    """Player-platform chatter (store, telemetry, ad marketplace)."""
    ads_domain = ("eu.ads.rokumarket.example" if country == "uk"
                  else "us.ads.rokumarket.example")
    return [
        ServiceSpec("store", "channels.rokuos.example",
                    boot_delay_ns=seconds(1.8), boot_request=900,
                    boot_response=2100, period_ns=minutes(25),
                    request_bytes=700, response_bytes=1200,
                    skip_probability=0.2),
        ServiceSpec("telemetry", "scribe.rokuos.example",
                    boot_delay_ns=seconds(2.9), boot_request=650,
                    boot_response=400, period_ns=minutes(12),
                    request_bytes=800, response_bytes=300,
                    skip_probability=0.3),
        ServiceSpec("ads", ads_domain,
                    boot_delay_ns=seconds(4.1), boot_request=1300,
                    boot_response=2200, period_ns=minutes(8),
                    request_bytes=1600, response_bytes=2700,
                    skip_probability=0.4, gate="ads"),
    ]


# -- domain catalog ------------------------------------------------------------


def domains(country: str) -> List[DomainRecord]:
    sdk_city = "amsterdam" if country == "uk" else "san_jose"
    platform_city = "london" if country == "uk" else "san_jose"
    ingest = ("acr-ingest-eu.teletrack.tv" if country == "uk"
              else "acr-ingest-us.teletrack.tv")
    ads_domain = ("eu.ads.rokumarket.example" if country == "uk"
                  else "us.ads.rokumarket.example")
    return [
        DomainRecord(ingest, "teletrack", sdk_city, "acr-fingerprint",
                     ptr_label="acr"),
        DomainRecord(SDK_CONFIG_DOMAIN, "teletrack", "amsterdam",
                     "acr-log", ptr_label="acr"),
        DomainRecord("channels.rokuos.example", "bystander", platform_city,
                     "platform"),
        DomainRecord("scribe.rokuos.example", "bystander", platform_city,
                     "platform"),
        DomainRecord(ads_domain, "bystander", platform_city, "ads"),
        DomainRecord("api.netflix.com", "bystander", platform_city, "ott"),
        DomainRecord("www.youtube.com", "bystander", platform_city, "ott"),
    ]


# -- calibrated ACR profiles ---------------------------------------------------

# The SDK ticks every 20 s but only ships on content change: a 3-batch
# burst at each boundary, one background refresh per 12 static ticks,
# and an 8x downsample (bursts suppressed) once opted out.
_COMMON = dict(
    capture_interval_ns=milliseconds(250),
    batch_interval_ns=seconds(20),
    bytes_per_capture=24,
    batch_response_bytes=380,
    peak_every_batches=0,          # bursts replace periodic peaks
    peak_extra_bytes=0,
    beacon_request_bytes=180,
    beacon_response_bytes=140,
    beacon_peak_every=0,
    beacon_peak_scale=1.0,
    cast_request_bytes=180,
    cast_response_bytes=140,
    # The SDK dedups static frames aggressively before upload, so the
    # largely still HDMI desktop/game screens ship skeleton batches.
    hdmi_dedup_fraction=0.60,
    backoff_when_unrecognised=False,
    upload_trigger=TRIGGER_CONTENT_CHANGE,
    burst_batches=3,
    idle_upload_every=12,
    optout_downsample_every=8,
)

_ACR_PROFILES = {
    "uk": VendorAcrProfile("roku", "uk", **_COMMON),
    "us": VendorAcrProfile("roku", "us", **_COMMON),
}

# The SDK fingerprints the vendor's own FAST channel everywhere (its
# licence covers first-party surfaces), stays beacon-level inside
# third-party OTT apps, and ignores the launcher.
_DECISIONS = {
    ("uk", SourceType.FAST): CaptureDecision.FULL,
    ("us", SourceType.FAST): CaptureDecision.FULL,
    ("uk", SourceType.HOME): CaptureDecision.SILENT,
    ("us", SourceType.HOME): CaptureDecision.SILENT,
}


register(VendorProfile(
    name="roku",
    display_name="Roku-style (third-party SDK)",
    device_class=RokuTv,
    serial_prefix="RK9",
    operator="teletrack",
    fast_app_id="roku-channel",
    opt_out_options=ROKU_OPT_OUT_OPTIONS,
    ads_limiter_key="limit_ad_tracking",
    services=services,
    acr_profiles=_ACR_PROFILES,
    capture_decisions=_DECISIONS,
    domains=domains,
    audited_in_paper=False,
    catalog_order=2,  # extension vendors allocate after the paper pair
    fingerprint_domains={"uk": "acr-ingest-eu.teletrack.tv",
                         "us": "acr-ingest-us.teletrack.tv"},
    contract=VendorContract(
        bursty=True,
        acr_domains={"uk": ("acr-ingest-eu.teletrack.tv",
                            "acr-cfg.teletrack.tv"),
                     "us": ("acr-ingest-us.teletrack.tv",
                            "acr-cfg.teletrack.tv")},
        optout=OPTOUT_DOWNSAMPLE,
    ),
))
