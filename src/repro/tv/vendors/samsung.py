"""Samsung (Tizen-like) vendor plugin: device model + declarative profile.

Beyond the base device, Samsung runs three auxiliary ACR channels the paper
observes alongside the fingerprint endpoint:

* ``log-config.samsungacr.com`` — configuration fetches (boot + refresh);
* ``log-ingestion[-eu].samsungacr.com`` — minute-cadence telemetry whose
  volume grows while fingerprinting is active;
* ``acrX.samsungcloudsolution.com`` — periodic keep-alives (UK only; the
  paper finds the domain absent in the US).

All three are gated on the viewing-information consent, so the paper's
opt-out finding ("complete absence of communication with any previously
identified ACR domains") covers them too.
"""

from __future__ import annotations

from typing import List

from ...acr.policy import CaptureDecision, VendorAcrProfile
from ...dnsinfra.registry import DomainRecord
from ...media.sources import SourceType
from ...sim.clock import milliseconds, minutes, seconds
from ...sim.process import Sleep
from ..device import SmartTV
from ..services import ServiceSpec
from .base import (OPTOUT_SILENCE, VendorContract, VendorProfile,
                   json_payload, register)


LOG_CONFIG_DOMAIN = "log-config.samsungacr.com"
KEEPALIVE_DOMAIN = "acr0.samsungcloudsolution.com"

# Table 1, Samsung column: (option key, label, value-when-opted-out).
SAMSUNG_OPT_OUT_OPTIONS = [
    ("viewing_information",
     "I consent to viewing information services on this device", False),
    ("interest_based_ads", "I consent to interest-Based advertisements",
     False),
    ("customization_service", "Customization Service", False),
    ("do_not_track", "Enable Do not track", True),
    ("personalized_ads_improvement", "Improve personalized ads", False),
    ("news_and_offers", "Get news and special offer", False),
]


class SamsungTv(SmartTV):
    """Samsung Tizen model (500 ms captures, 60 s batches)."""

    vendor = "samsung"

    @property
    def log_ingestion_domain(self) -> str:
        return ("log-ingestion-eu.samsungacr.com" if self.country == "uk"
                else "log-ingestion.samsungacr.com")

    @property
    def has_keepalive_channel(self) -> bool:
        return self.country == "uk"

    def uses_acr_log_domain(self, name: str) -> bool:
        """Only the active endpoints of the numbered scheme are spoken to
        (acr0 of acr0..acr3, plus the log/config pair)."""
        return name in (LOG_CONFIG_DOMAIN, KEEPALIVE_DOMAIN,
                        self.log_ingestion_domain)

    def acr_aux_loops(self) -> None:
        self._spawn(self._log_config_loop(), "acr:log-config")
        self._spawn(self._log_ingestion_loop(), "acr:log-ingestion")
        if self.has_keepalive_channel:
            self._spawn(self._keepalive_loop(), "acr:keepalive")

    # -- channels ------------------------------------------------------------

    def _log_config_loop(self):
        """Boot-time ACR configuration fetch plus periodic refresh."""
        yield Sleep(seconds(6))
        if self.settings.acr_enabled:
            self.send(self.loop.now, LOG_CONFIG_DOMAIN, 850, 2600,
                      request_plaintext=json_payload({
                          "type": "acr-config-fetch",
                          "device": self.identifiers.acr_device_id,
                          "fw": "tizen-7.0",
                      }))
        while True:
            yield Sleep(self.rng.jitter_ns("acr:log-config",
                                           minutes(24), 0.1))
            if self.settings.acr_enabled:
                self.send(self.loop.now, LOG_CONFIG_DOMAIN, 380, 700,
                          request_plaintext=json_payload({
                              "type": "acr-config-refresh",
                              "device": self.identifiers.acr_device_id,
                          }))

    def _log_ingestion_loop(self):
        """Minute-cadence telemetry; fatter while ACR has things to log.

        The boost trigger differs by region (visible in Tables 2 vs 4):
        the EU backend only logs *recognitions*, so unmatched HDMI content
        stays at base volume; the US backend logs every fingerprint
        upload, so HDMI telemetry rides as high as Antenna.
        """
        yield Sleep(seconds(9))
        batches_seen = 0
        recognised_seen = 0
        while True:
            yield Sleep(self.rng.jitter_ns("acr:ingestion",
                                           seconds(60), 0.05))
            if not self.settings.acr_enabled:
                continue
            stats = self.acr_client.stats
            if self.country == "uk":
                boosted = stats.recognised > recognised_seen
            else:
                boosted = stats.full_batches > batches_seen
            batches_seen = stats.full_batches
            recognised_seen = stats.recognised
            request = 3800 if boosted else 1900
            response = 420
            self.send(self.loop.now, self.log_ingestion_domain,
                      self.rng.jitter_ns("acr:ingestion-size", request,
                                         0.15),
                      response,
                      request_plaintext=json_payload({
                          "type": "acr-telemetry",
                          "device": self.identifiers.acr_device_id,
                          "batches": stats.full_batches,
                          "recognised": stats.recognised,
                          "boosted": boosted,
                      }))

    def _keepalive_loop(self):
        """acr0.samsungcloudsolution.com: steady small keep-alives."""
        yield Sleep(seconds(12))
        while True:
            yield Sleep(self.rng.jitter_ns("acr:keepalive",
                                           minutes(5), 0.05))
            if self.settings.acr_enabled:
                self.send(self.loop.now, KEEPALIVE_DOMAIN, 150, 170,
                          request_plaintext=json_payload({
                              "type": "acr-keepalive",
                              "device": self.identifiers.acr_device_id,
                          }))


# -- background services -------------------------------------------------------


def services(country: str) -> List[ServiceSpec]:
    """Tizen-like platform chatter."""
    ads_domain = ("eu.samsungads.com" if country == "uk"
                  else "us.samsungads.com")
    return [
        ServiceSpec("time-sync", "time.samsungcloudsolution.com",
                    boot_delay_ns=seconds(1.2), boot_request=220,
                    boot_response=180, period_ns=minutes(30),
                    request_bytes=220, response_bytes=180),
        ServiceSpec("firmware", "otn.samsungcloudsolution.com",
                    boot_delay_ns=seconds(2.5), boot_request=900,
                    boot_response=1600, period_ns=None,
                    request_bytes=0, response_bytes=0),
        ServiceSpec("osp-api", "api.samsungosp.com",
                    boot_delay_ns=seconds(3.1), boot_request=1200,
                    boot_response=2600, period_ns=minutes(20),
                    request_bytes=700, response_bytes=1100,
                    skip_probability=0.25),
        # The ad platform: gated on ad consent, deliberately irregular.
        ServiceSpec("ads", ads_domain,
                    boot_delay_ns=seconds(4.0), boot_request=1500,
                    boot_response=2400, period_ns=minutes(7),
                    request_bytes=1900, response_bytes=3200,
                    skip_probability=0.45, gate="ads"),
        ServiceSpec("ads-config", "config.samsungads.com",
                    boot_delay_ns=seconds(4.6), boot_request=700,
                    boot_response=1500, period_ns=minutes(25),
                    request_bytes=700, response_bytes=1500,
                    skip_probability=0.3, gate="ads"),
    ]


# -- domain catalog ------------------------------------------------------------


def _numbered_keepalives() -> List[DomainRecord]:
    return [
        DomainRecord(f"acr{i}.samsungcloudsolution.com", "samsung",
                     "amsterdam", "acr-log", ptr_label="acr")
        for i in range(0, 4)
    ]


def domains(country: str) -> List[DomainRecord]:
    if country == "uk":
        return [
            DomainRecord("acr-eu-prd.samsungcloud.tv", "samsung", "london",
                         "acr-fingerprint", ptr_label="acr"),
            DomainRecord("log-config.samsungacr.com", "samsung", "new_york",
                         "acr-log", ptr_label="acr"),
            DomainRecord("log-ingestion-eu.samsungacr.com", "samsung",
                         "london", "acr-log", ptr_label="acr"),
        ] + _numbered_keepalives() + [
            DomainRecord("eu.samsungads.com", "samsung", "london", "ads"),
            DomainRecord("config.samsungads.com", "samsung", "amsterdam",
                         "ads"),
            DomainRecord("time.samsungcloudsolution.com", "samsung",
                         "amsterdam", "platform"),
            DomainRecord("otn.samsungcloudsolution.com", "samsung",
                         "amsterdam", "platform"),
            DomainRecord("api.samsungosp.com", "samsung", "london",
                         "platform"),
            DomainRecord("api.netflix.com", "bystander", "london", "ott"),
            DomainRecord("www.youtube.com", "bystander", "london", "ott"),
        ]
    return [
        DomainRecord("acr-us-prd.samsungcloud.tv", "samsung", "san_jose",
                     "acr-fingerprint", ptr_label="acr"),
        DomainRecord("log-config.samsungacr.com", "samsung", "new_york",
                     "acr-log", ptr_label="acr"),
        DomainRecord("log-ingestion.samsungacr.com", "samsung",
                     "ashburn", "acr-log", ptr_label="acr"),
        DomainRecord("us.samsungads.com", "samsung", "new_york", "ads"),
        DomainRecord("config.samsungads.com", "samsung", "ashburn",
                     "ads"),
        DomainRecord("time.samsungcloudsolution.com", "samsung",
                     "ashburn", "platform"),
        DomainRecord("otn.samsungcloudsolution.com", "samsung",
                     "ashburn", "platform"),
        DomainRecord("api.samsungosp.com", "samsung", "san_jose",
                     "platform"),
        DomainRecord("api.netflix.com", "bystander", "san_jose", "ott"),
        DomainRecord("www.youtube.com", "bystander", "san_jose", "ott"),
    ]


# -- calibrated ACR profiles ---------------------------------------------------

# Samsung Tizen: 500 ms captures, 60 s batches; richer per-capture records,
# five-minute flush peaks.  Restricted scenarios keep the fingerprint
# session alive with bare TCP keep-alives (near-zero bytes), except
# casting, which sends a small status beacon.
_COMMON = dict(
    capture_interval_ns=milliseconds(500),
    batch_interval_ns=seconds(60),
    batch_response_bytes=420,
    peak_every_batches=5,          # "peaks ... every five minutes" (Fig. 4b)
    peak_extra_bytes=2200,
    beacon_peak_every=2,           # alternating minute peaks (§4.1)
    beacon_peak_scale=1.8,
    beacon_request_bytes=0,        # bare TCP keep-alive
    beacon_response_bytes=0,
    cast_request_bytes=110,
    cast_response_bytes=90,
    hdmi_dedup_fraction=0.0,
)

_ACR_PROFILES = {
    "uk": VendorAcrProfile(
        "samsung", "uk",
        bytes_per_capture=52,
        backoff_when_unrecognised=True,
        **_COMMON),
    "us": VendorAcrProfile(
        "samsung", "us",
        bytes_per_capture=17,
        backoff_when_unrecognised=False,  # US HDMI volumes ~= Antenna
        **_COMMON),
}

# The manufacturer FAST platform is restricted in the UK, active in the
# US (§4.3); the US fingerprint channel goes fully silent for idle/OTT/
# cast (Table 4 shows no acr-us-prd traffic there).
_DECISIONS = {
    ("uk", SourceType.FAST): CaptureDecision.BEACON,
    ("us", SourceType.FAST): CaptureDecision.FULL,
    ("us", SourceType.OTT): CaptureDecision.SILENT,
    ("us", SourceType.CAST): CaptureDecision.SILENT,
    ("uk", SourceType.HOME): CaptureDecision.SILENT,
    ("us", SourceType.HOME): CaptureDecision.SILENT,
}


register(VendorProfile(
    name="samsung",
    display_name="Samsung (Tizen)",
    device_class=SamsungTv,
    serial_prefix="0C7S",
    operator="samsung-ads",
    fast_app_id="samsung-tv-plus",
    opt_out_options=SAMSUNG_OPT_OUT_OPTIONS,
    ads_limiter_key="do_not_track",
    services=services,
    acr_profiles=_ACR_PROFILES,
    capture_decisions=_DECISIONS,
    domains=domains,
    audited_in_paper=True,
    catalog_order=1,  # pre-registry catalog allocated LG first
    fingerprint_domains={"uk": "acr-eu-prd.samsungcloud.tv",
                         "us": "acr-us-prd.samsungcloud.tv"},
    # Samsung pins its fingerprint ingestion endpoints (uploads are the
    # crown jewels); the log/config channels use the system store.
    pinned_domains=("acr-eu-prd.samsungcloud.tv",
                    "acr-us-prd.samsungcloud.tv"),
    contract=VendorContract(
        cadence_s=60.0,
        cadence_tolerance_s=10.0,
        acr_domains={
            "uk": ("acr-eu-prd.samsungcloud.tv",
                   "acr0.samsungcloudsolution.com",
                   "log-config.samsungacr.com",
                   "log-ingestion-eu.samsungacr.com"),
            "us": ("acr-us-prd.samsungcloud.tv",
                   "log-config.samsungacr.com",
                   "log-ingestion.samsungacr.com"),
        },
        optout=OPTOUT_SILENCE,
    ),
))
