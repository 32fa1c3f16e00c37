"""The smart TV device model.

A :class:`SmartTV` owns a privacy-settings state machine, a set of
background OS services, an ACR client wired per vendor, and a network stack
attached to the testbed access point.  Powering it on reproduces the boot
workflow the paper's methodology leans on (DNS burst in the first seconds),
then the periodic service and ACR loops run until power-off.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..acr.client import AcrClient, AcrTransport
from ..acr.fingerprint import FingerprintBatch
from ..acr.matcher import BatchVerdict
from ..acr.policy import profile_for
from ..acr.server import AcrBackend
from ..dnsinfra.registry import DomainRegistry
from ..dnsinfra.resolver import RecursiveResolver, StubCache
from ..media.content import launcher_item
from ..media.sources import HomeScreen, InputSource, SourceType
from ..net.addresses import Ipv4Address
from ..net.stack import HostStack, TlsSession
from ..sim.clock import milliseconds, seconds
from ..sim.events import EventLoop
from ..sim.process import Process, Sleep, spawn
from ..sim.rng import RngRegistry
from .identifiers import DeviceIdentifiers
from .services import ServiceSpec, services_for
from .settings import PrivacySettings

OTT_CHUNK_PERIOD_NS = seconds(10)
CAST_STREAM_PERIOD_NS = seconds(1)
CAST_PACKET_BYTES = 1200


class SmartTV(AcrTransport):
    """Base device model; vendor subclasses add their ACR channel layout."""

    vendor = "generic"

    def __init__(self, country: str, loop: EventLoop, rng: RngRegistry,
                 stack: HostStack, resolver: RecursiveResolver,
                 resolver_ip: Ipv4Address, registry: DomainRegistry,
                 backend: Optional[AcrBackend], seed: int) -> None:
        self.country = country
        self.loop = loop
        self.rng = rng
        self.stack = stack
        self.resolver = resolver
        self.resolver_ip = resolver_ip
        self.registry = registry
        self.backend = backend
        self.seed = seed
        self.identifiers = DeviceIdentifiers(self.vendor, seed)
        self.settings = PrivacySettings(self.vendor, country)
        self.profile = profile_for(self.vendor, country)
        self.powered = False
        self.current_source: Optional[InputSource] = None
        # Set by the testbed when running MITM-instrumented experiments.
        self.mitm_proxy = None
        self._sessions: Dict[str, TlsSession] = {}
        self._stub_cache = StubCache()
        self._processes: List[Process] = []
        self.acr_client = AcrClient(
            device_id=self.identifiers.acr_device_id,
            profile=self.profile,
            enabled_fn=lambda: self.settings.acr_enabled,
            source_fn=lambda: self._require_source(),
            transport=self,
            domain_fn=self._fingerprint_domain,
        )

    # -- vendor hooks ---------------------------------------------------------

    def boot_domains(self) -> List[str]:
        """Domains resolved during the boot burst (consent-gated)."""
        names: List[str] = []
        for record in self.registry.domains_for(self.vendor, self.country):
            if record.role == "ott":
                continue  # OTT apps resolve lazily when launched
            if record.role == "ads" and \
                    not self.settings.ads_personalization_enabled:
                continue
            if record.role.startswith("acr"):
                if not self.settings.acr_enabled:
                    continue
                if record.role == "acr-fingerprint" and \
                        record.name != self._fingerprint_domain(
                            self.loop.now):
                    continue  # only the active rotation target
                if record.role == "acr-log" and \
                        not self.uses_acr_log_domain(record.name):
                    continue  # only the active numbered endpoint
            names.append(record.name)
        return names

    def uses_acr_log_domain(self, name: str) -> bool:
        """Whether this device actually speaks to an acr-log endpoint
        (vendors expose several numbered names; one is active)."""
        return True

    def acr_aux_loops(self) -> None:
        """Vendor-specific auxiliary ACR channels (Samsung overrides)."""

    def _fingerprint_domain(self, at_ns: int) -> str:
        return self.registry.fingerprint_domain(
            self.vendor, self.country, at_ns, self.seed)

    # -- power ---------------------------------------------------------------

    def power_on(self) -> None:
        """Boot: DNS burst, then periodic service + ACR loops."""
        if self.powered:
            raise RuntimeError("TV already powered on")
        self.powered = True
        if self.current_source is None:
            # TVs boot to the launcher until something is triggered.
            self.current_source = HomeScreen(launcher_item())
        self._stub_cache.flush()  # cold cache => observable boot burst
        self._spawn(self._boot_burst(), "boot-burst")
        for service in services_for(self.vendor, self.country):
            self._spawn(self._service_loop(service),
                        f"svc:{service.name}")
        self._spawn(self._acr_loop(), "acr-batches")
        self.acr_aux_loops()

    def power_off(self) -> None:
        """Stop every loop and drop connection state."""
        if not self.powered:
            return
        self.powered = False
        for process in self._processes:
            process.stop()
        self._processes.clear()
        for session in self._sessions.values():
            if session.established_at is not None and not session.closed:
                session.close(self.loop.now)
        self._sessions.clear()

    def _spawn(self, body, name: str) -> None:
        self._processes.append(spawn(self.loop, body, name))

    # -- source selection ---------------------------------------------------------

    _SOURCE_LOOPS = ("ott-stream", "cast-stream")

    def select_source(self, source: InputSource) -> None:
        """Switch input; (re)starts source-coupled traffic (OTT/cast).

        Switching away from an OTT app or an active cast stops its
        stream loop — leaving it running would keep phantom media
        traffic flowing through later segments of a multi-segment
        session.
        """
        self.current_source = source
        if not self.powered:
            return
        for process in self._processes:
            if process.name in self._SOURCE_LOOPS:
                process.stop()
        self._processes = [p for p in self._processes if p.alive]
        if source.source_type is SourceType.OTT:
            self._spawn(self._ott_stream_loop(source), "ott-stream")
        elif source.source_type is SourceType.CAST:
            self._spawn(self._cast_stream_loop(), "cast-stream")

    def _require_source(self) -> InputSource:
        if self.current_source is None:
            raise RuntimeError("no input source selected")
        return self.current_source

    # -- AcrTransport -----------------------------------------------------------

    @property
    def observes_plaintext(self) -> bool:
        return self.mitm_proxy is not None

    def send(self, at_ns: int, domain: str, request_bytes: int,
             response_bytes: int,
             request_plaintext: Optional[bytes] = None,
             response_plaintext: Optional[bytes] = None) -> None:
        session = self._session_for(domain, at_ns)
        if session is None:
            return
        session.exchange(max(at_ns, session.established_at),
                         request_bytes, response_bytes)
        if self.mitm_proxy is not None:
            self.mitm_proxy.observe(at_ns, domain, request_plaintext,
                                    response_plaintext)

    def deliver_batch(self, at_ns: int, domain: str,
                      batch: FingerprintBatch) -> Optional[BatchVerdict]:
        if self.backend is None:
            return None
        return self.backend.ingest(batch, at_ns)

    def keepalive_probe(self, at_ns: int, domain: str) -> None:
        session = self._session_for(domain, at_ns)
        if session is not None:
            session.tcp_keepalive(max(at_ns, session.established_at))

    # -- network plumbing ----------------------------------------------------------

    def resolve(self, domain: str, at_ns: int) -> Optional[Ipv4Address]:
        """Stub-cached resolution; cache misses are visible on the wire."""
        cached = self._stub_cache.lookup(domain, at_ns)
        if cached is not None:
            return cached[0].address if cached else None
        result = self.resolver.resolve(domain, at_ns)
        self.stack.dns_exchange(at_ns, self.resolver_ip, domain,
                                result.records,
                                rcode=3 if result.nxdomain else 0)
        self._stub_cache.store(domain, result.records, at_ns)
        if result.nxdomain or not result.records:
            return None
        return result.records[0].address

    def _session_for(self, domain: str, at_ns: int) -> Optional[TlsSession]:
        session = self._sessions.get(domain)
        if session is not None and not session.closed:
            return session
        address = self.resolve(domain, at_ns)
        if address is None:
            return None
        session = TlsSession.open(self.stack, at_ns + milliseconds(2),
                                  address, domain)
        self._sessions[domain] = session
        return session

    # -- periodic loops -------------------------------------------------------------

    def _boot_burst(self):
        """Resolve the vendor's domains in the first seconds after boot."""
        yield Sleep(milliseconds(400))
        for index, domain in enumerate(self.boot_domains()):
            jitter = self.rng.jitter_ns(
                "boot:gap", milliseconds(120), fraction=0.5)
            yield Sleep(jitter)
            self.resolve(domain, self.loop.now)

    def _service_loop(self, service: ServiceSpec):
        yield Sleep(service.boot_delay_ns)
        if not self._service_allowed(service):
            reduced = True
        else:
            reduced = False
        if service.boot_request:
            scale = 0.5 if reduced else 1.0
            self.send(self.loop.now, service.domain,
                      int(service.boot_request * scale),
                      int(service.boot_response * scale))
        if service.period_ns is None:
            return
        while True:
            period = service.period_ns * (2 if reduced else 1)
            yield Sleep(self.rng.jitter_ns(
                f"svc:{service.name}", period, fraction=0.15))
            reduced = not self._service_allowed(service)
            skip = service.skip_probability + (0.15 if reduced else 0.0)
            if self.rng.chance(f"svc-skip:{service.name}", skip):
                continue
            scale = 0.5 if reduced else 1.0
            request = self.rng.jitter_ns(
                f"svc-size:{service.name}",
                int(service.request_bytes * scale), fraction=0.1)
            response = self.rng.jitter_ns(
                f"svc-size:{service.name}",
                int(service.response_bytes * scale), fraction=0.1)
            self.send(self.loop.now, service.domain, request, response)

    def _service_allowed(self, service: ServiceSpec) -> bool:
        if service.gate == "ads":
            return self.settings.ads_personalization_enabled
        if service.gate == "acr":
            return self.settings.acr_enabled
        return True

    def _acr_loop(self):
        interval = self.profile.batch_interval_ns
        while True:
            yield Sleep(interval)
            self.acr_client.batch_tick(self.loop.now)

    def _ott_stream_loop(self, source: InputSource):
        """Manifest/chunk fetches from the OTT backend.

        The media plane is thinned ~100x relative to a real 5 Mbps stream
        (documented substitution: the audit only measures ACR flows, and
        full-rate video would bloat captures without changing any result).
        """
        domain = ("api.netflix.com" if source.app_id == "netflix"
                  else "www.youtube.com")
        yield Sleep(seconds(1))
        self.send(self.loop.now, domain, 900, 14000)  # manifest + licence
        while True:
            yield Sleep(self.rng.jitter_ns("ott:chunk",
                                           OTT_CHUNK_PERIOD_NS, 0.1))
            self.send(self.loop.now, domain, 420, 8200)

    def _cast_stream_loop(self):
        """Inbound mirroring stream from the phone on the LAN (thinned)."""
        phone_ip = Ipv4Address.parse("192.168.1.77")
        while True:
            yield Sleep(self.rng.jitter_ns("cast:frame",
                                           CAST_STREAM_PERIOD_NS, 0.2))
            payload = self.rng.token_bytes("cast:payload",
                                           CAST_PACKET_BYTES)
            self.stack.emit_inbound_udp(self.loop.now, phone_ip,
                                        7236, 7236, payload, ttl=64)

    def __repr__(self) -> str:
        power = "on" if self.powered else "off"
        return (f"{type(self).__name__}({self.country}, {power}, "
                f"{self.settings!r})")
