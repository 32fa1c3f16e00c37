"""Run one experiment end to end.

The workflow mirrors §3.2 exactly: start capture, power the TV on through
the smart plug (boot DNS burst), trigger the scenario through the remote,
run for the experiment duration, power off, stop capture.  The output is a
real pcap plus the out-of-band handles (backend, registry) that only our
white-box reproduction can offer.

:func:`run_experiment` drives the paper's single-scenario cells;
:func:`run_session` drives a multi-segment *viewing diary* (e.g. idle →
linear → OTT → cast) through the same workflow, switching the input
source at each segment boundary inside one capture.  The fleet layer
builds on the latter.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..acr.server import AcrBackend
from ..dnsinfra.registry import DomainRegistry
from ..dnsinfra.zones import Zone
from ..media.sources import (FastApp, HdmiInput, HomeScreen, InputSource,
                             OttApp, ScreenCast, Tuner)
from ..net.stack import HostStack
from ..sim.clock import seconds
from ..sim.events import EventLoop
from ..sim.rng import RngRegistry
from ..tv.device import SmartTV
from ..tv.power import SmartPlug
from ..tv.remote import RemoteControl
from . import assets
from .access_point import AccessPoint
from .experiment import (ExperimentSpec, POWER_ON_AT_NS, Scenario,
                         SCENARIO_START_NS, Vendor, vendor_profile_of)


class ExperimentResult:
    """Everything one experiment produced."""

    __slots__ = ("spec", "seed", "pcap_bytes", "packet_count", "tv_mac",
                 "tv_ip", "device_id", "backend", "registry", "zone",
                 "action_log", "power_log", "acr_stats", "mitm_proxy")

    def __init__(self, spec: ExperimentSpec, seed: int, pcap_bytes: bytes,
                 packet_count: int, tv_mac: str, tv_ip: str,
                 device_id: str, backend: AcrBackend,
                 registry: DomainRegistry, zone: Zone,
                 action_log: List, power_log: List,
                 acr_stats, mitm_proxy=None) -> None:
        self.spec = spec
        self.seed = seed
        self.pcap_bytes = pcap_bytes
        self.packet_count = packet_count
        self.tv_mac = tv_mac
        self.tv_ip = tv_ip
        self.device_id = device_id
        self.backend = backend
        self.registry = registry
        self.zone = zone
        self.action_log = action_log
        self.power_log = power_log
        self.acr_stats = acr_stats
        self.mitm_proxy = mitm_proxy

    def __repr__(self) -> str:
        return (f"ExperimentResult({self.spec.label}, seed={self.seed}, "
                f"{self.packet_count} packets, "
                f"{len(self.pcap_bytes)} pcap bytes)")


def build_source(spec: ExperimentSpec, seed: int) -> InputSource:
    """The input source for a scenario, over the cached country assets."""
    country = spec.country.value
    library = assets.media_library(country, 0)
    if spec.scenario is Scenario.IDLE:
        return HomeScreen(assets.ui_item())
    if spec.scenario is Scenario.LINEAR:
        return Tuner(assets.linear_channel(country, 0))
    if spec.scenario is Scenario.FAST:
        app = vendor_profile_of(spec.vendor).fast_app_id
        return FastApp(app, assets.fast_channel(country, 0))
    if spec.scenario is Scenario.OTT:
        return OttApp("netflix", assets.ott_playlist(country, 0))
    if spec.scenario is Scenario.HDMI:
        return HdmiInput([library.desktop(), library.game()], dwell_s=300)
    if spec.scenario is Scenario.SCREEN_CAST:
        return ScreenCast(library.movies[2])
    raise ValueError(f"unhandled scenario: {spec.scenario}")


Segment = Tuple[Scenario, int]
SESSION_TAIL_NS = seconds(30)


def session_duration_ns(segments: Sequence[Segment]) -> int:
    """Total capture duration for a multi-segment session.

    The single source of truth for lead-in + dwells + tail: the fleet
    layer keys its capture cache on this value, so it must always agree
    with what :func:`run_session` actually simulates.
    """
    return (SCENARIO_START_NS
            + sum(dwell_ns for __, dwell_ns in segments)
            + SESSION_TAIL_NS)


def run_experiment(spec: ExperimentSpec, seed: int = 0,
                   mitm: bool = False) -> ExperimentResult:
    """Execute one experiment cell and return its artifacts.

    ``mitm=True`` installs the testbed CA on the TV and routes every TLS
    session through a pinning-aware interception proxy; the result then
    carries a :class:`~repro.mitm.proxy.MitmProxy` full of plaintext for
    non-pinned hosts (the paper's future-work payload study).
    """
    return _run_workflow(
        spec, seed, spec.label,
        [(SCENARIO_START_NS, build_source(spec, seed))],
        mitm=mitm)


def run_session(vendor: Vendor, country, phase, segments: Sequence[Segment],
                seed: int = 0,
                label: Optional[str] = None) -> ExperimentResult:
    """Drive a multi-segment viewing session through one capture.

    ``segments`` is a sequence of ``(Scenario, dwell_ns)`` pairs; the
    remote switches the input source at each segment boundary, so a
    single household session composes several of the paper's scenarios
    (idle → linear → OTT → ...).  The capture runs from power-on through
    every segment plus a short tail, and — like single-cell experiments
    — is a pure function of ``(vendor, country, phase, segments, seed)``.

    ``label`` names the session's RNG universe (the fleet layer passes
    the household label); it defaults to a name derived from the segment
    scenarios so distinct diaries never share random streams.
    """
    segments = list(segments)
    if not segments:
        raise ValueError("session needs at least one segment")
    for __, dwell_ns in segments:
        if dwell_ns <= 0:
            raise ValueError("segment dwell must be positive")
    duration_ns = session_duration_ns(segments)
    spec = ExperimentSpec(vendor, country, segments[0][0], phase,
                          duration_ns)
    rng_label = label or (
        f"{vendor.value}-{country.value}-"
        + "+".join(scenario.value for scenario, __ in segments)
        + f"-{phase.value}")
    plan: List[Tuple[int, InputSource]] = []
    at_ns = SCENARIO_START_NS
    for scenario, dwell_ns in segments:
        segment_spec = ExperimentSpec(vendor, country, scenario, phase,
                                      duration_ns)
        plan.append((at_ns, build_source(segment_spec, seed)))
        at_ns += dwell_ns
    return _run_workflow(spec, seed, rng_label, plan)


def _run_workflow(spec: ExperimentSpec, seed: int, rng_label: str,
                  source_plan: Sequence[Tuple[int, InputSource]],
                  mitm: bool = False) -> ExperimentResult:
    """The §3.2 workflow over an arbitrary source schedule."""
    rng = RngRegistry(seed).fork(rng_label)
    loop = EventLoop()
    registry = DomainRegistry()
    zone = Zone(registry)
    ap = AccessPoint(spec.country.vantage, zone, rng)
    ap.register_servers(registry.ipspace.all_servers())
    stack = HostStack(
        mac=_tv_mac(spec, seed),
        ip=ap.tv_ip,
        gateway_mac=ap.mac,
        latency=ap.latency,
        rng=rng,
        log=ap.log,
    )
    backend = assets.fresh_backend(spec.vendor.value, spec.country.value)
    tv_class = vendor_profile_of(spec.vendor).device_class
    tv: SmartTV = tv_class(
        country=spec.country.value,
        loop=loop,
        rng=rng,
        stack=stack,
        resolver=ap.resolver,
        resolver_ip=ap.lan_ip,
        registry=registry,
        backend=backend,
        seed=seed,
    )
    # Phase configuration happens before power-on: the paper re-runs the
    # whole workflow per phase with the TV already in that state.
    if spec.phase.logged_in:
        tv.settings.login()
        tv.identifiers.link_account(seed)
    if not spec.phase.opted_in:
        tv.settings.opt_out_all()

    proxy = None
    if mitm:
        from ..mitm import MitmProxy, TESTBED_CA, TrustStore
        trust_store = TrustStore(spec.vendor.value)
        trust_store.install_root(TESTBED_CA)
        proxy = MitmProxy(trust_store)
        tv.mitm_proxy = proxy

    plug = SmartPlug(loop, tv)
    remote = RemoteControl(loop, tv)

    ap.start_capture()
    plug.power_on_at(POWER_ON_AT_NS)
    for at_ns, source in source_plan:
        remote.select_source_at(at_ns, source)
    plug.power_off_at(spec.duration_ns - seconds(1))
    loop.run_until(spec.duration_ns)
    pcap_bytes, packet_count = ap.stop_capture()

    return ExperimentResult(
        spec=spec,
        seed=seed,
        pcap_bytes=pcap_bytes,
        packet_count=packet_count,
        tv_mac=str(stack.mac),
        tv_ip=str(stack.ip),
        device_id=tv.identifiers.acr_device_id,
        backend=backend,
        registry=registry,
        zone=zone,
        action_log=list(remote.action_log),
        power_log=list(plug.transitions),
        acr_stats=tv.acr_client.stats,
        mitm_proxy=proxy,
    )


def _tv_mac(spec: ExperimentSpec, seed: int):
    # Stable across processes (unlike hash(), which PYTHONHASHSEED
    # randomizes) so cached captures are byte-identical to fresh runs.
    import hashlib

    from ..net.addresses import mac_from_seed
    digest = hashlib.sha256(
        f"{spec.vendor.value}:{seed}".encode()).digest()
    return mac_from_seed(int.from_bytes(digest[:3], "big")
                         | 0x020000000000)
