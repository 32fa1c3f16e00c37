"""The Mon(IoT)r-style capture access point.

One AP per TV: it is the TV's Wi-Fi gateway and DNS resolver, and it taps
every frame the TV sends or receives into a capture log.  At the end of
an experiment the log is encoded into a real pcap file, which is all the
analysis pipeline gets — exactly the paper's black-box vantage.
"""

from __future__ import annotations

import zlib
from typing import Tuple

from ..dnsinfra.resolver import RecursiveResolver
from ..dnsinfra.zones import Zone
from ..net.addresses import Ipv4Address, MacAddress, mac_from_seed
from ..net.capture import CaptureLog
from ..net.link import LatencyModel
from ..sim.rng import RngRegistry

AP_LAN_IP = "192.168.1.1"
TV_LAN_IP = "192.168.1.50"


class AccessPoint:
    """Gateway + resolver + packet tap for one testbed."""

    def __init__(self, vantage: str, zone: Zone, rng: RngRegistry) -> None:
        self.vantage = vantage
        self.lan_ip = Ipv4Address.parse(AP_LAN_IP)
        self.tv_ip = Ipv4Address.parse(TV_LAN_IP)
        # crc32, not hash(): PYTHONHASHSEED randomizes str hashing per
        # process, and captures must be byte-identical across processes
        # for the grid result cache.
        self.mac: MacAddress = mac_from_seed(
            0xAABB00 + zlib.crc32(vantage.encode()) % 255)
        self.resolver = RecursiveResolver(zone)
        self.latency = LatencyModel(vantage, rng)
        self.latency.register_server(
            self.lan_ip, "london" if vantage == "uk" else "us_west")
        #: The tap: the TV's host stack logs every packet here.
        self.log = CaptureLog()

    # -- capture control ----------------------------------------------------

    def start_capture(self) -> None:
        self.log.clear()
        self.log.recording = True

    def stop_capture(self) -> Tuple[bytes, int]:
        """Stop tapping and hand the capture over: its pcap bytes, in
        capture-time order, and its packet count.

        Encoding empties the log: the AP is reachable from the
        simulation's reference cycles, which only the cyclic garbage
        collector frees, so rows kept here would hold a finished cell's
        whole capture until the next full collection.
        """
        self.log.recording = False
        count = len(self.log)
        return self.log.encode(), count

    @property
    def packet_count(self) -> int:
        return len(self.log)

    def register_servers(self, servers) -> None:
        """Teach the latency model where every ground-truth server is."""
        for record in servers:
            self.latency.register_server(record.address,
                                         record.city.region_key)

    def __repr__(self) -> str:
        state = "capturing" if self.log.recording else "idle"
        return (f"AccessPoint({self.vantage}, {state}, "
                f"{self.packet_count} packets)")
