"""Network substrate: packet codecs, the pcap format, a columnar decode,
and a host stack.

Everything here is implemented from scratch at wire-format level so the
testbed's captures are real pcap files and the analysis pipeline operates on
raw bytes, exactly like the paper's Mon(IoT)r-based setup.
"""

from .addresses import (BROADCAST_MAC, Ipv4Address, Ipv4Network, MacAddress,
                        mac_from_seed, parse_endpoint)
from .capture import CaptureLog
from .columnar import ColumnarCapture, ColumnarSlice, ColumnarView
from .dns import DnsMessage, DnsQuestion, DnsRecord
from .ethernet import EthernetFrame
from .ip import Ipv4Packet
from .link import LatencyModel
from .packet import LazyPacket
from .pcap import PcapError
from .stack import HostStack, TlsSession
from .tcp import TcpSegment
from .tls import TlsRecord, extract_sni
from .udp import UdpDatagram

__all__ = [
    "BROADCAST_MAC",
    "CaptureLog",
    "ColumnarCapture",
    "ColumnarSlice",
    "ColumnarView",
    "DnsMessage",
    "DnsQuestion",
    "DnsRecord",
    "EthernetFrame",
    "HostStack",
    "Ipv4Address",
    "Ipv4Network",
    "Ipv4Packet",
    "LatencyModel",
    "LazyPacket",
    "MacAddress",
    "PcapError",
    "TcpSegment",
    "TlsRecord",
    "TlsSession",
    "UdpDatagram",
    "extract_sni",
    "mac_from_seed",
    "parse_endpoint",
]
