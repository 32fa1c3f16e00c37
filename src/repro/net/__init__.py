"""Network substrate: the capture log that encodes frames, the pcap
format, a columnar decode, and a host stack.

Everything here is implemented from scratch at wire-format level so the
testbed's captures are real pcap files and the analysis pipeline operates on
raw bytes, exactly like the paper's Mon(IoT)r-based setup.
"""

from .addresses import (BROADCAST_MAC, Ipv4Address, Ipv4Network, MacAddress,
                        mac_from_seed, parse_endpoint)
from .capture import CaptureLog
from .columnar import ColumnarCapture, ColumnarSlice, ColumnarView
from .dns import DnsMessage, DnsQuestion, DnsRecord
from .link import LatencyModel
from .packet import LazyPacket
from .pcap import PcapError
from .stack import HostStack, TlsSession
from .tls import TlsRecord, extract_sni

__all__ = [
    "BROADCAST_MAC",
    "CaptureLog",
    "ColumnarCapture",
    "ColumnarSlice",
    "ColumnarView",
    "DnsMessage",
    "DnsQuestion",
    "DnsRecord",
    "HostStack",
    "Ipv4Address",
    "Ipv4Network",
    "LatencyModel",
    "LazyPacket",
    "MacAddress",
    "PcapError",
    "TlsRecord",
    "TlsSession",
    "extract_sni",
    "mac_from_seed",
    "parse_endpoint",
]
