"""Network substrate: packet codecs, pcap files, a columnar decode, and a
host stack.

Everything here is implemented from scratch at wire-format level so the
testbed's captures are real pcap files and the analysis pipeline operates on
raw bytes, exactly like the paper's Mon(IoT)r-based setup.
"""

from .addresses import (BROADCAST_MAC, Ipv4Address, Ipv4Network, MacAddress,
                        mac_from_seed, parse_endpoint)
from .columnar import ColumnarCapture, ColumnarSlice, ColumnarView
from .dns import DnsMessage, DnsQuestion, DnsRecord
from .ethernet import EthernetFrame
from .ip import Ipv4Packet
from .link import LatencyModel
from .packet import (CapturedPacket, DecodedPacket, LazyPacket, decode_all,
                     decode_packet, lazy_decode, lazy_decode_all)
from .pcap import (PcapError, PcapReader, PcapWriter, dump_bytes, load_bytes,
                   load_file, save_file)
from .stack import HostStack, TlsSession
from .tcp import TcpSegment
from .template import TcpFrameTemplate
from .tls import TlsRecord, extract_sni
from .udp import UdpDatagram

__all__ = [
    "BROADCAST_MAC",
    "CapturedPacket",
    "ColumnarCapture",
    "ColumnarSlice",
    "ColumnarView",
    "DecodedPacket",
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
    "PcapReader",
    "PcapWriter",
    "TcpFrameTemplate",
    "TcpSegment",
    "TlsRecord",
    "TlsSession",
    "UdpDatagram",
    "decode_all",
    "decode_packet",
    "dump_bytes",
    "extract_sni",
    "lazy_decode",
    "lazy_decode_all",
    "load_bytes",
    "load_file",
    "mac_from_seed",
    "parse_endpoint",
    "save_file",
]
