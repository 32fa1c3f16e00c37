"""The per-packet flow-key oracle for ``ColumnarCapture.flow_keys``.

``canonical_key`` reads only a packet view's flat ``src_ip``/``dst_ip``/
port/``flow_proto`` attributes, so it keys a ``DecodedPacket``, a
``LazyPacket`` and a columnar row alike.  Keys come out in the column
keys' int form so the two compare directly.
"""

from repro.net.columnar import OTHER_IP_CLASS
from repro.net.ip import PROTO_TCP, PROTO_UDP

PROTO_CLASS = {"tcp": PROTO_TCP, "udp": PROTO_UDP, "ip": OTHER_IP_CLASS}


def canonical_key(packet):
    """Direction-independent flow key, lower endpoint first; ``None``
    for a non-IP packet.  Both ports are 0 when either is absent."""
    proto = packet.flow_proto
    if proto is None:
        return None
    if packet.src_port is None or packet.dst_port is None:
        a = (packet.src_ip.value, 0)
        b = (packet.dst_ip.value, 0)
    else:
        a = (packet.src_ip.value, packet.src_port)
        b = (packet.dst_ip.value, packet.dst_port)
    low, high = (a, b) if a <= b else (b, a)
    return low + high + (PROTO_CLASS[proto],)


def flow_keys(packets):
    """The distinct flow keys of a packet sequence."""
    return {key for key in map(canonical_key, packets) if key is not None}
