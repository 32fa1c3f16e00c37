"""IPv4 protocol numbers."""

PROTO_TCP = 6
PROTO_UDP = 17
