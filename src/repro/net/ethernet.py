"""Ethernet II constants."""

ETHERTYPE_IPV4 = 0x0800
