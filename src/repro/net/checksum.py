"""RFC 1071 word sums for the capture log's static checksum parts.

``2**16 ≡ 1 (mod 0xFFFF)``, so the end-around-carry sum of a buffer's
big-endian 16-bit words is the whole buffer taken as one big-endian
integer modulo 0xFFFF, which ``int.from_bytes`` computes in C.  The
capture log (:mod:`repro.net.capture`) sums each flow direction's
static header words here once and everything per row vectorized.
``tests/test_net_fastpath.py`` checks the sum, through the test
oracle's RFC 1071 checksum, against the per-byte carry loop.
"""

from __future__ import annotations


def word_sum(data: bytes) -> int:
    """Big-endian 16-bit word sum modulo 0xFFFF (odd buffers are
    zero-padded).  0 and 0xFFFF collapse: the all-zero buffer and a
    nonzero one summing to "negative zero" both read 0."""
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    return int.from_bytes(data, "big") % 0xFFFF
