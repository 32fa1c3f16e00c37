"""RFC 1071 internet checksum, used by the IPv4/TCP/UDP codecs.

The one's-complement sum is the busiest few lines in the repo — every
synthesized and every verified packet passes through it — so it is
computed arithmetically rather than with a per-byte Python loop:
``2**16 ≡ 1 (mod 0xFFFF)``, so the end-around-carry sum of a buffer's
big-endian 16-bit words equals the whole buffer taken as one big-endian
integer modulo 0xFFFF.  ``int.from_bytes`` runs in C, making the sum two
interpreter operations regardless of packet size.

The only subtlety is the modulus' double zero: a nonzero buffer whose
word sum is a multiple of 0xFFFF has end-around-carry sum 0xFFFF
("negative zero"), while the all-zero buffer genuinely sums to 0.
``ones_complement_sum`` resolves the collapse exactly as the carry loop
would, so it is bit-for-bit equivalent to the reference implementation
(asserted against it in ``tests/test_net_fastpath.py``).
"""

from __future__ import annotations


def word_sum(data: bytes) -> int:
    """Big-endian 16-bit word sum modulo 0xFFFF (odd buffers are
    zero-padded).  0 and 0xFFFF collapse; callers that need the true
    one's-complement representative use :func:`ones_complement_sum`."""
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    return int.from_bytes(data, "big") % 0xFFFF


def ones_complement_sum(data: bytes) -> int:
    """End-around-carry sum of big-endian 16-bit words, per RFC 1071.

    Shared by :func:`internet_checksum` and :func:`verify_checksum`
    (which historically each carried their own summing loop).
    """
    total = word_sum(data)
    if total == 0 and any(data):
        return 0xFFFF
    return total


def internet_checksum(data: bytes) -> int:
    """One's-complement of the one's-complement sum, per RFC 1071."""
    return (~ones_complement_sum(data)) & 0xFFFF


def verify_checksum(data: bytes) -> bool:
    """True when a buffer containing its own checksum sums to zero."""
    return ones_complement_sum(data) == 0xFFFF


def pseudo_header(src: bytes, dst: bytes, protocol: int,
                  length: int) -> bytes:
    """IPv4 pseudo header used in TCP/UDP checksum computation."""
    return (src + dst
            + bytes([0, protocol])
            + length.to_bytes(2, "big"))
