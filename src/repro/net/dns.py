"""DNS wire format (RFC 1035): queries and responses with A, PTR and CNAME
records, including message-compression-free name encoding (legal, simpler,
and what several embedded stacks emit).  Decoding follows compression
pointers anywhere a name appears, record data included.

The paper's methodology leans on DNS: "the majority of DNS requests are
typically sent within the first few seconds after device activation", and the
analysis maps contacted IPs back to domain names from captured DNS answers.
This codec makes that mapping work over real bytes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .addresses import Ipv4Address

TYPE_A = 1
TYPE_CNAME = 5
TYPE_PTR = 12
CLASS_IN = 1

FLAG_QR_RESPONSE = 0x8000
FLAG_RD = 0x0100
FLAG_RA = 0x0080
RCODE_NOERROR = 0


def encode_name(name: str) -> bytes:
    """Encode a dotted name as DNS labels."""
    if name.endswith("."):
        name = name[:-1]
    out = bytearray()
    if name:
        for label in name.split("."):
            raw = label.encode("ascii")
            if not 0 < len(raw) < 64:
                raise ValueError(f"bad DNS label: {label!r}")
            out.append(len(raw))
            out += raw
    out.append(0)
    return bytes(out)


def decode_name(raw: bytes, offset: int) -> Tuple[str, int]:
    """Decode a name at ``offset``; returns (name, next_offset).

    Handles compression pointers so we can also parse third-party captures.
    """
    labels: List[str] = []
    jumps = 0
    next_offset: Optional[int] = None
    while True:
        if offset >= len(raw):
            raise ValueError("truncated DNS name")
        length = raw[offset]
        if length & 0xC0 == 0xC0:  # compression pointer
            if offset + 1 >= len(raw):
                raise ValueError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | raw[offset + 1]
            if next_offset is None:
                next_offset = offset + 2
            offset = pointer
            jumps += 1
            if jumps > 32:
                raise ValueError("DNS compression loop")
            continue
        offset += 1
        if length == 0:
            break
        labels.append(raw[offset:offset + length].decode("ascii"))
        offset += length
    return ".".join(labels), (next_offset if next_offset is not None
                              else offset)


class DnsQuestion:
    """One question entry."""

    __slots__ = ("name", "qtype")

    def __init__(self, name: str, qtype: int = TYPE_A) -> None:
        self.name = name.lower()
        self.qtype = qtype

    def encode(self) -> bytes:
        return (encode_name(self.name)
                + self.qtype.to_bytes(2, "big")
                + CLASS_IN.to_bytes(2, "big"))

    def __repr__(self) -> str:
        return f"DnsQuestion({self.name!r}, type={self.qtype})"


class DnsRecord:
    """One resource record (answer/authority/additional).

    ``target`` is a CNAME/PTR record's decoded target name.  A decoded
    message passes it in, because compressed record data can only be
    resolved against the whole message; otherwise it is read from
    ``data`` on first use.
    """

    __slots__ = ("name", "rtype", "ttl", "data", "_target")

    def __init__(self, name: str, rtype: int, ttl: int, data: bytes,
                 target: Optional[str] = None) -> None:
        self.name = name.lower()
        self.rtype = rtype
        self.ttl = ttl
        self.data = data
        self._target = target

    @classmethod
    def a(cls, name: str, address: Ipv4Address, ttl: int = 300) -> "DnsRecord":
        return cls(name, TYPE_A, ttl, address.to_bytes())

    @classmethod
    def ptr(cls, name: str, target: str, ttl: int = 300) -> "DnsRecord":
        return cls(name, TYPE_PTR, ttl, encode_name(target))

    @property
    def address(self) -> Ipv4Address:
        if self.rtype != TYPE_A:
            raise ValueError("not an A record")
        return Ipv4Address.from_bytes(self.data)

    @property
    def target_name(self) -> str:
        if self.rtype not in (TYPE_CNAME, TYPE_PTR):
            raise ValueError("record has no target name")
        if self._target is None:
            self._target, __ = decode_name(self.data, 0)
        return self._target

    def encode(self) -> bytes:
        return (encode_name(self.name)
                + self.rtype.to_bytes(2, "big")
                + CLASS_IN.to_bytes(2, "big")
                + self.ttl.to_bytes(4, "big")
                + len(self.data).to_bytes(2, "big")
                + self.data)

    def __repr__(self) -> str:
        return f"DnsRecord({self.name!r}, type={self.rtype}, ttl={self.ttl})"


class DnsMessage:
    """A complete DNS message."""

    __slots__ = ("txid", "flags", "questions", "answers")

    def __init__(self, txid: int, flags: int,
                 questions: List[DnsQuestion],
                 answers: Optional[List[DnsRecord]] = None) -> None:
        self.txid = txid & 0xFFFF
        self.flags = flags
        self.questions = questions
        self.answers = answers or []

    @classmethod
    def query(cls, txid: int, name: str, qtype: int = TYPE_A) -> "DnsMessage":
        return cls(txid, FLAG_RD, [DnsQuestion(name, qtype)])

    @classmethod
    def response(cls, query: "DnsMessage", answers: List[DnsRecord],
                 rcode: int = RCODE_NOERROR) -> "DnsMessage":
        flags = FLAG_QR_RESPONSE | FLAG_RD | FLAG_RA | (rcode & 0x0F)
        return cls(query.txid, flags, list(query.questions), answers)

    @property
    def is_response(self) -> bool:
        return bool(self.flags & FLAG_QR_RESPONSE)

    @property
    def rcode(self) -> int:
        return self.flags & 0x0F

    def encode(self) -> bytes:
        out = bytearray()
        out += self.txid.to_bytes(2, "big")
        out += self.flags.to_bytes(2, "big")
        out += len(self.questions).to_bytes(2, "big")
        out += len(self.answers).to_bytes(2, "big")
        out += (0).to_bytes(2, "big")  # authority
        out += (0).to_bytes(2, "big")  # additional
        for question in self.questions:
            out += question.encode()
        for answer in self.answers:
            out += answer.encode()
        return bytes(out)

    @classmethod
    def decode(cls, raw: bytes) -> "DnsMessage":
        if len(raw) < 12:
            raise ValueError(f"DNS message too short: {len(raw)} bytes")
        txid = int.from_bytes(raw[0:2], "big")
        flags = int.from_bytes(raw[2:4], "big")
        qdcount = int.from_bytes(raw[4:6], "big")
        ancount = int.from_bytes(raw[6:8], "big")
        offset = 12
        questions: List[DnsQuestion] = []
        for __ in range(qdcount):
            name, offset = decode_name(raw, offset)
            if offset + 4 > len(raw):
                raise ValueError("truncated DNS question")
            qtype = int.from_bytes(raw[offset:offset + 2], "big")
            offset += 4
            questions.append(DnsQuestion(name, qtype))
        answers: List[DnsRecord] = []
        for __ in range(ancount):
            name, offset = decode_name(raw, offset)
            if offset + 10 > len(raw):
                raise ValueError("truncated DNS record header")
            rtype = int.from_bytes(raw[offset:offset + 2], "big")
            ttl = int.from_bytes(raw[offset + 4:offset + 8], "big")
            rdlength = int.from_bytes(raw[offset + 8:offset + 10], "big")
            offset += 10
            end = offset + rdlength
            if end > len(raw):
                raise ValueError("truncated DNS record data")
            target = None
            if rtype == TYPE_A and rdlength != 4:
                raise ValueError(
                    f"A record needs 4 bytes of data, got {rdlength}")
            if rtype in (TYPE_CNAME, TYPE_PTR):
                # Resolved now, against the whole message: the record
                # data may be (or end in) a pointer to an earlier name.
                target, name_end = decode_name(raw, offset)
                if name_end > end:
                    raise ValueError("DNS target name overruns its "
                                     "record data")
            answers.append(DnsRecord(name, rtype, ttl, raw[offset:end],
                                     target))
            offset = end
        return cls(txid, flags, questions, answers)

    def __repr__(self) -> str:
        kind = "response" if self.is_response else "query"
        names = ",".join(q.name for q in self.questions)
        return (f"DnsMessage({kind}, txid={self.txid:#06x}, q=[{names}], "
                f"answers={len(self.answers)})")
