"""Unit + property tests for the DNS wire-format codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import DnsMessage, DnsRecord, Ipv4Address
from repro.net.dns import (FLAG_QR_RESPONSE, TYPE_A, TYPE_CNAME, TYPE_PTR,
                           decode_name, encode_name)

ADDR = Ipv4Address.parse("203.0.113.10")
#: RFC 1035's name-error response code.
RCODE_NXDOMAIN = 3

label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=20).filter(
                    lambda s: not s.startswith("-") and not s.endswith("-"))
hostnames = st.lists(label, min_size=1, max_size=4).map(".".join)


class TestNameEncoding:
    def test_simple_roundtrip(self):
        raw = encode_name("acr-eu-prd.samsungcloud.tv")
        name, offset = decode_name(raw, 0)
        assert name == "acr-eu-prd.samsungcloud.tv"
        assert offset == len(raw)

    def test_root(self):
        assert encode_name("") == b"\x00"
        assert encode_name(".") == b"\x00"

    def test_trailing_dot_stripped(self):
        assert encode_name("a.b.") == encode_name("a.b")

    def test_label_too_long(self):
        with pytest.raises(ValueError):
            encode_name("a" * 64 + ".tv")

    def test_compression_pointer(self):
        # name at offset 0, then a pointer to it at the end
        base = encode_name("alphonso.tv")
        raw = base + b"\xc0\x00"
        name, offset = decode_name(raw, len(base))
        assert name == "alphonso.tv"
        assert offset == len(raw)

    def test_compression_loop_detected(self):
        raw = b"\xc0\x00"
        with pytest.raises(ValueError):
            decode_name(raw, 0)

    def test_truncated_name(self):
        with pytest.raises(ValueError):
            decode_name(b"\x05ab", 0)

    @given(hostnames)
    def test_roundtrip_property(self, name):
        raw = encode_name(name)
        decoded, __ = decode_name(raw, 0)
        assert decoded == name


class TestRecords:
    def test_a_record(self):
        record = DnsRecord.a("eu-acr4.alphonso.tv", ADDR, ttl=60)
        assert record.address == ADDR
        assert record.rtype == TYPE_A

    def test_cname_record(self):
        record = DnsRecord.cname("www.lg.com", "lg.cdn.example")
        assert record.target_name == "lg.cdn.example"
        assert record.rtype == TYPE_CNAME

    def test_ptr_record(self):
        record = DnsRecord.ptr(ADDR.reverse_pointer,
                               "acr-ams-3.alphonso.tv")
        assert record.target_name == "acr-ams-3.alphonso.tv"
        assert record.rtype == TYPE_PTR

    def test_address_on_non_a_raises(self):
        with pytest.raises(ValueError):
            DnsRecord.cname("a.b", "c.d").address

    def test_names_lowercased(self):
        assert DnsRecord.a("ACR0.SamsungCloudSolution.com", ADDR).name == \
            "acr0.samsungcloudsolution.com"


class TestMessages:
    def test_query_roundtrip(self):
        query = DnsMessage.query(0x1234, "log-config.samsungacr.com")
        decoded = DnsMessage.decode(query.encode())
        assert decoded.txid == 0x1234
        assert not decoded.is_response
        assert decoded.questions[0].name == "log-config.samsungacr.com"

    def test_response_roundtrip(self):
        query = DnsMessage.query(7, "eu-acr1.alphonso.tv")
        response = DnsMessage.response(
            query, [DnsRecord.a("eu-acr1.alphonso.tv", ADDR, ttl=120)])
        decoded = DnsMessage.decode(response.encode())
        assert decoded.is_response
        assert decoded.txid == 7
        assert decoded.rcode == 0
        assert decoded.answers[0].address == ADDR
        assert decoded.answers[0].ttl == 120

    def test_nxdomain(self):
        query = DnsMessage.query(9, "no.such.domain")
        response = DnsMessage.response(query, [], rcode=RCODE_NXDOMAIN)
        decoded = DnsMessage.decode(response.encode())
        assert decoded.rcode == RCODE_NXDOMAIN
        assert decoded.answers == []

    def test_multiple_answers(self):
        query = DnsMessage.query(1, "acr0.samsungcloudsolution.com")
        answers = [
            DnsRecord.cname("acr0.samsungcloudsolution.com",
                            "acr-lb.samsungcloudsolution.com"),
            DnsRecord.a("acr-lb.samsungcloudsolution.com", ADDR),
        ]
        decoded = DnsMessage.decode(
            DnsMessage.response(query, answers).encode())
        assert len(decoded.answers) == 2
        assert decoded.answers[0].rtype == TYPE_CNAME
        assert decoded.answers[1].rtype == TYPE_A

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            DnsMessage.decode(b"\x00" * 11)

    def test_flags(self):
        query = DnsMessage.query(1, "x.y")
        assert not query.flags & FLAG_QR_RESPONSE

    @given(hostnames, st.integers(min_value=0, max_value=0xFFFF))
    def test_query_roundtrip_property(self, name, txid):
        decoded = DnsMessage.decode(DnsMessage.query(txid, name).encode())
        assert decoded.questions[0].name == name
        assert decoded.txid == txid



def _response(question: str, *records) -> bytes:
    """A one-question response; answers are ``(owner, rtype, rdata)``
    written verbatim, so they may hold compression pointers."""
    out = bytearray(b"\x00\x07\x81\x80\x00\x01")
    out += len(records).to_bytes(2, "big") + bytes(4)
    out += encode_name(question) + b"\x00\x01\x00\x01"
    for owner, rtype, rdata in records:
        out += (owner + rtype.to_bytes(2, "big") + b"\x00\x01" + bytes(4)
                + len(rdata).to_bytes(2, "big") + rdata)
    return bytes(out)


#: A pointer to the question name, right after the 12-byte header.
QUESTION = b"\xc0\x0c"


class TestRecordDataAtParseTime:
    """Record data is checked when the message is decoded, so a decoded
    message never raises from ``address`` or ``target_name``."""

    @pytest.mark.parametrize("rdata", [b"\xcb\x00", bytes(5)])
    def test_a_record_needs_four_bytes(self, rdata):
        raw = _response("acr.example.com", (QUESTION, TYPE_A, rdata))
        with pytest.raises(ValueError, match="A record needs 4 bytes"):
            DnsMessage.decode(raw)

    @pytest.mark.parametrize("rdata, target", [
        (QUESTION, "tracker.example.net"),
        # "acr1", then a pointer to the question's "example.net".
        (b"\x04acr1\xc0\x14", "acr1.example.net"),
        (encode_name("acr1.example.net"), "acr1.example.net"),
    ])
    def test_targets_resolve_against_the_message(self, rdata, target):
        for rtype in (TYPE_CNAME, TYPE_PTR):
            raw = _response("tracker.example.net", (QUESTION, rtype, rdata))
            record = DnsMessage.decode(raw).answers[0]
            assert record.target_name == target
            assert record.data == rdata

    @pytest.mark.parametrize("rdata", [
        b"\xc0\xff",            # pointer past the end of the message
        b"\x05ab",              # label longer than the data left
        b"\x02\xff\xfe\x00",    # not ASCII
    ])
    def test_undecodable_target_rejected(self, rdata):
        raw = _response("tracker.example.net", (QUESTION, TYPE_CNAME, rdata))
        with pytest.raises(ValueError):
            DnsMessage.decode(raw)

    def test_target_overrunning_its_data_rejected(self):
        # The name's terminating zero lies in the next record (whose
        # owner is the root name), past the declared data.
        raw = _response("tracker.example.net",
                        (QUESTION, TYPE_CNAME, b"\x02ab"),
                        (b"\x00", TYPE_A, ADDR.to_bytes()))
        with pytest.raises(ValueError, match="overruns"):
            DnsMessage.decode(raw)
