"""Unit + property tests for MAC/IPv4 address types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import Ipv4Address, Ipv4Network, MacAddress, mac_from_seed


class TestMacAddress:
    def test_parse_and_str(self):
        mac = MacAddress.parse("aa:bb:cc:dd:ee:ff")
        assert str(mac) == "aa:bb:cc:dd:ee:ff"

    def test_parse_dash_separator(self):
        assert MacAddress.parse("aa-bb-cc-dd-ee-ff").value == \
            MacAddress.parse("aa:bb:cc:dd:ee:ff").value

    def test_parse_invalid(self):
        for bad in ("aa:bb:cc:dd:ee", "zz:bb:cc:dd:ee:ff", "nonsense", ""):
            with pytest.raises(ValueError):
                MacAddress.parse(bad)

    def test_bytes_roundtrip(self):
        mac = MacAddress.parse("02:00:5e:10:00:01")
        assert MacAddress.from_bytes(mac.to_bytes()) == mac

    def test_wrong_byte_count(self):
        with pytest.raises(ValueError):
            MacAddress.from_bytes(b"\x00" * 5)

    def test_mac_from_seed_is_unicast(self):
        for seed in range(50):
            assert not (mac_from_seed(seed).value >> 40) & 0x01

    def test_mac_from_seed_is_locally_administered(self):
        for seed in range(50):
            assert (mac_from_seed(seed).value >> 41) & 0x01

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            MacAddress(1 << 48)

    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_roundtrip_property(self, value):
        mac = MacAddress(value)
        assert MacAddress.parse(str(mac)).value == value


class TestIpv4Address:
    def test_parse_and_str(self):
        assert str(Ipv4Address.parse("192.168.1.50")) == "192.168.1.50"

    def test_parse_invalid(self):
        for bad in ("1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d",
                    "01.2.3.4", ""):
            with pytest.raises(ValueError):
                Ipv4Address.parse(bad)

    def test_bytes_roundtrip(self):
        addr = Ipv4Address.parse("203.0.113.99")
        assert Ipv4Address.from_bytes(addr.to_bytes()) == addr

    def test_private_ranges(self):
        assert Ipv4Address.parse("10.0.0.1").is_private
        assert Ipv4Address.parse("192.168.255.1").is_private
        assert Ipv4Address.parse("172.16.0.1").is_private
        assert Ipv4Address.parse("172.31.255.255").is_private
        assert not Ipv4Address.parse("172.32.0.1").is_private
        assert not Ipv4Address.parse("8.8.8.8").is_private

    def test_reverse_pointer(self):
        addr = Ipv4Address.parse("203.0.113.7")
        assert addr.reverse_pointer == "7.113.0.203.in-addr.arpa"

    def test_addition(self):
        assert Ipv4Address.parse("10.0.0.1") + 5 == \
            Ipv4Address.parse("10.0.0.6")

    def test_ordering(self):
        assert Ipv4Address.parse("10.0.0.1") < Ipv4Address.parse("10.0.0.2")

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip_property(self, value):
        addr = Ipv4Address(value)
        assert Ipv4Address.parse(str(addr)).value == value


class TestIpv4Network:
    def test_parse_and_contains(self):
        net = Ipv4Network.parse("203.0.113.0/24")
        assert Ipv4Address.parse("203.0.113.200") in net
        assert Ipv4Address.parse("203.0.114.1") not in net

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            Ipv4Network.parse("203.0.113.1/24")

    def test_missing_prefix_rejected(self):
        with pytest.raises(ValueError):
            Ipv4Network.parse("203.0.113.0")

    def test_num_addresses(self):
        assert Ipv4Network.parse("10.0.0.0/30").num_addresses == 4
        assert Ipv4Network.parse("0.0.0.0/0").num_addresses == 1 << 32

    def test_host_indexing(self):
        net = Ipv4Network.parse("10.1.2.0/24")
        assert net.host(10) == Ipv4Address.parse("10.1.2.10")
        with pytest.raises(ValueError):
            net.host(256)

