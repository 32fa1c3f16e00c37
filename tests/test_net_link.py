"""Tests for the latency/serialization model."""

import pytest

from repro.net import Ipv4Address
from repro.net import link as link_module
from repro.net.link import (LatencyModel, ONE_WAY_MS,
                            SERIALIZATION_NS_PER_BYTE)
from repro.sim import RngRegistry, milliseconds

SERVER = Ipv4Address.parse("203.0.113.10")


class TestLatencyModel:
    def test_unknown_vantage_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel("fr", RngRegistry(1))

    def test_unknown_region_rejected(self):
        model = LatencyModel("uk", RngRegistry(1))
        with pytest.raises(ValueError):
            model.register_server(SERVER, "atlantis")

    def test_unregistered_server_raises(self):
        model = LatencyModel("uk", RngRegistry(1))
        with pytest.raises(KeyError):
            model.one_way_ns(SERVER)

    def test_one_way_close_to_base(self):
        model = LatencyModel("uk", RngRegistry(1))
        model.register_server(SERVER, "amsterdam")
        base = milliseconds(ONE_WAY_MS["uk"]["amsterdam"])
        for __ in range(50):
            value = model.one_way_ns(SERVER)
            assert 0.9 * base <= value <= 1.1 * base

    def test_rtt_is_two_one_ways(self, monkeypatch):
        monkeypatch.setattr(link_module, "JITTER_FRACTION", 0.0)
        model = LatencyModel("uk", RngRegistry(1))
        model.register_server(SERVER, "new_york")
        assert model.rtt_ns(SERVER) == 2 * model.one_way_ns(SERVER)

    def test_transatlantic_longer_than_regional(self):
        model = LatencyModel("uk", RngRegistry(1))
        near = Ipv4Address.parse("203.0.113.1")
        far = Ipv4Address.parse("203.0.113.2")
        model.register_server(near, "london")
        model.register_server(far, "new_york")
        assert model.one_way_ns(far) > 5 * model.one_way_ns(near)

    def test_us_vantage_reverses_distances(self):
        model = LatencyModel("us_west", RngRegistry(1))
        local = Ipv4Address.parse("203.0.113.1")
        remote = Ipv4Address.parse("203.0.113.2")
        model.register_server(local, "us_west")
        model.register_server(remote, "london")
        assert model.one_way_ns(remote) > 10 * model.one_way_ns(local)

    def test_serialization_linear(self):
        model = LatencyModel("uk", RngRegistry(1))
        assert model.serialization_ns(1460) == \
            1460 * SERIALIZATION_NS_PER_BYTE
        assert model.serialization_ns(0) == 0

    def test_wifi_hop_sub_millisecond(self):
        model = LatencyModel("uk", RngRegistry(1))
        for __ in range(20):
            assert 0 < model.wifi_hop_ns() < milliseconds(2)

    def test_region_of(self):
        model = LatencyModel("uk", RngRegistry(1))
        model.register_server(SERVER, "seoul")
        assert model.region_of(SERVER) == "seoul"

    def test_one_way_matrix_complete(self):
        """Every vantage can reach every region the other knows."""
        regions_uk = set(ONE_WAY_MS["uk"])
        regions_us = set(ONE_WAY_MS["us_west"])
        assert regions_uk == regions_us
