"""Tests for the MITM substrate: CA/pinning, proxy, payload inspection,
and the end-to-end payload audit."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mitm import (KIND_ACR_BATCH, KIND_JSON_LOG, KIND_KEEPALIVE,
                        KIND_UNKNOWN, MitmProxy, OPERATOR_CA, PINNED_DOMAINS,
                        PayloadInspector, PlaintextRecord, TESTBED_CA,
                        TrustStore, inspect_record, shannon_entropy)
from repro.acr import FingerprintBatch, capture_state
from repro.acr.fingerprint import capture_batch
from repro.acr import client as client_module
from repro.media import PlayState
from repro.sim import minutes
from repro.testbed import (Country, ExperimentSpec, Phase, Scenario, Vendor,
                           run_experiment)


@pytest.fixture(scope="module")
def library():
    from repro.testbed import media_library
    return media_library("uk", 0)


def _trusting_store(vendor="lg"):
    store = TrustStore(vendor)
    store.install_root(TESTBED_CA)
    return store


class TestTrustStore:
    def test_operator_cert_accepted_by_default(self):
        store = TrustStore("lg")
        cert = OPERATOR_CA.issue("eu-acr1.alphonso.tv")
        assert store.accepts(cert, "eu-acr1.alphonso.tv")

    def test_forged_cert_rejected_without_installed_ca(self):
        store = TrustStore("lg")
        forged = TESTBED_CA.issue("eu-acr1.alphonso.tv")
        assert not store.accepts(forged, "eu-acr1.alphonso.tv")

    def test_forged_cert_accepted_after_ca_install(self):
        store = _trusting_store()
        forged = TESTBED_CA.issue("eu-acr1.alphonso.tv")
        assert store.accepts(forged, "eu-acr1.alphonso.tv")

    def test_pinned_domain_rejects_forged_even_with_ca(self):
        store = _trusting_store("samsung")
        forged = TESTBED_CA.issue("acr-eu-prd.samsungcloud.tv")
        assert not store.accepts(forged, "acr-eu-prd.samsungcloud.tv")
        # ...but accepts the genuine operator leaf.
        genuine = OPERATOR_CA.issue("acr-eu-prd.samsungcloud.tv")
        assert store.accepts(genuine, "acr-eu-prd.samsungcloud.tv")

    def test_subject_mismatch_rejected(self):
        store = _trusting_store()
        cert = TESTBED_CA.issue("other.example")
        assert not store.accepts(cert, "eu-acr1.alphonso.tv")

    def test_vendor_pin_sets(self):
        assert "acr-eu-prd.samsungcloud.tv" in PINNED_DOMAINS["samsung"]
        assert not PINNED_DOMAINS["lg"]


class TestProxy:
    def test_intercepts_unpinned(self):
        proxy = MitmProxy(_trusting_store("lg"))
        decrypted = proxy.observe(0, "eu-acr1.alphonso.tv",
                                  b"request", b"response")
        assert decrypted
        assert len(proxy.records) == 2
        assert proxy.intercepted_domains == ["eu-acr1.alphonso.tv"]

    def test_passthrough_for_pinned(self):
        proxy = MitmProxy(_trusting_store("samsung"))
        decrypted = proxy.observe(0, "acr-eu-prd.samsungcloud.tv",
                                  b"secret", None)
        assert not decrypted
        assert proxy.records == []
        assert proxy.opaque_domains == ["acr-eu-prd.samsungcloud.tv"]

    def test_none_plaintext_not_recorded(self):
        proxy = MitmProxy(_trusting_store("lg"))
        proxy.observe(0, "a.acr.example", b"x", None)
        assert len(proxy.records) == 1

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            PlaintextRecord(0, "x", "sideways", b"")


class TestInspection:
    def test_classifies_acr_batch(self, library):
        captures = capture_batch(library.shows[0],
                                 [10.0 + i for i in range(5)],
                                 [i * 10_000_000 for i in range(5)])
        raw = FingerprintBatch("lg-0000-dev", captures).encode()
        message = inspect_record(PlaintextRecord(0, "acr.example",
                                                 "request", raw))
        assert message.kind == KIND_ACR_BATCH
        assert message.batch is not None and len(message.batch) == 5

    def test_classifies_json(self):
        raw = json.dumps({
            "device": "lg-6c438a63-2963-4aab-91e0-f87be476b447",
        }).encode()
        message = inspect_record(PlaintextRecord(0, "x", "request", raw))
        assert message.kind == KIND_JSON_LOG
        assert message.identifiers == [
            "6c438a63-2963-4aab-91e0-f87be476b447"]

    def test_truncated_acr_batch_is_opaque(self, library):
        captures = [capture_state(PlayState(library.shows[0], 10.0))]
        raw = FingerprintBatch("lg-0000-dev", captures).encode()
        message = inspect_record(PlaintextRecord(0, "x", "request",
                                                 raw[:-3]))
        assert message.kind == KIND_UNKNOWN
        assert message.batch is None

    def test_non_ascii_json_is_still_json(self):
        raw = json.dumps({
            "device": "café",
            "ad_id": "6C438A63-2963-4AAB-91E0-F87BE476B447",
        }, ensure_ascii=False).encode()
        message = inspect_record(PlaintextRecord(0, "x", "request", raw))
        assert message.kind == KIND_JSON_LOG
        assert message.json_body["device"] == "café"
        assert message.identifiers == [
            "6c438a63-2963-4aab-91e0-f87be476b447"]

    def test_deeply_nested_json_is_opaque(self):
        depth = 100_000
        raw = ('{"a":' * depth + '1' + '}' * depth).encode()
        message = inspect_record(PlaintextRecord(0, "x", "request", raw))
        assert message.kind == KIND_UNKNOWN
        assert message.json_body is None

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_after_batch_magic_never_raise(self, tail):
        raw = FingerprintBatch.MAGIC + tail
        message = inspect_record(PlaintextRecord(0, "x", "request", raw))
        assert message.kind in (KIND_ACR_BATCH, KIND_UNKNOWN)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_text_after_brace_never_raises(self, tail):
        raw = ("{" + tail).encode()
        message = inspect_record(PlaintextRecord(0, "x", "request", raw))
        assert message.kind in (KIND_JSON_LOG, KIND_UNKNOWN)

    def test_classifies_keepalive(self):
        message = inspect_record(PlaintextRecord(0, "x", "request",
                                                 b"ping"))
        assert message.kind == KIND_KEEPALIVE

    def test_entropy_bounds(self):
        assert shannon_entropy(b"") == 0.0
        assert shannon_entropy(b"aaaa") == 0.0
        assert shannon_entropy(bytes(range(256))) == pytest.approx(8.0)

    def test_inspector_aggregates(self, library):
        proxy = MitmProxy(_trusting_store("lg"))
        captures = capture_batch(library.shows[0],
                                 [10.0 + i for i in range(5)],
                                 [i * 10_000_000 for i in range(5)])
        proxy.observe(0, "eu-acr1.alphonso.tv",
                      FingerprintBatch("tv", captures).encode(),
                      b'{"ack":true}')
        reports = PayloadInspector(proxy).inspect_all()
        report = reports["eu-acr1.alphonso.tv"]
        assert report.carries_fingerprints
        assert report.total_captures == 5
        assert report.capture_cadence_ms == pytest.approx(10.0)


class TestEndToEndAudit:
    def test_lg_fully_visible(self):
        from repro.experiments.mitm_audit import run_mitm_audit
        from repro.testbed import Vendor
        audit = run_mitm_audit(Vendor.LG)
        assert audit.fingerprint_domains  # batches decoded
        assert audit.fingerprint_domains[0].startswith("eu-acr")
        assert not audit.opaque_domains
        assert audit.advertising_id_observed
        # Payload-level confirmation of LG's 10 ms capture claim.
        assert audit.capture_cadence_ms == pytest.approx(10.0)

    def test_samsung_fingerprint_channel_pinned(self):
        from repro.experiments.mitm_audit import run_mitm_audit
        from repro.testbed import Vendor
        audit = run_mitm_audit(Vendor.SAMSUNG)
        assert audit.opaque_domains == ["acr-eu-prd.samsungcloud.tv"]
        assert not audit.fingerprint_domains  # uploads stay opaque
        assert audit.advertising_id_observed  # telemetry leaks the adid
        telemetry = audit.reports["log-ingestion-eu.samsungacr.com"]
        assert telemetry.kinds.get("json-telemetry", 0) > 50


class TestPaddedJson:
    """MITM plaintexts are padded to exactly the modelled wire size."""

    BODIES = [
        {"ack": True},
        {"status": "ok"},
        {"type": "acr-status", "device": "a3f09c2e-77d1-4b6a",
         "source": "tuner", "slot": 41},
    ]

    @pytest.mark.parametrize("body", BODIES)
    def test_exact_size_whenever_a_pad_fits(self, body):
        raw = json.dumps(body, separators=(",", ":")).encode("utf-8")
        for target in range(len(raw) - 3, len(raw) + 400):
            out = client_module._padded_json(body, target)
            gap = target - len(raw)
            if gap < len(',"pad":""'):
                assert out == raw
                continue
            assert len(out) == target
            parsed = json.loads(out)
            assert parsed.pop("pad") == "x" * (gap - len(',"pad":""'))
            assert parsed == body


class TestPlaintextOnlyWhenObserved:
    """The ACR client builds an upload's plaintexts only for a transport
    that reads them, which a TV does only with a MITM proxy set."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """``encode`` calls (batch sizes) and padded-JSON builds (target
        sizes) from here on."""
        calls = {"encode": [], "json": []}
        encode, padded_json = FingerprintBatch.encode, \
            client_module._padded_json

        def counting_encode(batch):
            calls["encode"].append(len(batch))
            return encode(batch)

        def counting_json(body, target_size):
            calls["json"].append(target_size)
            return padded_json(body, target_size)

        monkeypatch.setattr(FingerprintBatch, "encode", counting_encode)
        monkeypatch.setattr(client_module, "_padded_json", counting_json)
        return calls

    @staticmethod
    def spec(scenario):
        return ExperimentSpec(Vendor.LG, Country.UK, scenario,
                              Phase.LIN_OIN, minutes(6))

    @pytest.mark.parametrize("scenario", [Scenario.LINEAR, Scenario.FAST])
    def test_upload_without_proxy_builds_nothing(self, builds, scenario):
        stats = run_experiment(self.spec(scenario), seed=3).acr_stats
        assert stats.full_batches + stats.beacons > 0
        assert builds == {"encode": [], "json": []}

    def test_proxy_sees_every_upload(self, builds):
        result = run_experiment(self.spec(Scenario.LINEAR), seed=3,
                                mitm=True)
        batches = result.acr_stats.full_batches
        assert batches > 0
        assert len(builds["encode"]) == batches
        uploads = [record for record in result.mitm_proxy.records
                   if inspect_record(record).kind == KIND_ACR_BATCH]
        assert len(uploads) == batches
