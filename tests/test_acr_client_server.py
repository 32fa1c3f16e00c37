"""Tests for the ACR client state machine and backend."""

from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acr import (AcrBackend, AcrClient, AcrTransport, CaptureDecision,
                       FingerprintBatch, ReferenceLibrary, capture_decision,
                       capture_state, profile_for)
from repro.acr.fingerprint import (_FINGERPRINT_CACHE, capture_batch,
                                   clear_fingerprint_cache)
from repro.media import (HdmiInput, HomeScreen, InputSource, OttApp,
                         PlayState, ScreenCast, SourceType, Tuner,
                         build_channel, standard_library, ContentItem,
                         ContentKind)
from repro.obs import disable, enable
from repro.sim import minutes, seconds


@pytest.fixture(scope="module")
def library():
    return standard_library("uk", seed=3)


@pytest.fixture(scope="module")
def reference(library):
    ref = ReferenceLibrary()
    ref.ingest_all(library.reference_items)
    return ref


class RecordingTransport(AcrTransport):
    """Test double that records sends and feeds a backend."""

    def __init__(self, backend=None):
        self.backend = backend
        self.sends = []
        self.batches = []

    def send(self, at_ns, domain, request_bytes, response_bytes,
             request_plaintext=None, response_plaintext=None):
        self.sends.append((at_ns, domain, request_bytes, response_bytes))

    def deliver_batch(self, at_ns, domain, batch):
        self.batches.append((at_ns, domain, batch))
        if self.backend is None:
            return None
        return self.backend.ingest(batch, at_ns)


def _client(vendor, country, source, transport, enabled=True,
            domain="acr.test"):
    profile = profile_for(vendor, country)
    return AcrClient(
        device_id="tv-0001",
        profile=profile,
        enabled_fn=lambda: enabled,
        source_fn=lambda: source,
        transport=transport,
        domain_fn=lambda at: domain,
    )


def _run_ticks(client, count):
    interval = client.profile.batch_interval_ns
    for i in range(1, count + 1):
        client.batch_tick(i * interval)


class TestPolicyTable:
    @pytest.mark.parametrize("vendor", ["lg", "samsung"])
    @pytest.mark.parametrize("country", ["uk", "us"])
    def test_linear_and_hdmi_always_full(self, vendor, country):
        assert capture_decision(vendor, country, SourceType.TUNER) is \
            CaptureDecision.FULL
        assert capture_decision(vendor, country, SourceType.HDMI) is \
            CaptureDecision.FULL

    @pytest.mark.parametrize("vendor", ["lg", "samsung"])
    def test_fast_uk_vs_us(self, vendor):
        assert capture_decision(vendor, "uk", SourceType.FAST) is \
            CaptureDecision.BEACON
        assert capture_decision(vendor, "us", SourceType.FAST) is \
            CaptureDecision.FULL

    def test_ott_never_full(self):
        for vendor in ("lg", "samsung"):
            for country in ("uk", "us"):
                assert capture_decision(vendor, country, SourceType.OTT) \
                    is not CaptureDecision.FULL

    def test_samsung_us_silent_sources(self):
        assert capture_decision("samsung", "us", SourceType.OTT) is \
            CaptureDecision.SILENT
        assert capture_decision("samsung", "us", SourceType.CAST) is \
            CaptureDecision.SILENT

    def test_profiles_cadence(self):
        lg = profile_for("lg", "uk")
        samsung = profile_for("samsung", "uk")
        assert lg.batch_interval_ns == seconds(15)
        assert lg.captures_per_batch == 1500   # 10 ms captures
        assert samsung.batch_interval_ns == seconds(60)
        assert samsung.captures_per_batch == 120  # 500 ms captures

    def test_unknown_profile(self):
        with pytest.raises(KeyError):
            profile_for("philips", "uk")
        with pytest.raises(KeyError):
            profile_for("vizio", "de")  # registered vendor, bad country


class TestClientModes:
    def test_linear_sends_full_batches(self, library):
        channel = build_channel("C1", library)
        transport = RecordingTransport()
        client = _client("lg", "uk", Tuner(channel), transport)
        _run_ticks(client, 4)
        assert client.stats.full_batches == 4
        assert len(transport.sends) == 4
        # Full LG batch: 1500 captures x 12 B plus header.
        assert transport.sends[0][2] >= 1500 * 12

    def test_ott_sends_beacons_only(self, library):
        app = OttApp("netflix", [library.movies[0]])
        transport = RecordingTransport()
        client = _client("lg", "uk", app, transport)
        _run_ticks(client, 4)
        assert client.stats.beacons == 4
        assert client.stats.full_batches == 0
        assert transport.batches == []  # no fingerprints left the TV
        assert transport.sends[0][2] < 2000

    def test_beacon_peaks_every_minute(self, library):
        """LG: every 4th 15 s slot is a larger 'peak' beacon."""
        app = OttApp("netflix", [library.movies[0]])
        transport = RecordingTransport()
        client = _client("lg", "uk", app, transport)
        _run_ticks(client, 8)
        sizes = [send[2] for send in transport.sends]
        assert sizes[3] > sizes[0]
        assert sizes[7] > sizes[4]

    def test_opted_out_total_silence(self, library):
        channel = build_channel("C1", library)
        transport = RecordingTransport()
        client = _client("lg", "uk", Tuner(channel), transport,
                         enabled=False)
        _run_ticks(client, 8)
        assert transport.sends == []
        assert transport.batches == []
        assert client.stats.disabled_slots == 8

    def test_samsung_home_silent(self, library):
        ui = ContentItem("ui:home", "Home", ContentKind.UI, 86400, "news")
        transport = RecordingTransport()
        client = _client("samsung", "uk", HomeScreen(ui), transport)
        _run_ticks(client, 4)
        assert transport.sends == []
        assert client.stats.silent_slots == 4

    def test_cast_beacons_scaled_for_samsung(self, library):
        movie = library.movies[0]
        cast_transport = RecordingTransport()
        cast_client = _client("samsung", "uk", ScreenCast(movie),
                              cast_transport)
        ott_transport = RecordingTransport()
        ott_client = _client("samsung", "uk", OttApp("netflix", [movie]),
                             ott_transport)
        _run_ticks(cast_client, 2)
        _run_ticks(ott_client, 2)
        assert cast_transport.sends[0][2] > ott_transport.sends[0][2]


class ScriptedSource(InputSource):
    """Shows ``script[i]`` at an upload's ``i``-th sample time, and
    nothing after the script: the client's look-ahead also asks about
    the next ticks' sample times."""

    source_type = SourceType.TUNER

    def __init__(self, script, window_start_ns, spread_ns):
        self.script = script
        self.window_start_ns = window_start_ns
        self.spread_ns = spread_ns

    def screen_state(self, at_ns):
        index = (at_ns - self.window_start_ns) // self.spread_ns
        return self.script[index] if index < len(self.script) else None


def _per_sample_batch(client, at_ns, source):
    """The upload as one ``capture_batch`` call per sample (the
    oracle)."""
    profile = client.profile
    window = profile.batch_interval_ns
    spread = window // profile.match_samples_per_batch
    captures = []
    for index in range(profile.match_samples_per_batch):
        t = at_ns - window + index * spread
        if t < 0:
            continue
        state = source.screen_state(t)
        if state is None:
            continue
        captures.append(capture_batch(
            state.item, [state.position_s],
            [index * profile.capture_interval_ns])[0])
    return FingerprintBatch(client.device_id, captures)


UPLOAD_ITEMS = [ContentItem(f"upload:{name}", name, ContentKind.SHOW, 5400,
                            "news") for name in "ABC"]
#: 40.0 and 40.5 share a memo key; 47.9 and 48.0 straddle a scene cut.
UPLOAD_POSITIONS = [40.0, 40.5, 41.0, 47.9, 48.0, 300.0]
upload_samples = st.tuples(st.sampled_from(UPLOAD_ITEMS),
                           st.sampled_from(UPLOAD_POSITIONS))
A, B = UPLOAD_ITEMS[:2]


class TestBatchedUpload:
    """``_sample_batch`` fingerprints each run of same-item samples in
    one call; it must upload, memoize and count exactly as one
    ``capture_state`` per sample."""

    def _upload(self, sample_batch, client, script, warm):
        window = client.profile.batch_interval_ns
        source = ScriptedSource(
            script, 0, window // client.profile.match_samples_per_batch)
        clear_fingerprint_cache()
        for item, position in warm:
            capture_state(PlayState(item, position))
        registry = enable()
        try:
            raw = sample_batch(client, window, source).encode()
            counters = registry.snapshot()["counters"]
        finally:
            disable()
        memo = list(_FINGERPRINT_CACHE.items())
        clear_fingerprint_cache()
        return raw, memo, counters

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["lg", "samsung"]),
           st.lists(st.one_of(st.none(), upload_samples),
                    min_size=8, max_size=8),
           st.lists(upload_samples, max_size=3))
    @example("lg", [(A, p) for p in (40.0, 41.0, 47.9, 48.0, 300.0, 301.0,
                                     302.0, 303.0)], [])
    @example("samsung", [(A, 40.0), (A, 41.0), (B, 40.0), None, (B, 48.0),
                         (A, 47.9), (A, 300.0), (A, 301.0)], [])
    @example("lg", [(A, 40.0), (A, 40.5), (B, 40.0), (A, 40.5),
                    (A, 40.0), None, (B, 40.0), (B, 300.0)], [(B, 300.0)])
    def test_upload_matches_one_capture_per_sample(self, vendor, script,
                                                   warm):
        client = _client(vendor, "uk", None, RecordingTransport())
        states = [sample and PlayState(*sample) for sample in script]
        raw, memo, counters = self._upload(
            AcrClient._sample_batch, client, states, warm)
        oracle_raw, oracle_memo, oracle_counters = self._upload(
            _per_sample_batch, client, states, warm)
        assert raw == oracle_raw
        assert memo == oracle_memo
        for name in ("acr.memo.hit", "acr.memo.miss"):
            assert counters.get(name, 0) == oracle_counters.get(name, 0)
        # One kernel call per run of same-item samples holding a new
        # key, against one per miss.
        known = {(item.visual_seed, int(p), int(p / 8.0))
                 for item, p in warm}
        runs_with_a_miss = 0
        for __, run in groupby(filter(None, script),
                               key=lambda sample: sample[0]):
            keys = {(item.visual_seed, int(p), int(p / 8.0))
                    for item, p in run}
            runs_with_a_miss += bool(keys - known)
            known |= keys
        assert counters.get("acr.memo.miss_batches", 0) == runs_with_a_miss
        assert oracle_counters.get("acr.memo.miss_batches", 0) == \
            oracle_counters.get("acr.memo.miss", 0)


class TestLookAheadUpload:
    """On a linear channel each kernel call also renders what the next
    seven ticks will sample of its item, so a cold run makes at most one
    call per eight ticks plus one per item change, and uploads exactly
    what one ``capture_state`` per sample uploads."""

    TICKS = 32

    @pytest.mark.parametrize("vendor", ["lg", "samsung"])
    def test_uploads_match_oracle_in_few_kernel_calls(self, vendor,
                                                       library):
        tuner = Tuner(build_channel("C1", library))
        transport = RecordingTransport()
        client = _client(vendor, "uk", tuner, transport)
        clear_fingerprint_cache()
        registry = enable()
        try:
            _run_ticks(client, self.TICKS)
            counters = registry.snapshot()["counters"]
        finally:
            disable()
        memo = list(_FINGERPRINT_CACHE.items())
        clear_fingerprint_cache()
        registry = enable()
        try:
            oracle = [_per_sample_batch(client, at_ns, tuner).encode()
                      for at_ns, __, ___ in transport.batches]
            oracle_counters = registry.snapshot()["counters"]
        finally:
            disable()
        oracle_memo = list(_FINGERPRINT_CACHE.items())
        clear_fingerprint_cache()
        assert len(oracle) == self.TICKS
        assert [batch.encode() for __, ___, batch in transport.batches] \
            == oracle
        assert memo == oracle_memo
        for name in ("acr.memo.hit", "acr.memo.miss"):
            assert counters.get(name, 0) == oracle_counters.get(name, 0)
        window = client.profile.batch_interval_ns
        spread = window // client.profile.match_samples_per_batch
        items = [tuner.screen_state(t).item
                 for t in range(0, self.TICKS * window, spread)]
        changes = sum(a is not b for a, b in zip(items, items[1:]))
        assert counters["acr.kernel.calls"] <= self.TICKS // 8 + changes


class TestBackoff:
    def test_samsung_backs_off_on_unrecognised_hdmi(self, library,
                                                    reference):
        backend = AcrBackend("samsung-ads", reference)
        transport = RecordingTransport(backend)
        hdmi = HdmiInput([library.game()], dwell_s=10000)
        client = _client("samsung", "uk", hdmi, transport)
        _run_ticks(client, 8)
        assert client.stats.skipped_backoff > 0
        assert client.stats.full_batches < 8

    def test_lg_does_not_back_off(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        transport = RecordingTransport(backend)
        hdmi = HdmiInput([library.game()], dwell_s=10000)
        client = _client("lg", "uk", hdmi, transport)
        _run_ticks(client, 8)
        assert client.stats.skipped_backoff == 0
        assert client.stats.full_batches == 8

    def test_recognised_content_no_backoff(self, library, reference):
        backend = AcrBackend("samsung-ads", reference)
        transport = RecordingTransport(backend)
        channel = build_channel("C1", library)
        client = _client("samsung", "uk", Tuner(channel), transport)
        _run_ticks(client, 6)
        assert client.stats.skipped_backoff == 0
        assert client.stats.recognised > 0


class TestBackend:
    def test_viewing_events_accumulate(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        transport = RecordingTransport(backend)
        channel = build_channel("C1", library)
        client = _client("lg", "uk", Tuner(channel), transport)
        _run_ticks(client, 8)
        sessions = backend.sessions_for("tv-0001")
        assert sum(session.events for session in sessions) >= 6
        assert backend.recognition_rate > 0.7

    def test_sessions_merge_contiguous_content(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        item = library.shows[0]
        for i in range(5):
            captures = [capture_state(PlayState(item, 30.0 + 15 * i + j))
                        for j in range(6)]
            backend.ingest(FingerprintBatch("tv-x", captures),
                           seconds(15) * i)
        sessions = backend.sessions_for("tv-x")
        assert len(sessions) == 1
        assert sessions[0].events == 5

    def test_session_gap_splits(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        item = library.shows[0]
        captures = [capture_state(PlayState(item, 30.0 + j))
                    for j in range(6)]
        backend.ingest(FingerprintBatch("tv-x", captures), 0)
        backend.ingest(FingerprintBatch("tv-x", captures), minutes(10))
        assert len(backend.sessions_for("tv-x")) == 2

    def test_ingest_raw_roundtrip(self, library, reference):
        backend = AcrBackend("alphonso", reference)
        item = library.shows[3]
        captures = [capture_state(PlayState(item, 40.0 + j))
                    for j in range(6)]
        raw = FingerprintBatch("tv-y", captures).encode()
        verdict = backend.ingest_raw(raw, 0)
        assert verdict.recognised
        assert verdict.content_id == item.content_id

