"""The ACR core itself: matcher accuracy and throughput, with the
Hamming-tolerance ablation called out in DESIGN.md (D3), the cost of
fingerprinting the reference library the matcher searches (frames at
ingest, audio landmarks on first read), its resident size, and the cost
of its band index and the backends built over it."""

import pytest
from bench_net_hotpath import best_of

from repro.acr import (FingerprintMatcher, ReferenceLibrary, capture_state)
from repro.acr import matcher as matcher_module
from repro.acr.fingerprint import clear_fingerprint_cache
from repro.acr.library import (BANDS, DEFAULT_SAMPLE_INTERVAL_S,
                               MAX_REFERENCE_SECONDS, index_bands)
from repro.media import PlayState
from repro.testbed import fresh_backend, media_library, reference_library

#: Batched ingest vs one ``capture_state`` per sample: measured 6.5x to
#: 11.7x (three runs) on these 8 shows on a 2-core container, since each
#: render call seeds all its streams in one pass; 2x leaves headroom for
#: noise.
REFERENCE_BUILD_SPEEDUP_FLOOR = 2.0

#: One country's columns plus band index measure about 3 MB.
LIBRARY_RESIDENT_BYTES_CEILING = 8_000_000


@pytest.fixture(scope="module")
def reference():
    return reference_library("uk", 0)


@pytest.fixture(scope="module")
def library():
    return media_library("uk", 0)


@pytest.fixture(scope="module")
def probe_captures(library):
    captures = []
    for item in library.shows[:12]:
        for position in (11.0, 63.0, 131.0, 299.0):
            captures.append((item.content_id,
                             capture_state(PlayState(item, position))))
    return captures


def test_match_throughput(benchmark, reference, probe_captures):
    matcher = FingerprintMatcher(reference)

    def match_all():
        reference.match_memo.clear()  # time the search, not the memo
        hits = 0
        for content_id, capture in probe_captures:
            match = matcher.match_capture(capture)
            if match is not None and match.content_id == content_id:
                hits += 1
        return hits

    hits = benchmark(match_all)
    accuracy = hits / len(probe_captures)
    print(f"\nmatcher accuracy over {len(probe_captures)} probes: "
          f"{accuracy:.0%} ({len(reference)} reference samples)")
    assert accuracy > 0.9


@pytest.mark.parametrize("tolerance", [0, 1, 3, 6])
def test_tolerance_ablation(benchmark, reference, probe_captures,
                            tolerance, monkeypatch):
    """D3 ablation: accuracy/cost as the Hamming radius varies."""
    monkeypatch.setattr(matcher_module, "DEFAULT_HAMMING_TOLERANCE",
                        tolerance)
    matcher = FingerprintMatcher(reference)

    def match_all():
        reference.match_memo.clear()  # time the search, not the memo
        return sum(
            1 for content_id, capture in probe_captures
            if (match := matcher.match_capture(capture)) is not None
            and match.content_id == content_id)

    hits = benchmark(match_all)
    # The memo does not key on the tolerance: leave none of these
    # verdicts in the shared library.
    reference.match_memo.clear()
    print(f"\ntolerance={tolerance}: accuracy "
          f"{hits / len(probe_captures):.0%}")
    if tolerance >= 3:
        assert hits / len(probe_captures) > 0.9


def test_index_build(benchmark, reference):
    """Cost of building the library's LSH band index over the uk
    samples' video-hash column (done once per library, in
    ``assets.reference_library``)."""
    order, offsets = benchmark(index_bands, reference.columns().video_hash)
    assert order.shape == (BANDS, len(reference))
    assert len(reference) > 10_000
    print(f"\nband index: {len(reference)} samples, "
          f"{(order.nbytes + offsets.nbytes) / 1e6:.2f} MB")


def test_library_resident_bytes(reference):
    """The uk library's numpy footprint: its three sample columns, its
    landmark store and its band index (about 3 MB; the per-entry
    objects it replaced took about 25 MB of Python allocations per
    country).  The store is counted whole, filled or not: it is
    allocated for every row when the columns join."""
    arrays = [*reference.columns(), reference._landmarks,
              *reference.band_index()]
    resident = sum(array.nbytes for array in arrays)
    print(f"\nreference library: {len(reference)} samples, "
          f"{resident / 1e6:.2f} MB resident "
          f"(columns + landmark store + band index)")
    assert resident < LIBRARY_RESIDENT_BYTES_CEILING


def test_backend_setup(benchmark, reference):
    """An operator backend over the warm library: the band index is the
    library's, so this builds nothing."""
    backend = benchmark(fresh_backend, "lg", "uk")
    assert backend.library is reference


@pytest.mark.wallclock
def test_reference_build(library):
    """Fingerprinting 8 shows from an empty memo: the per-item batched
    ingest, with every row's landmarks then read (so filled) through
    ``ReferenceLibrary.landmarks``, against one single-position
    ``capture_state`` call per sample."""
    shows = library.shows[:8]

    def batched():
        clear_fingerprint_cache()
        reference = ReferenceLibrary()
        samples = reference.ingest_all(shows)
        for row in range(samples):
            reference.landmarks(row)
        return samples

    def per_sample():
        clear_fingerprint_cache()
        for item in shows:
            for position in range(0, min(item.duration_s,
                                         MAX_REFERENCE_SECONDS),
                                  DEFAULT_SAMPLE_INTERVAL_S):
                capture_state(PlayState(item, position))

    samples = batched()
    batched_s = best_of(batched, repeats=3)
    per_sample_s = best_of(per_sample, repeats=3)
    clear_fingerprint_cache()
    speedup = per_sample_s / batched_s
    print(f"\nreference build, {samples} samples: per-sample "
          f"{per_sample_s * 1e3:.0f} ms, batched {batched_s * 1e3:.0f} ms "
          f"({speedup:.1f}x)")
    assert speedup >= REFERENCE_BUILD_SPEEDUP_FLOOR, \
        f"batched reference build only {speedup:.1f}x faster"
