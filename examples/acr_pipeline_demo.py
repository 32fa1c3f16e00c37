#!/usr/bin/env python3
"""Inside the black box: the ACR pipeline end to end (paper Figure 1).

The paper audits ACR from outside; this reproduction also implements the
system itself.  This example walks the loop on one device:

  captured frames -> content fingerprint -> ACR server match

and demonstrates the "dumb display" privacy problem: a console game over
HDMI still gets fingerprinted and uploaded, even though the operator
cannot match it.

Usage::

    python examples/acr_pipeline_demo.py
"""

from repro.acr import (AcrBackend, FingerprintBatch, ReferenceLibrary,
                       capture_state, hamming_distance, video_fingerprint)
from repro.media import PlayState, render_frame, standard_library
from repro.sim import seconds


def main() -> None:
    library = standard_library("uk", seed=3)
    show = library.shows[0]

    print("=== 1. Frames to fingerprints ===")
    state = PlayState(show, 100.0)
    frame = render_frame(state)
    print(f"content: {show.title!r} at t=100s, frame {frame.shape}")
    fingerprint = video_fingerprint(frame)
    print(f"64-bit dHash: {fingerprint:#018x}")
    drifted = video_fingerprint(render_frame(PlayState(show, 101.0)))
    other = video_fingerprint(render_frame(PlayState(library.shows[1],
                                                     100.0)))
    print(f"hamming to next second of same scene: "
          f"{hamming_distance(fingerprint, drifted)} bits")
    print(f"hamming to different content:         "
          f"{hamming_distance(fingerprint, other)} bits")

    print("\n=== 2. The operator's reference library ===")
    reference = ReferenceLibrary()
    reference.ingest_all(library.shows)
    reference.ingest_all(library.ads)
    print(f"{reference.content_count} items, "
          f"{len(reference)} reference samples")

    print("\n=== 3. Matching uploaded batches ===")
    backend = AcrBackend("alphonso", reference)
    for minute in range(5):
        captures = [capture_state(
            PlayState(show, 100.0 + 15 * minute + i)) for i in range(8)]
        batch = FingerprintBatch("demo-tv", captures)
        verdict = backend.ingest_raw(batch.encode(), seconds(15 * minute))
        print(f"  batch {minute}: {batch.encoded_size}B on the wire -> "
              f"{verdict.content_id or '<no match>'} "
              f"({verdict.confidence:.0%} confidence)")

    print("\n=== 4. The 'dumb display' problem ===")
    game = library.game()
    captures = [capture_state(PlayState(game, float(i))) for i in range(8)]
    verdict = backend.ingest(FingerprintBatch("demo-tv", captures),
                             seconds(600))
    print(f"  console game over HDMI: fingerprints still uploaded "
          f"({FingerprintBatch('demo-tv', captures).encoded_size}B), "
          f"match={verdict.content_id or '<no match>'}")
    print("  (the TV tracked a 'dumb display' input — the paper's most")
    print("   privacy-sensitive finding)")


if __name__ == "__main__":
    main()
