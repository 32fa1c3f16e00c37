"""The on-TV ACR client: capture -> fingerprint -> batch -> transmit.

The client is vendor-agnostic; everything vendor-specific comes from its
:class:`~repro.acr.policy.VendorAcrProfile` and the policy decision table.
It is wired to the device via three callables so it can be tested in
isolation:

* ``enabled_fn()`` — the privacy-settings gate (§4.2: opt-out must silence
  the client completely);
* ``source_fn()`` — the active input source;
* ``transport`` — ships bytes (observable on the wire) and delivers the
  decoded batch to the operator backend (the out-of-band "server side" a
  black-box audit cannot see, but our reproduction can).
"""

from __future__ import annotations

import json
from itertools import groupby
from typing import Callable, Iterator, List, Optional

from ..media.content import ContentItem, PlayState
from ..media.sources import InputSource
from .fingerprint import Capture, FingerprintBatch, capture_batch
from .library import INGEST_CHUNK
from .matcher import BatchVerdict
from .policy import (CaptureDecision, TRIGGER_CONTENT_CHANGE,
                     VendorAcrProfile, capture_decision)


def _padded_json(body: dict, target_size: int) -> bytes:
    """Encode ``body`` as JSON padded out to exactly ``target_size``
    bytes (real clients pad/extend status payloads with context fields).
    With less room than an empty ``,"pad":""`` field takes, ``body``
    comes back unpadded."""
    raw = json.dumps(body, separators=(",", ":")).encode("utf-8")
    padding = target_size - len(raw) - len(',"pad":""')
    if padding < 0:
        return raw
    padded = dict(body)
    padded["pad"] = "x" * padding
    return json.dumps(padded, separators=(",", ":")).encode("utf-8")


class AcrTransport:
    """What the client needs from the device's network plumbing."""

    @property
    def observes_plaintext(self) -> bool:
        """Whether :meth:`send` reads its plaintexts.  The client builds
        them only when it does; a transport without a plaintext
        observer (a MITM proxy) says so here."""
        return True

    def send(self, at_ns: int, domain: str, request_bytes: int,
             response_bytes: int,
             request_plaintext: Optional[bytes] = None,
             response_plaintext: Optional[bytes] = None) -> None:
        """Ship a request/response exchange to ``domain``.

        ``request_bytes``/``response_bytes`` size the ciphertext on the
        wire; the optional plaintexts are what a TLS-terminating MITM
        proxy would recover (ignored by transports without one).
        """
        raise NotImplementedError

    def deliver_batch(self, at_ns: int, domain: str,
                      batch: FingerprintBatch) -> Optional[BatchVerdict]:
        """Hand the decoded batch to the operator backend, if any."""
        raise NotImplementedError

    def keepalive_probe(self, at_ns: int, domain: str) -> None:
        """A bare TCP keep-alive on the session to ``domain``.

        Default maps to a zero-byte send; network-backed transports emit
        actual empty ACK segments.
        """
        self.send(at_ns, domain, 0, 0)


class AcrClientStats:
    """Counters for tests and reporting."""

    __slots__ = ("full_batches", "beacons", "silent_slots",
                 "skipped_backoff", "disabled_slots", "recognised",
                 "unrecognised", "burst_uploads", "content_gated_slots",
                 "downsampled_batches")

    def __init__(self) -> None:
        self.full_batches = 0
        self.beacons = 0
        self.silent_slots = 0
        self.skipped_backoff = 0
        self.disabled_slots = 0
        self.recognised = 0
        self.unrecognised = 0
        # Content-change-triggered vendors (Roku-style) only:
        self.burst_uploads = 0         # batches shipped as boundary bursts
        self.content_gated_slots = 0   # ticks skipped: content unchanged
        self.downsampled_batches = 0   # opted-out reduced-rate uploads

    def __repr__(self) -> str:
        return (f"AcrClientStats(full={self.full_batches}, "
                f"beacons={self.beacons}, silent={self.silent_slots}, "
                f"backoff={self.skipped_backoff}, "
                f"disabled={self.disabled_slots}, "
                f"bursts={self.burst_uploads}, "
                f"gated={self.content_gated_slots}, "
                f"downsampled={self.downsampled_batches})")


class AcrClient:
    """One vendor's ACR client running on one TV."""

    def __init__(self, device_id: str, profile: VendorAcrProfile,
                 enabled_fn: Callable[[], bool],
                 source_fn: Callable[[], InputSource],
                 transport: AcrTransport,
                 domain_fn: Callable[[int], str]) -> None:
        self.device_id = device_id
        self.profile = profile
        self._enabled_fn = enabled_fn
        self._source_fn = source_fn
        self._transport = transport
        self._domain_fn = domain_fn
        self.stats = AcrClientStats()
        self._slot = 0
        self._last_recognised = True
        self._last_content_id: Optional[str] = None
        self._static_slots = 0

    # -- periodic entry point ------------------------------------------------

    def batch_tick(self, at_ns: int) -> None:
        """Called by the device every ``profile.batch_interval_ns``."""
        self._slot += 1
        if not self._enabled_fn():
            # Opted out: complete silence on every ACR channel (§4.2) —
            # unless the vendor's profile declares downsample-on-opt-out
            # semantics, in which case every Nth tick still uploads a
            # single (never burst) batch.
            every = self.profile.optout_downsample_every
            if not every or self._slot % every:
                self.stats.disabled_slots += 1
                return
            downsampled = True
        else:
            downsampled = False
        source = self._source_fn()
        decision = capture_decision(self.profile.vendor,
                                    self.profile.country,
                                    source.source_type)
        if decision is CaptureDecision.SILENT or \
                (downsampled and decision is not CaptureDecision.FULL):
            self.stats.silent_slots += 1
            return
        if decision is CaptureDecision.BEACON:
            self._send_beacon(at_ns, source)
            return
        self._send_full_batch(at_ns, source, downsampled)

    # -- modes -------------------------------------------------------------

    def _send_beacon(self, at_ns: int, source: InputSource) -> None:
        request, response = self.profile.beacon_payload_bytes(
            self._slot, source.source_type)
        domain = self._domain_fn(at_ns)
        if request == 0 and response == 0:
            self._transport.keepalive_probe(at_ns, domain)
        else:
            plaintexts = ((self._beacon_plaintext(request, source),
                           _padded_json({"status": "ok"}, response))
                          if self._transport.observes_plaintext
                          else (None, None))
            self._transport.send(at_ns, domain, request, response,
                                 *plaintexts)
        self.stats.beacons += 1

    def _beacon_plaintext(self, size: int, source: InputSource) -> bytes:
        """What the beacon actually carries: device identity + context."""
        return _padded_json({
            "type": "acr-status",
            "device": self.device_id,
            "source": source.source_type.value,
            "slot": self._slot,
        }, size)

    def _send_full_batch(self, at_ns: int, source: InputSource,
                         downsampled: bool = False) -> None:
        if (not downsampled and self.profile.backoff_when_unrecognised
                and not self._last_recognised and self._slot % 2 == 0):
            # Unrecognised content (e.g. a game over HDMI): halve the
            # upload rate until something matches again.
            self.stats.skipped_backoff += 1
            return
        burst = 1
        if (self.profile.upload_trigger == TRIGGER_CONTENT_CHANGE
                and not downsampled):
            burst = self._content_gate(at_ns, source)
            if burst == 0:
                return
        batch = self._sample_batch(at_ns, source)
        domain = self._domain_fn(at_ns)
        request = self.profile.batch_payload_bytes(
            self.stats.full_batches + 1, source.source_type)
        if burst > 1:
            # A boundary burst: the wire carries several batches' worth
            # of fingerprints back to back in one flush.
            request *= burst
            self.stats.burst_uploads += 1
        response = self.profile.batch_response_bytes
        plaintexts = ((batch.encode(), _padded_json({"ack": True}, response))
                      if self._transport.observes_plaintext
                      else (None, None))
        self._transport.send(at_ns, domain, request, response, *plaintexts)
        verdict = self._transport.deliver_batch(at_ns, domain, batch)
        if verdict is not None:
            self._last_recognised = verdict.recognised
            if verdict.recognised:
                self.stats.recognised += 1
            else:
                self.stats.unrecognised += 1
        self.stats.full_batches += 1
        if downsampled:
            self.stats.downsampled_batches += 1

    def _content_gate(self, at_ns: int, source: InputSource) -> int:
        """How many batches a content-change-triggered tick ships.

        0 = gated (content unchanged, no background refresh due);
        1 = background refresh; ``profile.burst_batches`` = boundary
        burst because the on-screen content just changed.
        """
        state = source.screen_state(at_ns)
        content_id = state.item.content_id if state is not None else None
        changed = (content_id is not None
                   and content_id != self._last_content_id)
        if content_id is not None:
            self._last_content_id = content_id
        if changed:
            self._static_slots = 0
            return self.profile.burst_batches
        self._static_slots += 1
        idle = self.profile.idle_upload_every
        if idle and self._static_slots % idle == 0:
            return 1
        self.stats.content_gated_slots += 1
        return 0

    # -- capture sampling -----------------------------------------------------

    def _sample_batch(self, at_ns: int,
                      source: InputSource) -> FingerprintBatch:
        """Fingerprint a sample of real captures from the batch window.

        The client conceptually captured ``captures_per_batch`` frames;
        for matching purposes a sample is equivalent and keeps the
        simulation tractable (the *wire* size still reflects every
        capture — see ``VendorAcrProfile.batch_payload_bytes``).  Capture
        *offsets* tick at the true capture interval, so payload-level
        inspection (the MITM study) recovers the vendor's capture cadence
        — 10 ms for LG, 500 ms for Samsung — from the batch alone.

        Each run of consecutive samples showing one item is fingerprinted
        by one :func:`capture_batch` call; runs keep their order, so the
        captures, memo entries and hit/miss counts are those of one call
        per sample.  A run passes as ``ahead`` what the next
        ``INGEST_CHUNK // count - 1`` ticks would sample of its item on
        this source, so a call that renders at all renders about
        ``INGEST_CHUNK`` positions, and those ticks find their samples
        rendered.  The later states are probed only when a call renders.
        """
        window = self.profile.batch_interval_ns
        count = self.profile.match_samples_per_batch
        spread = window // count
        samples = []
        for index in range(count):
            t = at_ns - window + index * spread
            if t < 0:
                continue
            state = source.screen_state(t)
            if state is None:
                continue
            samples.append((state, index * self.profile.capture_interval_ns))
        later: List[Optional[PlayState]] = []

        def ahead(item: ContentItem) -> Iterator[float]:
            # A generator, so nothing is probed until a call renders.
            if not later:
                later.extend(
                    source.screen_state(at_ns + tick * window + index * spread)
                    for tick in range(INGEST_CHUNK // count - 1)
                    for index in range(count))
            for state in later:
                if state is not None and state.item == item:
                    yield state.position_s

        captures: List[Capture] = []
        for item, run in groupby(samples, key=lambda sample: sample[0].item):
            states, offsets = zip(*run)
            captures += capture_batch(
                item, [state.position_s for state in states], offsets,
                ahead(item))
        return FingerprintBatch(self.device_id, captures)

    def __repr__(self) -> str:
        return (f"AcrClient({self.device_id!r}, "
                f"{self.profile.vendor}/{self.profile.country}, "
                f"slot={self._slot})")
