"""Tests for content items, synthetic frames, schedules and input sources."""

import numpy as np
import pytest

from repro.media import (AD_BREAK_EVERY_S, Channel, ContentItem, ContentKind,
                         FastApp, HdmiInput, HomeScreen, MediaLibrary,
                         OttApp, PlayState, ScheduleSlot, ScreenCast,
                         SourceType, Tuner, build_channel, render_frame,
                         standard_library)
from repro.media.frames import render_audio_batch, render_frame_batch
from repro.sim import seconds


@pytest.fixture(scope="module")
def library():
    return standard_library("uk", seed=3)


def _ui_item():
    return ContentItem("ui:home", "Home", ContentKind.UI, 86400, "news")


def _similarity(a, b):
    """Pearson correlation of two frames' pixels (1.0 = identical)."""
    return np.corrcoef(a.ravel(), b.ravel())[0, 1]


class TestContent:
    def test_visual_seed_stable(self, library):
        item = library.shows[0]
        assert item.visual_seed == item.visual_seed

    def test_visual_seeds_distinct(self, library):
        seeds = {item.visual_seed for item in library.all_items}
        assert len(seeds) == len(library.all_items)

    def test_reference_library_membership(self, library):
        assert library.shows[0].in_reference_library
        assert not library.game().in_reference_library
        assert not library.desktop().in_reference_library

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            ContentItem("x", "X", ContentKind.SHOW, 0, "news")

    def test_invalid_genre(self):
        with pytest.raises(ValueError):
            ContentItem("x", "X", ContentKind.SHOW, 10, "horror")

    def test_play_state_validation(self, library):
        with pytest.raises(ValueError):
            PlayState(library.shows[0], -1.0)


class TestLibrary:
    def test_population_counts(self, library):
        assert len(library.shows) == 40
        assert len(library.ads) == 30
        assert len(library.reference_items) == 40 + 30 + 15 + 6 + 25

    def test_determinism(self):
        a = standard_library("uk", seed=3)
        b = standard_library("uk", seed=3)
        assert [i.content_id for i in a.all_items] == \
            [i.content_id for i in b.all_items]

    def test_different_seeds_differ(self):
        a = MediaLibrary("x", seed=1).populate()
        b = MediaLibrary("x", seed=2).populate()
        assert [i.duration_s for i in a.shows] != \
            [i.duration_s for i in b.shows]

    def test_find(self, library):
        item = library.shows[5]
        assert library.find(item.content_id) is item
        assert library.find("nope") is None


class TestFrames:
    def test_determinism(self, library):
        state = PlayState(library.shows[0], 42.0)
        assert np.array_equal(render_frame(state), render_frame(state))

    def test_same_scene_similar(self, library):
        item = library.shows[0]
        a = render_frame(PlayState(item, 40.0))
        b = render_frame(PlayState(item, 41.0))  # same 8 s scene
        assert _similarity(a, b) > 0.9

    def test_different_content_dissimilar(self, library):
        a = render_frame(PlayState(library.shows[0], 40.0))
        b = render_frame(PlayState(library.shows[1], 40.0))
        assert _similarity(a, b) < 0.5

    def test_scene_cut_changes_frame(self, library):
        item = library.shows[0]
        a = render_frame(PlayState(item, 7.0))
        b = render_frame(PlayState(item, 9.0))  # across a scene boundary
        assert _similarity(a, b) < 0.5

    def test_frame_range(self, library):
        frame = render_frame(PlayState(library.shows[0], 1.0))
        assert frame.min() >= 0.0 and frame.max() <= 1.0

    def test_audio_normalised(self, library):
        audio = render_audio_batch(library.shows[0], [1.0])[0]
        assert np.max(np.abs(audio)) <= 1.0 + 1e-6
        assert len(audio) == 512

    def test_frame_batch_matches_render_frame(self, library):
        item = library.shows[0]
        frames = render_frame_batch(item, [5.5 + i * 1.5 for i in range(7)])
        assert len(frames) == 7
        for i, frame in enumerate(frames):
            assert np.array_equal(
                frame, render_frame(PlayState(item, 5.5 + i * 1.5)))
        assert len(render_frame_batch(item, [])) == 0

    def test_frame_batch_rejects_negative_position(self, library):
        with pytest.raises(ValueError):
            render_frame_batch(library.shows[0], [1.0, -1.0, 3.0])


class TestSchedule:
    def test_slots_consecutive(self, library):
        channel = build_channel("C1", library)
        for earlier, later in zip(channel.slots, channel.slots[1:]):
            assert later.start_s == earlier.end_s

    def test_playing_at_start(self, library):
        channel = build_channel("C1", library)
        state = channel.playing_at(0)
        assert state.item == channel.slots[0].item
        assert state.position_s == 0

    def test_ad_break_after_segment(self, library):
        channel = build_channel("C1", library)
        state = channel.playing_at(seconds(AD_BREAK_EVERY_S + 1))
        assert state.item.kind == ContentKind.AD

    def test_wraps_after_cycle(self, library):
        channel = build_channel("C1", library)
        begin = channel.playing_at(0)
        again = channel.playing_at(seconds(channel.cycle_s))
        assert begin.item == again.item

    def test_offset_position_within_show(self, library):
        channel = build_channel("C1", library)
        # Second segment of the first show resumes where slot 1 left off.
        later_slots = [s for s in channel.slots
                       if s.item == channel.slots[0].item]
        assert later_slots[1].item_offset_s == AD_BREAK_EVERY_S

    def test_items_between(self, library):
        channel = build_channel("C1", library)
        items = channel.items_between(0, seconds(AD_BREAK_EVERY_S + 70))
        kinds = [item.kind for item in items]
        assert kinds[0] == ContentKind.SHOW
        assert ContentKind.AD in kinds

    def test_offset_channels_differ(self, library):
        first = build_channel("F1", library, kind="fast")
        second = build_channel("F2", library, kind="fast", offset=3)
        assert first.playing_at(0).item != second.playing_at(0).item

    def test_invalid_slots_rejected(self, library):
        show = library.shows[0]
        with pytest.raises(ValueError):
            Channel("bad", [ScheduleSlot(0, 10, show),
                            ScheduleSlot(11, 10, show)])

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError):
            Channel("empty", [])


class TestSources:
    def test_source_types(self, library):
        channel = build_channel("C1", library)
        fast = build_channel("F1", library, kind="fast")
        assert Tuner(channel).source_type == SourceType.TUNER
        assert FastApp("tvplus", fast).source_type == SourceType.FAST
        assert HomeScreen(_ui_item()).source_type == SourceType.HOME

    def test_tuner_requires_linear(self, library):
        fast = build_channel("F1", library, kind="fast")
        with pytest.raises(ValueError):
            Tuner(fast)

    def test_fast_requires_fast(self, library):
        linear = build_channel("C1", library)
        with pytest.raises(ValueError):
            FastApp("tvplus", linear)

    def test_ott_playlist_advances(self, library):
        app = OttApp("netflix", [library.movies[0], library.movies[1]])
        first = app.screen_state(0)
        later = app.screen_state(seconds(library.movies[0].duration_s + 5))
        assert first.item == library.movies[0]
        assert later.item == library.movies[1]

    def test_ott_app_id(self, library):
        app = OttApp("netflix", [library.movies[0]])
        assert app.app_id == "netflix"

    def test_hdmi_alternates_external_items(self, library):
        hdmi = HdmiInput([library.desktop(), library.game()], dwell_s=300)
        assert hdmi.screen_state(0).item == library.desktop()
        assert hdmi.screen_state(seconds(301)).item == library.game()

    def test_cast_loops(self, library):
        movie = library.movies[0]
        cast = ScreenCast(movie)
        state = cast.screen_state(seconds(movie.duration_s + 10))
        assert state.item == movie
        assert state.position_s == 10

    def test_home_screen_requires_ui(self, library):
        with pytest.raises(ValueError):
            HomeScreen(library.shows[0])

    def test_home_screen_cycles(self):
        home = HomeScreen(_ui_item())
        assert home.screen_state(seconds(31)).position_s == 1
