"""Content substrate: items, synthetic frames/audio, channel schedules, and
the TV input sources corresponding to the paper's six scenarios."""

from .content import (ContentItem, ContentKind, GENRES,
                      PlayState, make_content_id)
from .frames import (AUDIO_RATE_HZ, AUDIO_SAMPLES, FRAME_HEIGHT, FRAME_WIDTH,
                     render_frame)
from .library import MediaLibrary, standard_library
from .schedule import (AD_BREAK_EVERY_S, Channel, ScheduleSlot,
                       build_channel)
from .sources import (FastApp, HdmiInput, HomeScreen, InputSource, OttApp,
                      ScreenCast, SourceType, Tuner)

__all__ = [
    "AD_BREAK_EVERY_S",
    "AUDIO_RATE_HZ",
    "AUDIO_SAMPLES",
    "Channel",
    "ContentItem",
    "ContentKind",
    "FRAME_HEIGHT",
    "FRAME_WIDTH",
    "FastApp",
    "GENRES",
    "HdmiInput",
    "HomeScreen",
    "InputSource",
    "MediaLibrary",
    "OttApp",
    "PlayState",
    "ScheduleSlot",
    "ScreenCast",
    "SourceType",
    "Tuner",
    "build_channel",
    "make_content_id",
    "render_frame",
    "standard_library",
]
