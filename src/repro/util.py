"""Small shared utilities with no domain dependencies."""

from __future__ import annotations

import os


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (write-then-rename).

    A reader never observes a partially written file: either the old
    content (or absence) or the complete new content.  The grid
    :class:`~repro.experiments.grid.ResultCache` persists captures
    through this helper so a crashed run cannot leave a readable
    truncated capture behind.
    """
    temp = path + ".tmp"
    with open(temp, "wb") as fileobj:
        fileobj.write(payload)
    os.replace(temp, path)


def atomic_write_text(path: str, text: str) -> None:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))
