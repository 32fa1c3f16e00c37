"""Small shared utilities with no domain dependencies."""

from __future__ import annotations

import contextlib
import os
import secrets


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (write-then-rename).

    A reader never observes a partially written file: either the old
    content (or absence) or the complete new content.  The grid
    :class:`~repro.experiments.grid.ResultCache` persists captures
    through this helper so a crashed run cannot leave a readable
    truncated capture behind.  Each call writes through its own temp
    file beside ``path``, so concurrent writers of one path never move
    each other's temp file away (the last rename wins), and a failed
    write removes its temp file.
    """
    temp = f"{path}.{secrets.token_hex(8)}.tmp"
    fileobj = open(temp, "xb")
    try:
        with fileobj:
            fileobj.write(payload)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """UTF-8 text variant of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"))
