"""Tests for the shared write-then-rename helper."""

import os
import stat

import pytest

from repro.util import atomic_write_bytes


def test_concurrent_writers_of_one_path_both_succeed(tmp_path,
                                                     monkeypatch):
    # A second writer of the same path runs to completion between the
    # first writer's write and its rename: each must rename its own
    # temp file, so the later rename wins and nothing is left behind.
    target = tmp_path / "entry.pcap"
    real_replace = os.replace
    raced = []

    def racing_replace(src, dst):
        if not raced:
            raced.append(src)
            atomic_write_bytes(str(target), b"first payload")
            assert target.read_bytes() == b"first payload"
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    atomic_write_bytes(str(target), b"second payload")
    assert target.read_bytes() == b"second payload"
    assert os.listdir(tmp_path) == ["entry.pcap"]


def test_file_mode_matches_a_plain_write(tmp_path):
    plain = tmp_path / "plain"
    plain.write_bytes(b"x")
    atomic = str(tmp_path / "atomic")
    atomic_write_bytes(atomic, b"x")
    assert stat.S_IMODE(os.stat(atomic).st_mode) == \
        stat.S_IMODE(os.stat(plain).st_mode)


def test_failed_write_removes_its_temp_file(tmp_path, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        atomic_write_bytes(str(tmp_path / "entry.json"), b"{}")
    assert os.listdir(tmp_path) == []
