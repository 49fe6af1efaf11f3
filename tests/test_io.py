import os
import stat
import threading

import pytest

from tailens import _io
from tailens._io import atomic_write_bytes


def test_write_leaves_only_the_target(tmp_path):
    target = tmp_path / "out" / "file.bin"
    atomic_write_bytes(target, b"first")
    atomic_write_bytes(target, b"second")
    assert target.read_bytes() == b"second"
    assert os.listdir(target.parent) == ["file.bin"]


@pytest.mark.parametrize("stage", ["write", "replace"])
def test_failure_removes_the_temp_file_and_keeps_the_old_file(tmp_path, monkeypatch, stage):
    target = tmp_path / "file.bin"
    target.write_bytes(b"old")
    if stage == "replace":
        def fail(*args):
            raise OSError("replace failed")

        monkeypatch.setattr(_io.os, "replace", fail)
        data, error = b"new", OSError
    else:
        data, error = "not bytes", TypeError
    with pytest.raises(error):
        atomic_write_bytes(target, data)
    assert target.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["file.bin"]


def test_concurrent_writers_of_one_path_both_succeed(tmp_path, monkeypatch):
    # both writers hold a written temp file before either renames it
    barrier = threading.Barrier(2, timeout=10)
    replace = os.replace

    def wait_then_replace(src, dst):
        barrier.wait()
        replace(src, dst)

    monkeypatch.setattr(_io.os, "replace", wait_then_replace)
    target = tmp_path / "shared.bin"
    payloads = [bytes([i]) * 100_000 for i in (1, 2)]
    errors = []

    def write(data):
        try:
            atomic_write_bytes(target, data)
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert errors == []
    assert not any(t.is_alive() for t in threads)
    assert target.read_bytes() in payloads
    assert os.listdir(tmp_path) == ["shared.bin"]


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o002])
def test_mode_matches_a_plain_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        atomic_write_bytes(tmp_path / "atomic.bin", b"x")
        with open(tmp_path / "plain.bin", "wb") as fh:
            fh.write(b"x")
    finally:
        os.umask(previous)
    mode = lambda name: stat.S_IMODE(os.stat(tmp_path / name).st_mode)  # noqa: E731
    assert mode("atomic.bin") == mode("plain.bin") == 0o666 & ~umask
