import os
import stat
import threading
from types import SimpleNamespace

import numpy as np
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


@pytest.mark.skipif(os.name != "posix", reason="directories are fsynced on POSIX only")
def test_directory_is_fsynced_after_the_rename(tmp_path, monkeypatch):
    events = []
    fsync, replace = os.fsync, os.replace

    def record_fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino))
        fsync(fd)

    def record_replace(src, dst):
        events.append(("replace",))
        replace(src, dst)

    monkeypatch.setattr(_io.os, "fsync", record_fsync)
    monkeypatch.setattr(_io.os, "replace", record_replace)
    target = tmp_path / "sub" / "file.bin"
    atomic_write_bytes(target, b"data")
    assert [e[0] for e in events] == ["fsync", "replace", "fsync"]
    assert events[0][1] is False
    assert events[2][1:] == (True, os.stat(target.parent).st_ino)


@pytest.mark.skipif(os.name != "posix", reason="directories are fsynced on POSIX only")
@pytest.mark.parametrize("failure", ["open", "fsync"])
def test_directory_fsync_is_skipped_where_unsupported(tmp_path, monkeypatch, failure):
    import errno

    real_open, real_fsync = os.open, os.fsync

    def open_no_dirs(path, flags, *args):
        if flags & os.O_DIRECTORY:
            raise PermissionError(errno.EACCES, "directory cannot be opened")
        return real_open(path, flags, *args)

    def fsync_no_dirs(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EINVAL, "directory fsync not supported")
        real_fsync(fd)

    if failure == "open":
        monkeypatch.setattr(_io.os, "open", open_no_dirs)
    else:
        monkeypatch.setattr(_io.os, "fsync", fsync_no_dirs)
    target = tmp_path / "file.bin"
    atomic_write_bytes(target, b"data")
    assert target.read_bytes() == b"data"
    assert os.listdir(tmp_path) == ["file.bin"]


def test_read_npy_reads_what_np_save_wrote_in_order(tmp_path):
    features, labels = np.arange(12.0).reshape(4, 3) / 7, np.arange(4) % 3
    with open(tmp_path / "entry.npy", "wb") as fh:
        fh.write(b"a line before the arrays\n")
        np.save(fh, features)
        np.save(fh, labels)
    with open(tmp_path / "entry.npy", "rb") as fh:
        fh.readline()  # read ahead by the buffer; the arrays start after it
        got_f = _io.read_npy(fh, np.float64, 2)
        got_l = _io.read_npy(fh, np.int64, 1)
        assert fh.read() == b""
    assert got_f.tobytes() == features.tobytes() and got_f.shape == (4, 3)
    assert got_l.tobytes() == labels.tobytes() and got_l.dtype == np.int64


@pytest.mark.parametrize("reported", [0, 1 << 20], ids=["short", "shrank"])
def test_read_exact_past_the_end_is_eof(tmp_path, monkeypatch, reported):
    (tmp_path / "x.bin").write_bytes(bytes(16))
    if reported:  # sized as larger than it is, as a file that shrank after fstat
        monkeypatch.setattr(_io, "os", SimpleNamespace(
            fstat=lambda fd: SimpleNamespace(st_size=reported)
        ))
    with open(tmp_path / "x.bin", "rb") as fh:
        assert _io.read_exact(fh, "<f8", 2).tolist() == [0.0, 0.0]
        fh.seek(0)
        with pytest.raises(EOFError, match="run past the end of the file"):
            _io.read_exact(fh, "<f8", 3)
