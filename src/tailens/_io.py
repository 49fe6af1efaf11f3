"""Small file helpers shared across modules: atomic writes and the error
type of the file boundary."""

from __future__ import annotations

import contextlib
import errno
import json
import os
from pathlib import Path


class DataError(ValueError):
    """An input file is malformed or inconsistent; the message names the
    file, and the line where there is one."""


def format_float(value) -> str:
    """Shortest decimal string that round-trips the float64 exactly."""
    return repr(float(value))


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path, payload) -> None:
    """Sorted keys, two-space indent, trailing newline."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to a fresh temp file in the target directory, fsync it
    and rename it into place, so readers see the old file or the new one and
    concurrent writers of one path never share a temp file. The file gets
    the mode a plain ``open(path, "wb")`` gives it; the temp file is removed
    if anything fails. On POSIX the directory is fsynced after the rename,
    so the rename itself survives a power loss."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    # created like tempfile.mkstemp creates its file (O_EXCL, a random name),
    # but with mode 0o666 so the kernel applies the umask as open() does;
    # reading the umask instead means setting it, which races between threads
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """fsync ``directory`` on POSIX; skipped where it cannot be opened, or
    where its file system does not sync directories."""
    if os.name != "posix":
        return
    try:
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError as exc:
        if exc.errno not in (errno.EINVAL, errno.ENOTSUP):
            raise
    finally:
        os.close(fd)
