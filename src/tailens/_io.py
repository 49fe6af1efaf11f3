"""Small file-output helpers shared across modules."""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path


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
    if anything fails."""
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
