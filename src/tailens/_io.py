"""Small file helpers shared across modules: atomic writes, row-block
streaming of numeric CSV tables, the row reader of the CSV parsers and the
error type of the file boundary.

Bulk tables cross the file boundary in blocks of about ``ROW_BLOCK_VALUES``
values, so that what a read or write holds besides its arrays stays bounded
whatever the table's size.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
from pathlib import Path

import numpy as np

# Values per row block. A block of float text takes about 55 bytes per value
# as Python floats, strings and bytes, so a writer holds about 0.2 MB
# besides its arrays; a binary block is 32 KiB.
ROW_BLOCK_VALUES = 1 << 12


class DataError(ValueError):
    """An input file is malformed or inconsistent; the message names the
    file, and the line where there is one."""


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path, payload) -> None:
    """Sorted keys, two-space indent, trailing newline."""
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` through :func:`atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(data)


@contextlib.contextmanager
def atomic_writer(path):
    """A binary file to write ``path``'s new contents into, piece by piece.

    The file is a fresh temp file in the target directory. When the block
    ends it is fsynced and renamed into place, so readers see the old file
    or the new one and concurrent writers of one path never share a temp
    file. The file gets the mode a plain ``open(path, "wb")`` gives it; the
    temp file is removed if anything fails, the block included. On POSIX
    the directory is fsynced after the rename, so the rename itself
    survives a power loss."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    # created like tempfile.mkstemp creates its file (O_EXCL, a random name),
    # but with mode 0o666 so the kernel applies the umask as open() does;
    # reading the umask instead means setting it, which races between threads
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
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


def block_rows(width: int) -> int:
    """Rows per block of a table ``width`` values wide; at least one."""
    return max(1, ROW_BLOCK_VALUES // max(1, width))


def row_blocks(rows: int, width: int):
    """(start, stop) of each block of a ``rows`` x ``width`` table, in order."""
    step = block_rows(width)
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def atomic_write_float_csv(path, header: str, keys, table, tag: str = "") -> None:
    """Atomically write ``header``, then per row of the float64 ``table`` the
    line ``key<tag>,v0,...,v{w-1}``, where ``key`` is the row's integer key
    and each value is written as ``repr`` writes it, the shortest text that
    reads back as the same float64. Lines end in ``\\n``."""
    keys = np.asarray(keys, dtype=np.int64)
    table = np.asarray(table, dtype=np.float64)
    if keys.shape != table.shape[:1]:
        raise ValueError(f"need one key per row: {len(keys)} keys, {len(table)} rows")
    with atomic_writer(path) as fh:
        fh.write(f"{header}\n".encode("utf-8"))
        for start, stop in row_blocks(*table.shape):
            fh.write("".join(
                f"{key}{tag},{','.join(map(repr, row))}\n"
                for key, row in zip(keys[start:stop].tolist(), table[start:stop].tolist())
            ).encode("utf-8"))


def count_rows(path) -> int:
    """The non-blank lines after the first, split and stripped as a text
    reader of the file splits and strips them: an upper bound on the rows
    :func:`csv_rows` finds in the unchanged file. Bytes that are not UTF-8
    count as text here; :func:`csv_rows` reports them."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        fh.readline()
        return sum(1 for line in fh if line.strip())


@contextlib.contextmanager
def csv_rows(path: Path, open_text=None):
    """The CSV file at ``path`` as ``(header, line_nos, rows)``, read as
    UTF-8 text from ``open_text(path)`` (default: ``open``) until the block
    ends. ``header`` is the first line without its newline; ``rows`` yields
    the line number and the comma-split fields of each row :func:`count_rows`
    counts, recording the line number in ``line_nos``, which is cut to the
    rows found once ``rows`` runs out. More rows than counted, or bytes that
    are not UTF-8, raise a :class:`DataError` naming the file."""
    line_nos = np.empty(count_rows(path), dtype=np.int64)

    def rows(fh):
        found = 0
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            if found == len(line_nos):
                raise DataError(f"{path.name}: changed while it was read")
            line_nos[found] = line_no
            found += 1
            yield line_no, line.split(",")
        shrink_rows((line_nos,), found)

    try:
        with open(path, "r", encoding="utf-8") if open_text is None else open_text(path) as fh:
            yield fh.readline().rstrip("\n"), line_nos, rows(fh)
    except UnicodeDecodeError:
        raise DataError(f"{path.name}: not UTF-8 text") from None


def shrink_rows(arrays, rows: int) -> None:
    """Cut each array, which owns its data, to its first ``rows`` rows in
    place."""
    for arr in arrays:
        if len(arr) > rows:
            arr.resize((rows,) + arr.shape[1:], refcheck=False)


def first_row_where(test, table) -> int | None:
    """Index of the first row of ``table`` for which ``test`` (a function of
    a block of rows, giving one bool per row) holds, testing block by
    block; None if it holds for none."""
    for start, stop in row_blocks(len(table), table.shape[1]):
        hits = test(table[start:stop])
        if hits.any():
            return start + int(np.argmax(hits))
    return None
