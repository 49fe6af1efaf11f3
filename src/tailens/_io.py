"""Small file helpers shared across modules: atomic writes, the float CSV
table format that the embedding CSVs and posterior dumps share (its writer
and its reader), the size-checked binary array reads, row-block streaming
and the error type of the file boundary.

Text tables cross the file boundary in blocks of about ``ROW_BLOCK_VALUES``
values, so that what a read or write holds besides its arrays stays bounded
whatever the table's size; binary arrays are read in place.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
from pathlib import Path

import numpy as np

# Values per row block. A block of float text takes about 55 bytes per value
# as Python floats, strings and bytes, so a writer holds about 0.2 MB
# besides its arrays.
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


def row_blocks(rows: int, width: int):
    """(start, stop) of each block of a ``rows`` x ``width`` table, in order;
    a block holds at least one row."""
    step = max(1, ROW_BLOCK_VALUES // max(1, width))
    for start in range(0, rows, step):
        yield start, min(start + step, rows)


def read_exact(fh, dtype, count: int) -> np.ndarray:
    """The next ``count`` values of ``dtype`` in the binary file ``fh``, read
    in place into a new 1-d array, or ``EOFError`` if the file holds fewer.
    The count is sized against the file first, so a huge one asks for no
    memory."""
    nbytes = count * np.dtype(dtype).itemsize
    fits = 0 <= nbytes <= os.fstat(fh.fileno()).st_size - fh.tell()
    values = np.fromfile(fh, dtype, count) if fits else np.empty(0, dtype)
    if len(values) != count:  # sized too large, or the file shrank since
        raise EOFError(f"{count} values of {np.dtype(dtype)} run past the end of the file")
    return values


def read_npy(fh, dtype, ndim: int) -> np.ndarray:
    """The next array in the binary file ``fh`` as ``np.save`` writes it,
    read by :func:`read_exact`; a header other than format 1.0, exactly
    ``dtype``, C order and ``ndim`` axes raises ``ValueError``."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not a format 1.0 npy array")
    shape, fortran_order, found = np.lib.format.read_array_header_1_0(fh)
    if found != np.dtype(dtype) or fortran_order or len(shape) != ndim:
        raise ValueError(f"not a C-ordered {ndim}-d {np.dtype(dtype)} array")
    return read_exact(fh, dtype, math.prod(shape)).reshape(shape)


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
    :func:`read_float_csv` finds in the unchanged file. Bytes that are not
    UTF-8 count as text here; :func:`read_float_csv` reports them."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        fh.readline()
        return sum(1 for line in fh if line.strip())


def read_float_csv(path: Path, width_of, values: tuple[str, str]):
    """Inverse of :func:`atomic_write_float_csv`: ``(keys, table, line_nos)``
    from the CSV file at ``path``, read as UTF-8 text.

    ``width_of(header)`` checks the first line, without its newline, raising
    a :class:`DataError` if it is not the expected header, and returns the
    number of values per row. Every non-blank line after it is a row, its
    fields stripped of surrounding whitespace and split on commas: an integer
    key (named in errors by the header's first column) and then that many
    floats (``values`` names one and several of them in errors).
    ``line_nos`` holds each row's line number. The arrays are sized by
    :func:`count_rows` and cut to the rows found. A row with another field
    count, a key or value that does not parse, more rows than counted, or
    bytes that are not UTF-8 raise a :class:`DataError` naming the file,
    and the line where there is one."""
    n = count_rows(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            width, key = width_of(header), header.split(",")[0]
            keys = np.empty(n, dtype=np.int64)
            table = np.empty((n, width))
            line_nos = np.empty(n, dtype=np.int64)
            found = 0
            for line_no, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                if found == n:
                    raise DataError(f"{path.name}: changed while it was read")
                parts = line.split(",")
                if len(parts) != width + 1:
                    raise DataError(
                        f"{path.name} line {line_no}: expected {width} {values[1]}, "
                        f"got {len(parts) - 1}"
                    )
                try:
                    keys[found] = int(parts[0])
                except ValueError:
                    raise DataError(
                        f"{path.name} line {line_no}: {key} {parts[0]!r} is not an integer"
                    ) from None
                except OverflowError:  # an integer beyond int64
                    raise DataError(
                        f"{path.name} line {line_no}: {key} {int(parts[0])} out of range"
                    ) from None
                try:
                    table[found] = list(map(float, parts[1:]))
                except ValueError:
                    raise DataError(
                        f"{path.name} line {line_no}: {values[0]} is not a number"
                    ) from None
                line_nos[found] = line_no
                found += 1
    except UnicodeDecodeError:
        raise DataError(f"{path.name}: not UTF-8 text") from None
    if found < n:
        for arr in (keys, table, line_nos):
            arr.resize((found,) + arr.shape[1:], refcheck=False)
    return keys, table, line_nos


def first_row_where(test, table) -> int | None:
    """Index of the first row of ``table`` for which ``test`` (a function of
    a block of rows, giving one bool per row) holds, testing block by
    block; None if it holds for none."""
    for start, stop in row_blocks(len(table), table.shape[1]):
        hits = test(table[start:stop])
        if hits.any():
            return start + int(np.argmax(hits))
    return None
