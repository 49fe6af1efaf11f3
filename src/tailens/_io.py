"""Small file-output helpers shared across modules."""

from __future__ import annotations

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
    """Write to a temp name in the target directory, then rename into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
