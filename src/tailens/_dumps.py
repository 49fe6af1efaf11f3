"""Posterior dumps: the CSV files through which the full-width posteriors of
any model, and the experts' partial posteriors, leave and join the ensemble.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import (
    DataError,
    atomic_write_float_csv,
    atomic_write_json,
    csv_rows,
    first_row_where,
    shrink_rows,
)
from .dataset import SubsetSpec
from .experts import PartialPosterior


@dataclass(frozen=True)
class ExternalPosteriorTable:
    """Named full-width posterior per sample, keyed by sample index."""

    name: str
    sample_ids: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.sample_ids, dtype=np.int64)
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if probs.ndim != 2 or len(ids) != len(probs):
            raise ValueError("need one probability row per sample id")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("sample ids must be unique")
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "probabilities", probs)


def write_posterior_csv(path, sample_ids, probabilities) -> None:
    """Full-width posterior dump: ``sample_id,p0,...,p{C-1}`` per row."""
    probabilities = np.atleast_2d(np.asarray(probabilities, dtype=np.float64))
    header = "sample_id," + ",".join(f"p{j}" for j in range(probabilities.shape[1]))
    atomic_write_float_csv(path, header, sample_ids, probabilities)


def _read_posterior_dump(path: Path, header: list[str], what: str, expert_id: int | None = None):
    """Read a posterior dump into (ids, probabilities, order), where
    ``order`` is the stable argsort of the ids.

    The first line must equal ``header`` (else it does not match ``what``).
    Each row holds the sample id, then, given ``expert_id``, that expert id,
    and then one probability per remaining header column. A row with
    another column count, a sample id that is not an integer or repeats an
    earlier one, an expert id that is not the integer ``expert_id``, a
    negative or non-finite probability, or zero mass raises a
    :class:`DataError` naming the file and line. The rows are parsed into
    arrays sized by a first count of the file's rows.
    """
    leading = 1 if expert_id is None else 2
    width = len(header) - leading
    with csv_rows(path) as (first, line_nos, rows):
        if first.split(",") != header:
            raise DataError(f"{path.name}: header does not match {what}")
        ids = np.empty(len(line_nos), dtype=np.int64)
        probs = np.empty((len(line_nos), width))
        for row, (line_no, parts) in enumerate(rows):
            if len(parts) != len(header):
                raise DataError(f"{path.name} line {line_no}: expected {width} probabilities")
            try:
                ids[row] = int(parts[0])
                row_expert = None if expert_id is None else int(parts[1])
                probs[row] = list(map(float, parts[leading:]))
            except ValueError:
                raise DataError(f"{path.name} line {line_no}: not a number") from None
            if row_expert != expert_id:
                raise DataError(
                    f"{path.name} line {line_no}: expert_id {row_expert} "
                    f"is not the sidecar's {expert_id}"
                )
    shrink_rows((ids, probs), len(line_nos))
    order = np.argsort(ids, kind="stable")
    repeat = np.zeros(len(ids), dtype=bool)
    repeat[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    if repeat.any():
        raise DataError(f"{path.name} line {line_nos[np.argmax(repeat)]}: repeated sample id")
    for test, problem in (
        (lambda p: ~np.isfinite(p).all(axis=1), "non-finite probability"),
        (lambda p: (p < 0).any(axis=1), "negative probability"),
        # non-finite entries are left out, so that inf - inf cannot warn
        (lambda p: np.where(np.isfinite(p), p, 0.0).sum(axis=1) <= 0,
         "probabilities sum to zero"),
    ):
        bad = first_row_where(test, probs)
        if bad is not None:
            raise DataError(f"{path.name} line {line_nos[bad]}: {problem}")
    return ids, probs, order


def ingest_external_posteriors(
    path, class_count: int, name: str | None = None
) -> ExternalPosteriorTable:
    """Read a full-width posterior CSV produced here or by an outside model,
    its rows in sample-id order (copied only when the file holds them in
    another order).

    Rows whose mass differs from 1 by more than 1e-6 are renormalized with a
    warning; negative or non-finite entries and rows of zero mass are
    rejected with a :class:`DataError` naming the file and line.
    """
    path = Path(path)
    header = ["sample_id"] + [f"p{j}" for j in range(class_count)]
    ids, probs, order = _read_posterior_dump(path, header, f"a {class_count}-class posterior dump")
    sums = probs.sum(axis=1)
    off = np.abs(sums - 1.0) > 1e-6
    if np.any(off):
        warnings.warn(
            f"{path.name}: {int(off.sum())} rows renormalized "
            f"(mass off by up to {np.abs(sums - 1.0).max():.3g})",
            stacklevel=2,
        )
        probs /= sums[:, None]
    if np.any(order != np.arange(len(order))):
        ids, probs = ids[order], probs[order]
    return ExternalPosteriorTable(name or path.stem, ids, probs)


def write_partial_posterior_csv(
    path, sample_ids, partial: PartialPosterior, subset: SubsetSpec, *, rho: float | None = None
) -> None:
    """Partial posterior dump plus a JSON sidecar describing the subset."""
    probs = np.atleast_2d(np.asarray(partial.probabilities, dtype=np.float64))
    header = "sample_id,expert_id," + ",".join(f"p{j}" for j in range(subset.size)) + ",preject"
    expert_id = int(partial.expert_id)
    path = Path(path)
    atomic_write_float_csv(path, header, sample_ids, probs, tag=f",{expert_id}")
    sidecar = {
        "expert_id": expert_id,
        "expert": partial.expert_id.label,
        "classes": [int(c) for c in subset.classes],
        "rho": rho,
    }
    atomic_write_json(path.with_suffix(".json"), sidecar)


def read_partial_posterior_csv(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Round-trip reader for partial dumps; returns (ids, probabilities, sidecar).

    A row with the wrong column count, an expert id other than the
    sidecar's, a negative or non-finite entry, or zero mass raises a
    :class:`DataError` naming the file and line, as does a sidecar that is
    not JSON or lacks an integer expert id or a class list.
    """
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    with open(sidecar_path, "r", encoding="utf-8") as fh:
        try:
            sidecar = json.load(fh)
            k = len(sidecar["classes"])
            expert_id = sidecar["expert_id"]
            if type(expert_id) is not int:
                raise TypeError(f"expert_id {expert_id!r} is not an integer")
        except (ValueError, TypeError, KeyError) as exc:
            raise DataError(f"{sidecar_path.name}: not a dump sidecar ({exc!r})") from None
    header = ["sample_id", "expert_id"] + [f"p{j}" for j in range(k)] + ["preject"]
    ids, probs, _ = _read_posterior_dump(path, header, "its sidecar", expert_id)
    return ids, probs, sidecar
