"""Posterior dumps: the CSV files through which the full-width posteriors of
any model leave and join the ensemble, and the experts' partial posteriors
leave it. Nothing in the package reads a partial dump or its sidecar back;
they are for readers outside it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import (
    DataError,
    atomic_write_float_csv,
    atomic_write_json,
    first_row_where,
    read_float_csv,
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


def _posterior_columns(class_count: int) -> list[str]:
    """The columns of a full-width posterior dump."""
    return ["sample_id"] + [f"p{j}" for j in range(class_count)]


def write_posterior_csv(path, sample_ids, probabilities) -> None:
    """Full-width posterior dump: ``sample_id,p0,...,p{C-1}`` per row."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    header = ",".join(_posterior_columns(probabilities.shape[1]))
    atomic_write_float_csv(path, header, sample_ids, probabilities)


def ingest_external_posteriors(path, class_count: int) -> ExternalPosteriorTable:
    """Read a full-width posterior CSV produced here or by an outside model,
    named after the file's stem, its rows in sample-id order (copied only
    when the file holds them in another order).

    The first line must be ``sample_id,p0,...,p{class_count-1}``. A row with
    another column count, a sample id that is not an integer or repeats an
    earlier one, a negative or non-finite probability, or zero mass raises a
    :class:`DataError` naming the file and line. Rows whose mass differs
    from 1 by more than 1e-6 are renormalized with a warning.
    """
    path = Path(path)

    def width_of(header):
        if header.split(",") != _posterior_columns(class_count):
            raise DataError(
                f"{path.name}: header does not match a {class_count}-class posterior dump"
            )
        return class_count

    ids, probs, line_nos = read_float_csv(path, width_of, ("probability", "probabilities"))
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
    return ExternalPosteriorTable(path.stem, ids, probs)


def write_partial_posterior_csv(
    path, sample_ids, partial: PartialPosterior, subset: SubsetSpec, *, rho: float | None = None
) -> None:
    """Partial posterior dump plus a JSON sidecar describing the subset."""
    header = "sample_id,expert_id," + ",".join(f"p{j}" for j in range(subset.size)) + ",preject"
    expert_id = int(subset.expert_id)
    path = Path(path)
    atomic_write_float_csv(path, header, sample_ids, partial.probabilities, tag=f",{expert_id}")
    sidecar = {
        "expert_id": expert_id,
        "expert": subset.expert_id.label,
        "classes": [int(c) for c in subset.classes],
        "rho": rho,
    }
    atomic_write_json(path.with_suffix(".json"), sidecar)
