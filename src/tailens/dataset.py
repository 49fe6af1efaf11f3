"""Long-tailed embedding datasets.

Everything the rest of the library consumes starts here: labeled feature
vectors with per-class frequency metadata, the Manyshot/Mediumshot/Fewshot
fold assignment, contiguous frequency-sorted class subsets (one per expert),
reject-class relabeling, and the three mini-batch sampling regimes.

Datasets are immutable after construction (their arrays are frozen) and safe
to share across threads. Samplers take an explicit ``numpy.random.Generator``
so reproducibility is always in the caller's hands.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import math
import os
import shutil
import warnings
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from pathlib import Path

import numpy as np

from ._io import (
    DataError,
    atomic_write_float_csv,
    atomic_write_text,
    atomic_writer,
    block_rows,
    first_row_where,
    read_float_csv,
    row_blocks,
)

DEFAULT_MANY_MIN = 100
DEFAULT_FEW_MAX = 20

MANIFEST_FORMAT = "tailens-bundle-v1"
_HASH_CHUNK = 1 << 16  # bytes per read while hashing an input file


class Fold(IntEnum):
    """Frequency bucket of a class in the training split."""

    MANYSHOT = 0
    MEDIUMSHOT = 1
    FEWSHOT = 2

    @property
    def label(self) -> str:
        return self.name.lower()


class EmptyFoldError(ValueError):
    """Raised when a fold that must hold at least one class is empty."""

    def __init__(self, fold: Fold):
        self.fold = fold
        super().__init__(f"{fold.label} fold is empty")


def _frozen_array(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: a read-only array is
    adopted as it is (the file readers and the generator hand theirs over
    that way), anything else is copied."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _nonfinite_rows(block: np.ndarray) -> np.ndarray:
    return ~np.isfinite(block).all(axis=1)


@dataclass(frozen=True)
class EmbeddingDataset:
    """Labeled feature vectors plus the per-class sample counts
    ``class_frequency``, read-only and derived from ``labels``."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    class_frequency: np.ndarray = field(init=False)

    def __post_init__(self):
        features = _frozen_array(self.features, np.float64)
        labels = _frozen_array(self.labels, np.int64)
        if features.ndim != 2:
            raise ValueError(f"features must be a 2d array, got ndim={features.ndim}")
        if labels.ndim != 1:
            raise ValueError("labels must be a 1d array")
        if len(features) != len(labels):
            raise ValueError(
                f"features/labels length mismatch: {len(features)} vs {len(labels)}"
            )
        bad = first_row_where(_nonfinite_rows, features)
        if bad is not None:
            raise ValueError(f"feature row {bad} is not finite")
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        if len(labels) and (labels.min() < 0 or labels.max() >= self.class_count):
            raise ValueError(
                f"labels must lie in [0, {self.class_count}), "
                f"found range [{labels.min()}, {labels.max()}]"
            )
        frequency = np.bincount(labels, minlength=self.class_count).astype(np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_frequency", _frozen_array(frequency, np.int64))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def with_features(self, features) -> "EmbeddingDataset":
        """The same samples over another feature table, one row per sample
        (a frozen network prefix's activations, say), sharing the labels and
        the sampler caches. The table is taken as it is, not checked for
        finite values, so training on it fails where training through the
        prefix would."""
        features = _frozen_array(features, np.float64)
        if features.ndim != 2 or len(features) != self.n:
            raise ValueError(f"feature table must have {self.n} rows")
        view = copy.copy(self)
        object.__setattr__(view, "features", features)
        return view

    @cached_property
    def class_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Sample indices sorted by class, in stable (file) order within a
        class, and the class bounds into them: class ``c`` holds
        ``order[bounds[c]:bounds[c + 1]]``. Both arrays are read-only."""
        order = np.argsort(self.labels, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(self.class_frequency)))
        order.setflags(write=False)
        bounds.setflags(write=False)
        return order, bounds

    @cached_property
    def reject_pools(self) -> tuple[np.ndarray, int]:
        """Read-only indices of the rows outside the last class (the reject
        class of :func:`relabel_for_expert`), then of those inside it, each
        part in file order, and the length of the first part."""
        reject = self.labels == self.class_count - 1
        order = np.concatenate((np.flatnonzero(~reject), np.flatnonzero(reject)))
        order.setflags(write=False)
        return order, self.n - int(np.count_nonzero(reject))


def _balance_warning(name: str, split: EmbeddingDataset) -> str | None:
    """The warning for a split that is not class-balanced, or None."""
    counts = split.class_frequency
    if counts.min() == counts.max():
        return None
    return f"{name} split is not class-balanced; per-class counts: {counts.tolist()}"


@dataclass(frozen=True)
class DatasetBundle:
    """Train/val/test triple sharing one class space and feature dimension.

    The training split is typically long-tailed; val and test are expected to
    be class-balanced. Unbalanced val/test splits are permitted (real-world
    files) but reported through a warning.
    """

    train: EmbeddingDataset
    val: EmbeddingDataset
    test: EmbeddingDataset

    def __post_init__(self):
        splits = {"val": self.val, "test": self.test}
        for name, ds in splits.items():
            if ds.class_count != self.train.class_count:
                raise ValueError(
                    f"{name} split has class_count {ds.class_count}, "
                    f"train has {self.train.class_count}"
                )
            if ds.feature_dim != self.train.feature_dim:
                raise ValueError(
                    f"{name} split has feature_dim {ds.feature_dim}, "
                    f"train has {self.train.feature_dim}"
                )
            if message := _balance_warning(name, ds):
                # past the generated __init__, to the bundle's maker
                warnings.warn(message, stacklevel=3)

    @property
    def class_count(self) -> int:
        return self.train.class_count

    @property
    def feature_dim(self) -> int:
        return self.train.feature_dim


@dataclass(frozen=True)
class FoldAssignment:
    """Per-class Manyshot/Mediumshot/Fewshot label.

    A class is Manyshot iff its training frequency is >= ``many_min``,
    Fewshot iff it is < ``few_max``, Mediumshot otherwise. The boundaries are
    inclusive on the Manyshot side and on the Mediumshot floor, so every
    class lands in exactly one fold.
    """

    fold_of_class: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "fold_of_class", _frozen_array(self.fold_of_class, np.int64)
        )

    @classmethod
    def from_frequencies(
        cls,
        frequencies,
        thresholds: tuple[int, int] = (DEFAULT_MANY_MIN, DEFAULT_FEW_MAX),
    ) -> "FoldAssignment":
        many_min, few_max = thresholds
        if not many_min > few_max > 0:
            raise ValueError(
                f"thresholds must satisfy many_min > few_max > 0, got {thresholds}"
            )
        freq = np.asarray(frequencies, dtype=np.int64)
        fold = np.where(
            freq >= many_min,
            int(Fold.MANYSHOT),
            np.where(freq < few_max, int(Fold.FEWSHOT), int(Fold.MEDIUMSHOT)),
        )
        return cls(fold_of_class=fold)

    def classes_in(self, fold: Fold) -> np.ndarray:
        return np.nonzero(self.fold_of_class == int(fold))[0]

    def class_counts(self) -> dict[Fold, int]:
        return {f: int(np.sum(self.fold_of_class == int(f))) for f in Fold}

    def fold_of_samples(self, labels) -> np.ndarray:
        return self.fold_of_class[np.asarray(labels, dtype=np.int64)]


def assign_folds(
    train: EmbeddingDataset,
    thresholds: tuple[int, int] = (DEFAULT_MANY_MIN, DEFAULT_FEW_MAX),
) -> FoldAssignment:
    """Assign every class of ``train`` to a frequency fold."""
    return FoldAssignment.from_frequencies(train.class_frequency, thresholds)


@dataclass(frozen=True)
class SubsetSpec:
    """One expert's slice of the class space.

    ``classes`` lists global class indices in frequency-sorted order; the
    position of a class in that list is its local index for the expert's
    classifier head (the reject output sits after them, at local index
    ``size``).
    """

    expert_id: Fold
    classes: np.ndarray

    def __post_init__(self):
        classes = _frozen_array(self.classes, np.int64)
        if classes.ndim != 1 or len(classes) == 0:
            raise ValueError("subset must contain at least one class")
        if len(np.unique(classes)) != len(classes):
            raise ValueError("subset classes must be unique")
        if classes.min() < 0:
            raise ValueError("subset classes must be nonnegative")
        object.__setattr__(self, "classes", classes)

    @property
    def size(self) -> int:
        return len(self.classes)

    def columns(self, class_count: int) -> np.ndarray:
        """The expert output each of the ``class_count`` classes reads: its
        local index inside the subset, the reject output ``size`` outside."""
        if self.classes.max() >= class_count:
            raise ValueError("subset references a class beyond class_count")
        columns = np.full(class_count, self.size, dtype=np.int64)
        columns[self.classes] = np.arange(self.size, dtype=np.int64)
        return columns


def partition_subsets(
    assignment: FoldAssignment, train: EmbeddingDataset
) -> tuple[SubsetSpec, SubsetSpec, SubsetSpec]:
    """Split the frequency-sorted class list into the three expert subsets.

    Classes are ordered by descending training frequency with ties broken by
    ascending class index; the three contiguous ranges of that order are
    exactly the Manyshot, Mediumshot, and Fewshot folds. Raises
    :class:`EmptyFoldError` if any fold has no classes.
    """
    freq = train.class_frequency
    class_count = train.class_count
    if len(assignment.fold_of_class) != class_count:
        raise ValueError("fold assignment does not match dataset class count")
    order = np.lexsort((np.arange(class_count), -freq))
    fold_sorted = assignment.fold_of_class[order]
    # Fold is a function of frequency alone, so the descending-frequency order
    # must group the folds contiguously.
    if np.any(np.diff(fold_sorted) < 0):
        raise RuntimeError("fold assignment is not monotone in frequency")
    subsets = []
    start = 0
    for fold in Fold:
        members = order[fold_sorted == int(fold)]
        if len(members) == 0:
            raise EmptyFoldError(fold)
        if not np.array_equal(members, order[start : start + len(members)]):
            raise RuntimeError("fold ranges are not contiguous")
        subsets.append(SubsetSpec(expert_id=fold, classes=members))
        start += len(members)
    return tuple(subsets)


def relabel_for_expert(train: EmbeddingDataset, subset: SubsetSpec) -> EmbeddingDataset:
    """Map ``train`` into the expert's local label space plus a reject class.

    Samples whose global class belongs to ``subset`` keep their feature rows
    bit-exactly and get the class's local index; everything else is labeled
    with the reject index ``subset.size``. The output has ``subset.size + 1``
    classes even when nothing was rejected.
    """
    return EmbeddingDataset(
        features=train.features,
        labels=subset.columns(train.class_count)[train.labels],
        class_count=subset.size + 1,
    )


_SAMPLER_KINDS = ("instance_balanced", "uniform_class", "reject_undersampled")


@dataclass(frozen=True)
class SamplerMode:
    """Mini-batch sampling regime.

    * ``instance_balanced`` draws uniformly over samples.
    * ``uniform_class`` draws a class uniformly, then a sample within it,
      from one pair of uniforms per row.
    * ``reject_undersampled`` draws each sample with weight 1, or 1/rho
      when it carries the reject label: the distribution of drawing
      uniformly and keeping a reject draw with probability 1/rho, taken in
      one weighted draw per row.

    Every mode makes one generator call per batch, row by row, so one draw
    of k * b rows gives the rows of k draws of b rows in order and leaves
    the generator in the same state; training draws each epoch in one call.
    """

    kind: str
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in _SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.kind == "reject_undersampled" and not 1.0 <= self.rho < math.inf:
            raise ValueError(
                f"undersampling ratio must be finite and >= 1, got {self.rho}"
            )

    @classmethod
    def instance_balanced(cls) -> "SamplerMode":
        return cls(kind="instance_balanced")

    @classmethod
    def uniform_class(cls) -> "SamplerMode":
        return cls(kind="uniform_class")

    @classmethod
    def reject_undersampled(cls, rho: float) -> "SamplerMode":
        return cls(kind="reject_undersampled", rho=float(rho))


def draw_batch(
    dataset: EmbeddingDataset,
    mode: SamplerMode,
    batch_size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one mini-batch of (features, labels) under ``mode``.

    Deterministic given the generator state. For ``reject_undersampled`` the
    reject class is the dataset's last label (the convention produced by
    :func:`relabel_for_expert`); each row is one uniform draw over the
    summed weights, 1 per non-reject sample and 1/rho per reject sample, so
    every sample is drawn with probability proportional to its weight.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if dataset.n == 0:
        raise ValueError("cannot sample from an empty dataset")

    if mode.kind == "instance_balanced":
        idx = rng.integers(0, dataset.n, size=batch_size)
    elif mode.kind == "uniform_class":
        freq = dataset.class_frequency
        empty = np.nonzero(freq == 0)[0]
        if len(empty):
            raise ValueError(
                f"uniform class sampling requires every class to be nonempty; "
                f"class {int(empty[0])} has no samples"
            )
        order, bounds = dataset.class_order
        u = rng.random((batch_size, 2))
        cls = (u[:, 0] * dataset.class_count).astype(np.int64)
        within = (u[:, 1] * freq[cls]).astype(np.int64)
        idx = order[bounds[cls] + within]
    else:  # reject_undersampled
        # one uniform per row over the total weight: [0, n_kept) holds the
        # kept rows at width 1, the rest the reject rows at width 1/rho;
        # every row gets both positions in the concatenated pools, and the
        # side its uniform falls on picks one
        pools, n_kept = dataset.reject_pools
        n_rejected = dataset.n - n_kept
        u = rng.random(batch_size) * (n_kept + n_rejected / mode.rho)
        within = (np.maximum(u - n_kept, 0.0) * mode.rho).astype(np.int64)
        at = np.where(
            u < n_kept, u.astype(np.int64), n_kept + np.minimum(within, n_rejected - 1)
        )
        idx = pools[at]

    return np.take(dataset.features, idx, axis=0), np.take(dataset.labels, idx)


def powerlaw_frequencies(class_count: int, n_max: int, alpha: float) -> np.ndarray:
    """Training frequency of each class under a power-law profile.

    The c-th most frequent class (0-based) receives
    ``max(round(n_max * (c+1)**-alpha), 1)`` samples.
    """
    ranks = np.arange(1, class_count + 1, dtype=np.float64)
    freq = np.maximum(np.rint(n_max * ranks ** (-alpha)), 1.0)
    return freq.astype(np.int64)


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic long-tailed generator."""

    class_count: int
    feature_dim: int
    n_max: int
    alpha: float
    n_val_per_class: int
    n_test_per_class: int
    noise_scale: float

    def __post_init__(self):
        if self.class_count < 3:
            raise ValueError("need at least 3 classes")
        if self.feature_dim < 2:
            raise ValueError("need feature_dim >= 2")
        if self.n_max < 1 or not 0 < self.alpha < math.inf:
            raise ValueError("n_max must be >= 1 and alpha finite and > 0")
        if self.n_val_per_class < 1 or self.n_test_per_class < 1:
            raise ValueError("val/test per-class counts must be >= 1")
        if not 0 < self.noise_scale < math.inf:
            raise ValueError("noise_scale must be finite and positive")


def generate_longtailed(
    config: SyntheticConfig,
    seed: int,
    thresholds: tuple[int, int] = (DEFAULT_MANY_MIN, DEFAULT_FEW_MAX),
) -> DatasetBundle:
    """Generate a long-tailed train split plus balanced val/test splits.

    Each class is an isotropic Gaussian blob whose mean is drawn once from a
    seeded generator; class index equals frequency rank (class 0 is the most
    frequent). Configurations whose frequency profile leaves any fold empty
    under ``thresholds`` are rejected, because the three-expert split would
    be ill-defined.
    """
    freq = powerlaw_frequencies(config.class_count, config.n_max, config.alpha)
    assignment = FoldAssignment.from_frequencies(freq, thresholds)
    for fold in Fold:
        if not np.any(assignment.fold_of_class == int(fold)):
            raise EmptyFoldError(fold)

    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, size=(config.class_count, config.feature_dim))

    def blob(count_per_class) -> EmbeddingDataset:
        # each class's rows are drawn into their place in one table, which
        # the dataset adopts read-only rather than copying
        counts = np.asarray(count_per_class, dtype=np.int64)
        features = np.empty((int(counts.sum()), config.feature_dim))
        start = 0
        for c, n_c in enumerate(counts.tolist()):
            features[start : start + n_c] = means[c] + rng.normal(
                0.0, config.noise_scale, size=(n_c, config.feature_dim)
            )
            start += n_c
        labels = np.repeat(np.arange(config.class_count, dtype=np.int64), counts)
        features.setflags(write=False)
        labels.setflags(write=False)
        return EmbeddingDataset(features, labels, config.class_count)

    train = blob(freq)
    val = blob(np.full(config.class_count, config.n_val_per_class))
    test = blob(np.full(config.class_count, config.n_test_per_class))
    return DatasetBundle(train=train, val=val, test=test)


def write_embeddings_csv(path, dataset: EmbeddingDataset) -> None:
    """Write one split in the ``label,f0,...,f{d-1}`` CSV format."""
    header = "label," + ",".join(f"f{j}" for j in range(dataset.feature_dim))
    atomic_write_float_csv(path, header, dataset.labels, dataset.features)


class _HashingReader(io.FileIO):
    """A raw binary reader of ``path`` that feeds every byte it reads to
    ``digest``."""

    def __init__(self, path, digest):
        super().__init__(path, "rb")
        self._digest = digest

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        self._digest.update(memoryview(buffer)[:n])
        return n


def _parse_embeddings(path: Path, class_count: int):
    """(features, labels, SHA-256 hex digest of the bytes parsed): the rows
    of one ``label,f0,...,f{d-1}`` CSV as read-only arrays. A malformed file,
    or a label outside ``[0, class_count)``, raises a :class:`DataError`
    naming the file and line."""
    digest = hashlib.sha256()

    def width_of(header):
        fields = header.split(",")
        if len(fields) < 2 or fields != ["label"] + [f"f{j}" for j in range(len(fields) - 1)]:
            raise DataError(f"{path.name}: malformed header {header!r}")
        return len(fields) - 1

    labels, features, line_nos = read_float_csv(
        path, width_of, ("feature", "features"), lambda p: io.TextIOWrapper(
            io.BufferedReader(_HashingReader(p, digest), _HASH_CHUNK), encoding="utf-8"
        ),
    )
    if not len(labels):
        raise DataError(f"{path.name}: no samples")
    outside = (labels < 0) | (labels >= class_count)
    if outside.any():
        row = int(np.argmax(outside))
        label = labels[row]
        problem = (
            f"negative label {label}" if label < 0
            else f"label {label} out of range [0, {class_count})"
        )
        raise DataError(f"{path.name} line {line_nos[row]}: {problem}")
    bad = first_row_where(_nonfinite_rows, features)
    if bad is not None:
        raise DataError(f"{path.name} line {line_nos[bad]}: non-finite feature")
    features.setflags(write=False)
    labels.setflags(write=False)
    return features, labels, digest.hexdigest()


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    chunk = bytearray(_HASH_CHUNK)  # one buffer, read into again and again
    view = memoryview(chunk)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(chunk):
            digest.update(view[:n])
    return digest.hexdigest()


def _load_cache_entry(entry: Path, class_count: int):
    """Read-only (features, labels) from a cache entry, read block by block,
    or None when the entry is missing, cannot be read, is not the table
    :func:`_write_cache_entry` writes, or fails a check the CSV parser
    makes."""
    try:
        with open(entry, "rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            if not (
                dtype == np.float64
                and not fortran_order
                and len(shape) == 2
                and shape[0] >= 1
                and shape[1] >= 2
            ):
                return None
            n, width = shape
            if os.fstat(fh.fileno()).st_size - fh.tell() < n * width * 8:
                return None  # truncated
            features = np.empty((n, width - 1))
            labels = np.empty(n, dtype=np.int64)
            block = np.empty((min(n, block_rows(width)), width))
            for start, stop in row_blocks(n, width):
                rows = block[: stop - start]
                if fh.readinto(rows.data) != rows.nbytes:
                    return None
                label, feats = rows[:, 0], rows[:, 1:]
                if not (
                    np.all((label >= 0) & (label < class_count) & (label == np.floor(label)))
                    and np.isfinite(feats).all()
                ):
                    return None
                labels[start:stop] = label
                features[start:stop] = feats
    except Exception:  # a cache entry that cannot be read for any reason is a miss
        return None
    features.setflags(write=False)
    labels.setflags(write=False)
    return features, labels


def _write_cache_entry(entry: Path, features: np.ndarray, labels: np.ndarray) -> None:
    """Write the bytes ``np.save`` writes for the float64 table of the
    labels then the features, ``np.column_stack((labels, features))``:
    the header, then the table block by block."""
    n, width = len(labels), features.shape[1] + 1
    with atomic_writer(entry) as fh:
        np.lib.format.write_array_header_1_0(fh, {
            "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
            "fortran_order": False,
            "shape": (n, width),
        })
        block = np.empty((min(n, block_rows(width)), width))
        for start, stop in row_blocks(n, width):
            rows = block[: stop - start]
            rows[:, 0] = labels[start:stop]
            rows[:, 1:] = features[start:stop]
            fh.write(rows.data)


def _read_embeddings_cached(path, class_count: int, cache_dir: Path):
    """:func:`_parse_embeddings`' arrays through a content-addressed cache.

    An entry is ``<sha256 of the CSV bytes>.npy`` in ``cache_dir``: one
    float64 table with the labels in column 0 and the features after them,
    byte for byte what ``np.save`` writes for it (``np.save`` is
    deterministic; ``savez`` would stamp times). A hit is checked again as
    the parser checks a file; an entry that fails or cannot be read is a
    miss, so the CSV is parsed (raising its usual error) and the entry is
    rewritten.
    """
    path = Path(path)
    hit = _load_cache_entry(cache_dir / f"{_sha256_file(path)}.npy", class_count)
    if hit is not None:
        return hit
    # keyed by the bytes the parser read, which differ from the probed ones
    # only if the file changed in between
    features, labels, digest = _parse_embeddings(path, class_count)
    _write_cache_entry(cache_dir / f"{digest}.npy", features, labels)
    return features, labels


def _write_manifest(directory: Path, bundle: DatasetBundle) -> Path:
    """The manifest naming ``{train,val,test}.csv`` in ``directory``."""
    manifest = {
        "format": MANIFEST_FORMAT,
        "class_count": bundle.class_count,
        "feature_dim": bundle.feature_dim,
        "train": "train.csv",
        "val": "val.csv",
        "test": "test.csv",
    }
    manifest_path = directory / "manifest.json"
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def save_bundle(bundle: DatasetBundle, directory) -> Path:
    """Write train/val/test CSVs plus a manifest; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = {"train": bundle.train, "val": bundle.val, "test": bundle.test}
    for name, ds in names.items():
        write_embeddings_csv(directory / f"{name}.csv", ds)
    return _write_manifest(directory, bundle)


def _read_manifest(manifest_path: Path) -> tuple[list[Path], int]:
    """The train, val and test paths a manifest names (relative to it) and
    its class count; a manifest that is not JSON, has another format or
    lacks a key raises :class:`DataError`."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # JSON or UTF-8 decoding
            raise DataError(f"{manifest_path.name}: not a JSON manifest ({exc})") from None
    found = manifest.get("format") if isinstance(manifest, dict) else None
    if found != MANIFEST_FORMAT:
        raise DataError(f"{manifest_path.name}: unsupported manifest format {found!r}")
    try:
        splits = [manifest_path.parent / manifest[s] for s in ("train", "val", "test")]
        class_count = int(manifest["class_count"])
    except KeyError as exc:
        raise DataError(f"{manifest_path.name}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError):
        raise DataError(f"{manifest_path.name}: malformed split or class_count entry") from None
    return splits, class_count


def load_bundle(manifest_path, *, cache_dir=None) -> DatasetBundle:
    """Load a bundle via its manifest (paths resolved relative to it).

    The manifest states the class count; train frequencies are recomputed
    from the train rows, and an unbalanced val or test split warns, naming
    its file, rather than fails. With ``cache_dir`` each split CSV is parsed
    once and its arrays are read back from the cache while its bytes are
    unchanged. A manifest that is not JSON, has another format or lacks a
    key, or a malformed split, raises :class:`DataError`.
    """
    splits, class_count = _read_manifest(Path(manifest_path))

    def read(path):
        if cache_dir is None:
            return _parse_embeddings(path, class_count)[:2]
        return _read_embeddings_cached(path, class_count, Path(cache_dir))

    train, val, test = (EmbeddingDataset(*read(p), class_count) for p in splits)
    for path, ds in ((splits[1], val), (splits[2], test)):
        if ds.feature_dim != train.feature_dim:
            raise DataError(
                f"{path.name}: {ds.feature_dim} features, "
                f"{splits[0].name} has {train.feature_dim}"
            )
    # the bundle's warning names the split; it is issued here instead, naming
    # the file, at load_bundle's caller
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bundle = DatasetBundle(train, val, test)
    for path, name, split in ((splits[1], "val", val), (splits[2], "test", test)):
        if message := _balance_warning(name, split):
            warnings.warn(f"{path.name}: {message}", stacklevel=2)
    return bundle


def copy_bundle(manifest_path, bundle: DatasetBundle, directory) -> Path:
    """Copy the split CSVs a manifest names into ``directory`` byte for
    byte, as ``{train,val,test}.csv`` under a new manifest; returns its
    path. ``bundle`` is the one :func:`load_bundle` read from the manifest,
    so the files were checked on the way in and are not parsed again."""
    directory = Path(directory)
    splits, _ = _read_manifest(Path(manifest_path))
    for name, path in zip(("train", "val", "test"), splits):
        with open(path, "rb") as src, atomic_writer(directory / f"{name}.csv") as dst:
            shutil.copyfileobj(src, dst)
    return _write_manifest(directory, bundle)
