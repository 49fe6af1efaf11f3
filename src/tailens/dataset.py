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
import json
import math
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
    first_row_where,
    read_float_csv,
    read_npy,
)

DEFAULT_MANY_MIN = 100
DEFAULT_FEW_MAX = 20

MANIFEST_FORMAT = "tailens-bundle-v1"
SNAPSHOT = "bundle.npy"  # the arrays gen-data writes beside its manifest


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
        fold = _frozen_array(self.fold_of_class, np.int64)
        if fold.ndim != 1:
            raise ValueError("fold_of_class must be 1-d, one fold per class")
        if ((fold < 0) | (fold >= len(Fold))).any():
            raise ValueError(f"fold ids must lie in {{0, 1, 2}}, found {np.unique(fold).tolist()}")
        object.__setattr__(self, "fold_of_class", fold)

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
    # must be monotone in fold; with every id in Fold, each fold is then one
    # contiguous range of that order.
    if np.any(np.diff(fold_sorted) < 0):
        raise RuntimeError("fold assignment is not monotone in frequency")
    subsets = []
    for fold in Fold:
        members = order[fold_sorted == int(fold)]
        if len(members) == 0:
            raise EmptyFoldError(fold)
        subsets.append(SubsetSpec(expert_id=fold, classes=members))
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


def _parse_embeddings(path: Path, class_count: int):
    """(features, labels): the rows of one ``label,f0,...,f{d-1}`` CSV as
    read-only arrays. A malformed file, or a label outside
    ``[0, class_count)``, raises a :class:`DataError` naming the file and
    line."""

    def width_of(header):
        fields = header.split(",")
        if len(fields) < 2 or fields != ["label"] + [f"f{j}" for j in range(len(fields) - 1)]:
            raise DataError(f"{path.name}: malformed header {header!r}")
        return len(fields) - 1

    labels, features, line_nos = read_float_csv(path, width_of, ("feature", "features"))
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


def _read_manifest(manifest_path: Path) -> tuple[list[Path], int, int | None]:
    """The train, val and test paths a manifest names (relative to it), its
    class count and its feature dimension (None where it states none); a
    manifest that is not JSON, has another format, lacks a key or states a
    count that is not a JSON integer raises :class:`DataError`."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # JSON or UTF-8 decoding
            raise DataError(f"{manifest_path.name}: not a JSON manifest ({exc})") from None
    found = manifest.get("format") if isinstance(manifest, dict) else None
    if found != MANIFEST_FORMAT:
        raise DataError(f"{manifest_path.name}: unsupported manifest format {found!r}")

    def count(key):
        value = manifest[key]
        if type(value) is not int:  # 8.9, "8" and true are not counts
            raise DataError(f"{manifest_path.name}: {key} {value!r} is not an integer")
        return value

    try:
        splits = [manifest_path.parent / manifest[s] for s in ("train", "val", "test")]
        class_count = count("class_count")
        feature_dim = count("feature_dim") if "feature_dim" in manifest else None
    except KeyError as exc:
        raise DataError(f"{manifest_path.name}: missing key {exc.args[0]!r}") from None
    except TypeError:
        raise DataError(f"{manifest_path.name}: malformed split entry") from None
    return splits, class_count, feature_dim


def load_bundle(manifest_path) -> DatasetBundle:
    """Load a bundle via its manifest (paths resolved relative to it).

    The manifest states the class count, and may state the feature
    dimension, which the train split must then have; train frequencies are
    recomputed from the train rows, and an unbalanced val or test split
    warns, naming its file, rather than fails. A manifest that is not JSON,
    has another format, lacks a key or states a count that is not an
    integer, or a malformed split, raises :class:`DataError`.
    """
    manifest_path = Path(manifest_path)
    splits, class_count, feature_dim = _read_manifest(manifest_path)
    train, val, test = (
        EmbeddingDataset(*_parse_embeddings(p, class_count), class_count) for p in splits
    )
    if feature_dim is not None and feature_dim != train.feature_dim:
        raise DataError(
            f"{manifest_path.name}: feature_dim {feature_dim}, "
            f"{splits[0].name} has {train.feature_dim} features"
        )
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
    splits = _read_manifest(Path(manifest_path))[0]
    for name, path in zip(("train", "val", "test"), splits):
        with open(path, "rb") as src, atomic_writer(directory / f"{name}.csv") as dst:
            shutil.copyfileobj(src, dst)
    return _write_manifest(directory, bundle)


def write_snapshot(bundle: DatasetBundle, directory) -> Path:
    """Write the bundle's arrays to :data:`SNAPSHOT` in ``directory``: for
    train, val and test in turn, the bytes ``np.save`` writes for the
    float64 features and then for the int64 labels. Returns its path."""
    path = Path(directory) / SNAPSHOT
    with atomic_writer(path) as fh:
        for split in (bundle.train, bundle.val, bundle.test):
            np.lib.format.write_array(fh, split.features, allow_pickle=False)
            np.lib.format.write_array(fh, split.labels, allow_pickle=False)
    return path


def read_snapshot(directory) -> DatasetBundle:
    """The bundle :func:`write_snapshot` wrote to ``directory``, under the
    class count and feature dimension of the manifest beside it.

    Each array is read in place by :func:`read_npy` and checked as a loaded
    split is: one label per row, at least one row and one feature, labels in
    ``[0, class_count)``, finite features and the manifest's feature
    dimension in every split. A missing, damaged or inconsistent snapshot
    or manifest raises a :class:`DataError` that names the file and
    ``tailens gen-data``.
    """
    directory = Path(directory)
    manifest, path = directory / "manifest.json", directory / SNAPSHOT
    for required in (manifest, path):
        if not required.is_file():
            raise DataError(f"{required} is missing; run `tailens gen-data` first")
    try:
        _, class_count, feature_dim = _read_manifest(manifest)
    except DataError as exc:
        raise DataError(f"{exc}; re-run `tailens gen-data`") from None
    try:
        with open(path, "rb") as fh:
            # each split's features, then its labels
            arrays = [(read_npy(fh, np.float64, 2), read_npy(fh, np.int64, 1)) for _ in range(3)]
            if fh.read(1):
                raise ValueError("bytes follow the test labels")
        splits = []
        for features, labels in arrays:
            if features.size == 0:
                raise ValueError(f"a split of shape {features.shape} holds no values")
            if features.shape[1] != feature_dim:
                raise ValueError(
                    f"{features.shape[1]} features, {manifest.name} states {feature_dim}"
                )
            features.setflags(write=False)
            labels.setflags(write=False)
            splits.append(EmbeddingDataset(features, labels, class_count))
        return DatasetBundle(*splits)
    except (ValueError, EOFError) as exc:
        raise DataError(f"{path}: {exc}; re-run `tailens gen-data`") from None
