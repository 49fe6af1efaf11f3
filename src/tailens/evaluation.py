"""Four-fold accuracy reports, Oracle routing, collision and confidence
analyses, and the take-one-out ablation harness.

All functions here are pure over immutable inputs. Accuracies are top-1;
an empty fold reports ``None`` (undefined), never zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dataset import EmbeddingDataset, Fold, FoldAssignment
from .experts import ExpertModel, _in_subset_predictions, expert_partial_posterior
from .fusion import _as_array, expand_partial, fuse_soft_vote

HISTOGRAM_BINS = 20


@dataclass(frozen=True)
class EvalReport:
    """Top-1 accuracy per fold plus per-class detail.

    ``all`` is total-correct over total-samples; fold accuracies are
    sample-weighted means over their classes, ``None`` when the fold holds no
    test samples. On a balanced test set ``all`` coincides with the mean of
    the per-class accuracies.
    """

    many: float | None
    medium: float | None
    few: float | None
    all: float
    per_class_accuracy: np.ndarray
    fold_sample_counts: dict[str, int]
    correct: int
    total: int

    def to_json_dict(self) -> dict:
        return {
            "many": self.many,
            "medium": self.medium,
            "few": self.few,
            "all": self.all,
            "per_class_accuracy": [
                None if np.isnan(a) else float(a) for a in self.per_class_accuracy
            ],
            "fold_sample_counts": dict(self.fold_sample_counts),
            "correct": self.correct,
            "total": self.total,
        }

    def to_text(self) -> str:
        def fmt(v):
            return "   undefined" if v is None else f"{100 * v:12.2f}"

        lines = [
            f"{'fold':<12}{'accuracy %':>12}{'samples':>10}",
            f"{'many':<12}{fmt(self.many)}{self.fold_sample_counts['many']:>10}",
            f"{'medium':<12}{fmt(self.medium)}{self.fold_sample_counts['medium']:>10}",
            f"{'few':<12}{fmt(self.few)}{self.fold_sample_counts['few']:>10}",
            f"{'all':<12}{fmt(self.all)}{self.total:>10}",
        ]
        return "\n".join(lines) + "\n"


def fourfold_accuracy(predictions, labels, folds: FoldAssignment) -> EvalReport:
    """Top-1 accuracy on the Manyshot/Mediumshot/Fewshot/All folds."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ValueError("predictions and labels must be equal-length vectors")
    if len(labels) == 0:
        raise ValueError("cannot evaluate an empty sample set")

    correct = predictions == labels
    class_count = len(folds.fold_of_class)
    per_class = np.full(class_count, np.nan)
    class_totals = np.bincount(labels, minlength=class_count)
    class_correct = np.bincount(labels, weights=correct.astype(np.float64), minlength=class_count)
    nonzero = class_totals > 0
    per_class[nonzero] = class_correct[nonzero] / class_totals[nonzero]

    sample_folds = folds.fold_of_samples(labels)
    fold_acc: dict[Fold, float | None] = {}
    fold_counts: dict[str, int] = {}
    for fold in Fold:
        mask = sample_folds == int(fold)
        fold_counts[fold.label.replace("shot", "")] = int(mask.sum())
        fold_acc[fold] = float(correct[mask].mean()) if np.any(mask) else None

    return EvalReport(
        many=fold_acc[Fold.MANYSHOT],
        medium=fold_acc[Fold.MEDIUMSHOT],
        few=fold_acc[Fold.FEWSHOT],
        all=float(correct.mean()),
        per_class_accuracy=per_class,
        fold_sample_counts=fold_counts,
        correct=int(correct.sum()),
        total=len(labels),
    )


def oracle_evaluate(
    experts, test: EmbeddingDataset, folds: FoldAssignment
) -> EvalReport:
    """Evaluate with ground-truth routing of samples to their experts.

    Each test sample goes to the expert whose subset holds its true class;
    the prediction is the argmax over that expert's in-subset outputs only
    (the reject logit is excluded, since the sample is known in-subset).
    This upper-bounds what any automatic fusion can do with these experts.
    """
    predictions = np.full(test.n, -1, dtype=np.int64)
    covered = np.zeros(test.n, dtype=bool)
    for expert in experts:
        mask, _, local_pred = _in_subset_predictions(expert, test)
        predictions[mask] = expert.subset.classes[local_pred]
        covered |= mask
    if not np.all(covered):
        missing = int(test.labels[~covered][0])
        raise ValueError(f"no expert covers class {missing}")
    return fourfold_accuracy(predictions, test.labels, folds)


@dataclass(frozen=True)
class ExpertConfusionMatrix:
    """Rows: true fold of the sample; columns: expert winning the fused
    argmax. Entries are row-normalized percentages."""

    matrix: np.ndarray
    row_counts: np.ndarray

    def diagonal_mass(self) -> float:
        """Sum of the diagonal percentages (300 would be perfect routing)."""
        return float(np.trace(self.matrix))

    def to_csv(self) -> str:
        header = "true_fold," + ",".join(f.label for f in Fold)
        lines = [header]
        for fold in Fold:
            row = self.matrix[int(fold)]
            lines.append(fold.label + "," + ",".join(f"{v:.4f}" for v in row))
        return "\n".join(lines) + "\n"


def expert_confusion_matrix(
    partials,
    subsets,
    labels,
    folds: FoldAssignment,
    fused_probabilities: np.ndarray | None = None,
) -> ExpertConfusionMatrix:
    """Attribute each sample to the expert owning the fused argmax class.

    The fusion strategy is a parameter: pass any fused posterior matrix, or
    leave it out to use soft-voting. Rows with no samples stay at zero.
    """
    class_count = len(folds.fold_of_class)
    if fused_probabilities is None:
        fused_probabilities = fuse_soft_vote(partials, subsets, class_count)
    labels = np.asarray(labels, dtype=np.int64)

    owner = np.full(class_count, -1, dtype=np.int64)
    for e, subset in enumerate(subsets):
        owner[subset.classes] = e
    if np.any(owner < 0):
        raise ValueError("subsets do not cover every class")

    winner = owner[np.argmax(fused_probabilities, axis=1)]
    sample_fold = folds.fold_of_samples(labels)
    counts = np.zeros((3, 3), dtype=np.int64)
    for f in range(3):
        mask = sample_fold == f
        if np.any(mask):
            counts[f] = np.bincount(winner[mask], minlength=3)
    row_totals = counts.sum(axis=1)
    matrix = np.zeros((3, 3))
    nonzero = row_totals > 0
    matrix[nonzero] = 100.0 * counts[nonzero] / row_totals[nonzero, None]
    return ExpertConfusionMatrix(matrix=matrix, row_counts=row_totals)


@dataclass(frozen=True)
class ConfidenceHistogram:
    """Histogram of maximum softmax probabilities over one population."""

    bin_edges: np.ndarray
    counts: np.ndarray
    population: str

    @property
    def size(self) -> int:
        return int(self.counts.sum())

    def mean_confidence(self) -> float:
        centers = 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])
        if self.size == 0:
            raise ValueError("histogram holds no samples")
        return float((centers * self.counts).sum() / self.size)

    def to_csv(self) -> str:
        lines = ["bin_lower,bin_upper,count"]
        for lo, hi, c in zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts):
            lines.append(f"{lo:.4f},{hi:.4f},{int(c)}")
        return "\n".join(lines) + "\n"


def confidence_histogram(probabilities, *, population: str = "") -> ConfidenceHistogram:
    """Histogram the per-row maximum probability of an (n, C) table over
    [0, 1] in ``HISTOGRAM_BINS`` equal bins."""
    probs = _as_array(probabilities)
    confidence = probs.max(axis=1)
    counts, edges = np.histogram(confidence, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return ConfidenceHistogram(bin_edges=edges, counts=counts, population=population)


def msp_histogram(
    expert: ExpertModel, features, *, class_count: int, population: str = ""
) -> ConfidenceHistogram:
    """Confidence histogram of an expert on a sample population, taken from
    the full-width expansion of its partial posterior over ``class_count``
    classes."""
    partial = expert_partial_posterior(expert, features)
    probs = expand_partial(partial.probabilities, expert.subset, class_count)
    return confidence_histogram(probs, population=population)


def take_one_out_ablation(
    tables: Mapping[str, np.ndarray],
    labels,
    folds: FoldAssignment,
) -> dict[str, EvalReport]:
    """Evaluate the soft-voted full ensemble and every leave-one-out
    sub-ensemble.

    ``tables`` maps model names to aligned full-width posterior matrices,
    each a ``None`` member of :func:`fuse_soft_vote`. Soft-voting needs no
    learned parameters. The result has one entry for the full ensemble plus
    one per removed model.
    """
    names = list(tables)
    if len(names) < 2:
        raise ValueError("take-one-out needs at least two models")
    labels = np.asarray(labels, dtype=np.int64)
    class_count = len(folds.fold_of_class)

    def evaluate(members: list[str]) -> EvalReport:
        fused = fuse_soft_vote([tables[m] for m in members], [None] * len(members), class_count)
        return fourfold_accuracy(np.argmax(fused, axis=1), labels, folds)

    out: dict[str, EvalReport] = {"ensemble": evaluate(names)}
    for name in names:
        rest = [m for m in names if m != name]
        out[f"without {name}"] = evaluate(rest)
    return out
