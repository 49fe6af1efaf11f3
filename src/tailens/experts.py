"""Baseline, uniform-sampling finetune, and class-balanced expert training.

An expert is a classifier over one class subset plus a reject output that
absorbs everything else. Its backbone is copied from the baseline model
(knowledge transfer from the head of the distribution), its head is freshly
initialized at width k+1, and training undersamples reject draws by the
ratio rho. At inference the reject logit is incremented by log(rho), which
multiplies the reject-vs-class posterior odds by exactly rho and undoes the
sampling bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._io import DataError
from .dataset import (
    DatasetBundle,
    EmbeddingDataset,
    Fold,
    SamplerMode,
    SubsetSpec,
    relabel_for_expert,
)
from .network import (
    DivergenceError,
    NetworkParams,
    TrainConfig,
    fit_networks,
    forward_logits,
    init_network,
    load_checkpoint,
    save_checkpoint,
    softmax,
    train_network,
)


@dataclass(frozen=True)
class BaselineModel:
    """Plain softmax classifier over all classes."""

    params: NetworkParams


@dataclass(frozen=True)
class ExpertModel:
    """Classifier over ``subset`` plus a trailing reject output."""

    params: NetworkParams
    subset: SubsetSpec
    rho: float
    frozen_layers: int
    apply_reject_correction: bool = True

    def __post_init__(self):
        if self.params.dims[-1] != self.subset.size + 1:
            raise ValueError(
                f"expert head width {self.params.dims[-1]} does not equal "
                f"subset size {self.subset.size} + 1"
            )
        if not self.rho >= 1.0:
            raise ValueError("rho must be >= 1")

    @property
    def reject_index(self) -> int:
        return self.subset.size


@dataclass(frozen=True)
class PartialPosterior:
    """An expert's probabilities over its subset plus reject (reject last).

    ``logits`` already include the reject bias correction when the expert
    applies one, so downstream fusion can consume them directly.
    """

    expert_id: Fold
    logits: np.ndarray
    probabilities: np.ndarray


def train_baseline(
    bundle: DatasetBundle, config: TrainConfig
) -> tuple[BaselineModel, list[float]]:
    """Train the all-classes model on the long-tailed train split."""
    dims = [bundle.feature_dim, *config.hidden_dims, bundle.class_count]
    params = init_network(dims, seed=config.seed)
    cfg = replace(config, sampler=SamplerMode.instance_balanced(), frozen_layers=0)
    trained, trace = train_network(params, bundle.train, cfg)
    return BaselineModel(trained), trace


def finetune_uniform_classifier(
    baseline: BaselineModel, bundle: DatasetBundle, config: TrainConfig
) -> tuple[BaselineModel, list[float]]:
    """Refit only the classifier head with uniform class sampling.

    The whole backbone is frozen, so feature extraction stays bit-identical
    to the baseline while the decision boundary is rebalanced. The trace is
    the mean mini-batch loss of each epoch under class-balanced sampling:
    the loss the refit minimizes, not the long-tailed dataset's.
    """
    cfg = replace(
        config,
        sampler=SamplerMode.uniform_class(),
        frozen_layers=baseline.params.layer_count - 1,
    )
    trained, trace = train_network(baseline.params, bundle.train, cfg)
    return BaselineModel(trained), trace


def _expert_start(
    baseline: BaselineModel, subset: SubsetSpec, bundle: DatasetBundle, config: TrainConfig
) -> tuple[NetworkParams, EmbeddingDataset]:
    """An expert's initial parameters (the baseline's backbone under a fresh
    (k+1)-way head) and its relabeled training set."""
    dims = baseline.params.dims[:-1] + [subset.size + 1]
    fresh = init_network(dims, seed=config.seed)
    for i in range(baseline.params.layer_count - 1):
        w, b = baseline.params.layers[i]
        fresh.layers[i] = (w.copy(), b.copy())
    return fresh, relabel_for_expert(bundle.train, subset)


def _expert_config(config: TrainConfig, rho: float, frozen_layers: int) -> TrainConfig:
    if not rho >= 1.0:
        raise ValueError("rho must be >= 1")
    return replace(
        config,
        sampler=SamplerMode.reject_undersampled(rho),
        frozen_layers=frozen_layers,
    )


def train_expert(
    baseline: BaselineModel,
    subset: SubsetSpec,
    bundle: DatasetBundle,
    rho: float,
    frozen_layers: int,
    config: TrainConfig,
) -> tuple[ExpertModel, list[float]]:
    """Train one expert on its relabeled subset with reject undersampling.

    Backbone weights start as copies of the baseline's; the (k+1)-way head is
    re-initialized. The first ``frozen_layers`` layers never change, so they
    remain bit-identical to the baseline.
    """
    cfg = _expert_config(config, rho, frozen_layers)
    fresh, relabeled = _expert_start(baseline, subset, bundle, config)
    trained, trace = train_network(fresh, relabeled, cfg)
    expert = ExpertModel(
        params=trained, subset=subset, rho=float(rho), frozen_layers=frozen_layers
    )
    return expert, trace


def expert_partial_posterior(expert: ExpertModel, features) -> PartialPosterior:
    """Bias-corrected logits and probabilities for one or many samples."""
    z = forward_logits(expert.params, features)
    z = np.array(z, dtype=np.float64)
    if expert.apply_reject_correction:
        z[..., expert.reject_index] += math.log(expert.rho)
    return PartialPosterior(
        expert_id=expert.subset.expert_id, logits=z, probabilities=softmax(z)
    )


def _in_subset_predictions(expert: ExpertModel, dataset: EmbeddingDataset):
    """The rows of ``dataset`` whose class lies in the expert's subset (a
    mask), their local labels, and the argmax over the subset's outputs
    only, the reject output left out."""
    local = expert.subset.local_map(dataset.class_count)[dataset.labels]
    mask = local >= 0
    partial = expert_partial_posterior(expert, dataset.features[mask])
    return mask, local[mask], np.argmax(partial.probabilities[:, : expert.subset.size], axis=1)


def expert_subset_accuracy(expert: ExpertModel, dataset: EmbeddingDataset) -> float:
    """Accuracy on the samples whose true class lies in the expert's subset.

    Out-of-subset (reject) samples are excluded from the score. The
    prediction is the argmax over the subset classes only, measuring the
    expert's discrimination on its own job independently of how much mass
    the reject correction moves.
    """
    _, local, preds = _in_subset_predictions(expert, dataset)
    if not local.size:
        raise ValueError(
            f"no {expert.subset.expert_id.label} samples available for scoring"
        )
    return float(np.mean(preds == local))


@dataclass(frozen=True)
class GridPoint:
    rho: float
    frozen_layers: int
    val_accuracy: float


@dataclass(frozen=True)
class HyperparamSelection:
    rho: float
    frozen_layers: int
    table: tuple[GridPoint, ...]
    expert: ExpertModel


def select_expert_hyperparams(
    baseline: BaselineModel,
    subset: SubsetSpec,
    bundle: DatasetBundle,
    rho_grid,
    frozen_grid,
    config: TrainConfig,
) -> HyperparamSelection:
    """Grid-search (rho, frozen_layers) by validation accuracy on the subset.

    One expert is trained per grid point, each exactly as :func:`train_expert`
    trains it: the points of one frozen value differ only in rho, so they
    train in lockstep in one :func:`fit_networks` call. Ties go to the
    larger rho, then to the larger frozen-layer count (the cheaper model).
    The winning expert is returned alongside the full score table, whose
    order is rho outer, frozen inner. Every point is trained; if any
    diverges, the :class:`DivergenceError` of the first such point in table
    order is raised.
    """
    rho_grid = [float(r) for r in rho_grid]
    frozen_grid = [int(f) for f in frozen_grid]
    if not rho_grid or not frozen_grid:
        raise ValueError("hyperparameter grids must be nonempty")

    fresh, relabeled = _expert_start(baseline, subset, bundle, config)
    points = [(rho, frozen) for rho in rho_grid for frozen in frozen_grid]
    configs = [_expert_config(config, rho, frozen) for rho, frozen in points]
    outcomes: list = [None] * len(points)
    for column in range(len(frozen_grid)):
        group = slice(column, None, len(frozen_grid))  # one frozen value's points
        outcomes[group] = fit_networks(fresh, relabeled, configs[group])
    for outcome in outcomes:
        if isinstance(outcome, DivergenceError):
            raise outcome

    table: list[GridPoint] = []
    best: tuple[float, float, int] | None = None
    best_expert: ExpertModel | None = None
    for (rho, frozen), (trained, _) in zip(points, outcomes):
        expert = ExpertModel(params=trained, subset=subset, rho=rho, frozen_layers=frozen)
        score = expert_subset_accuracy(expert, bundle.val)
        table.append(GridPoint(rho=rho, frozen_layers=frozen, val_accuracy=score))
        key = (score, rho, frozen)
        if best is None or key > best:
            best = key
            best_expert = expert
    assert best is not None and best_expert is not None
    return HyperparamSelection(
        rho=best[1],
        frozen_layers=best[2],
        table=tuple(table),
        expert=best_expert,
    )


def save_expert_checkpoint(path, expert: ExpertModel) -> None:
    meta = {
        "kind": "expert",
        "expert_id": int(expert.subset.expert_id),
        "subset_classes": [int(c) for c in expert.subset.classes],
        "rho": float(expert.rho),
        "frozen_layers": int(expert.frozen_layers),
        "apply_reject_correction": bool(expert.apply_reject_correction),
    }
    save_checkpoint(path, expert.params, meta)


def load_expert_checkpoint(path) -> ExpertModel:
    params, meta = load_checkpoint(path)
    if meta.get("kind") != "expert":
        raise DataError(f"{path}: not an expert checkpoint")
    try:
        subset = SubsetSpec(
            expert_id=Fold(meta["expert_id"]),
            classes=np.asarray(meta["subset_classes"], dtype=np.int64),
        )
        return ExpertModel(
            params=params,
            subset=subset,
            rho=float(meta["rho"]),
            frozen_layers=int(meta["frozen_layers"]),
            apply_reject_correction=bool(meta["apply_reject_correction"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed expert checkpoint ({exc!r})") from None


def save_baseline_checkpoint(path, model: BaselineModel) -> None:
    save_checkpoint(path, model.params, {"kind": "baseline"})


def load_baseline_checkpoint(path) -> BaselineModel:
    params, meta = load_checkpoint(path)
    if meta.get("kind") != "baseline":
        raise DataError(f"{path}: not a baseline checkpoint")
    return BaselineModel(params)
