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
class ExpertModel:
    """Classifier over ``subset`` plus a trailing reject output."""

    params: NetworkParams
    subset: SubsetSpec
    rho: float
    frozen_layers: int

    def __post_init__(self):
        if self.params.dims[-1] != self.subset.size + 1:
            raise ValueError(
                f"expert head width {self.params.dims[-1]} does not equal "
                f"subset size {self.subset.size} + 1"
            )
        SamplerMode.reject_undersampled(self.rho)  # raises unless finite and >= 1

    @property
    def reject_index(self) -> int:
        return self.subset.size


@dataclass(frozen=True)
class PartialPosterior:
    """An expert's probabilities over its subset plus reject (reject last).

    ``logits`` already include the reject bias correction, so downstream
    fusion can consume them directly.
    """

    logits: np.ndarray
    probabilities: np.ndarray


def train_baseline(
    bundle: DatasetBundle, config: TrainConfig
) -> tuple[NetworkParams, list[float]]:
    """Train the all-classes softmax classifier on the long-tailed train
    split."""
    dims = [bundle.feature_dim, *config.hidden_dims, bundle.class_count]
    params = init_network(dims, seed=config.seed)
    cfg = replace(config, sampler=SamplerMode.instance_balanced(), frozen_layers=0)
    return train_network(params, bundle.train, cfg)


def finetune_uniform_classifier(
    baseline: NetworkParams, bundle: DatasetBundle, config: TrainConfig
) -> tuple[NetworkParams, list[float]]:
    """Refit only the classifier head with uniform class sampling.

    The whole backbone is frozen, so feature extraction stays bit-identical
    to the baseline while the decision boundary is rebalanced. The trace is
    the mean mini-batch loss of each epoch under class-balanced sampling:
    the loss the refit minimizes, not the long-tailed dataset's.
    """
    cfg = replace(
        config,
        sampler=SamplerMode.uniform_class(),
        frozen_layers=baseline.layer_count - 1,
    )
    return train_network(baseline, bundle.train, cfg)


def check_expert_grid(rho_grid, frozen_grid, depth: int) -> tuple[list[SamplerMode], list[int]]:
    """The grid as one sampler per rho and the frozen values. Each grid must
    be nonempty without a repeated value, each rho a ratio :class:`SamplerMode`
    accepts and each frozen value in ``[0, depth]``: an expert has ``depth``
    backbone layers under its new head, which must train."""
    rho_grid = [float(r) for r in rho_grid]
    frozen_grid = [int(f) for f in frozen_grid]
    for name, grid in (("rho_grid", rho_grid), ("frozen_grid", frozen_grid)):
        if not grid:
            raise ValueError(f"{name} must be nonempty")
        if repeated := [v for i, v in enumerate(grid) if v in grid[:i]]:
            raise ValueError(f"{name} repeats the value {repeated[0]!r}")
    if bad := [f for f in frozen_grid if not 0 <= f <= depth]:
        raise ValueError(
            f"frozen_grid value {bad[0]} is outside [0, {depth}], "
            f"the backbone depth under the expert's new head"
        )
    return [SamplerMode.reject_undersampled(rho) for rho in rho_grid], frozen_grid


def expert_grid_tasks(
    baseline: NetworkParams,
    subset: SubsetSpec,
    bundle: DatasetBundle,
    rho_grid,
    frozen_grid,
    config: TrainConfig,
) -> list[tuple[NetworkParams, EmbeddingDataset, list[TrainConfig]]]:
    """A subset's grid search as :func:`fit_networks` arguments: per frozen
    value, the expert's start (the baseline's backbone under a fresh
    (k+1)-way head), its relabeled training set and one config per rho."""
    depth = baseline.layer_count - 1
    samplers, frozen_grid = check_expert_grid(rho_grid, frozen_grid, depth)
    fresh = init_network(baseline.dims[:-1] + [subset.size + 1], seed=config.seed)
    for i in range(depth):
        w, b = baseline.layers[i]
        fresh.layers[i] = (w.copy(), b.copy())
    relabeled = relabel_for_expert(bundle.train, subset)
    return [
        (fresh, relabeled, [
            replace(config, sampler=sampler, frozen_layers=frozen) for sampler in samplers
        ])
        for frozen in frozen_grid
    ]


def train_expert(
    baseline: NetworkParams,
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
    [(fresh, relabeled, [cfg])] = expert_grid_tasks(
        baseline, subset, bundle, [rho], [frozen_layers], config
    )
    trained, trace = train_network(fresh, relabeled, cfg)
    expert = ExpertModel(
        params=trained, subset=subset, rho=float(rho), frozen_layers=frozen_layers
    )
    return expert, trace


def expert_partial_posterior(expert: ExpertModel, features) -> PartialPosterior:
    """Bias-corrected logits and probabilities for one or many samples."""
    z = forward_logits(expert.params, features)
    z[..., expert.reject_index] += math.log(expert.rho)
    return PartialPosterior(logits=z, probabilities=softmax(z))


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
    """A subset's grid table and its winning expert, which carries the
    chosen rho and frozen-layer count."""

    table: tuple[GridPoint, ...]
    expert: ExpertModel


def score_expert_grid(
    subset: SubsetSpec, val: EmbeddingDataset, tasks, outcomes
) -> HyperparamSelection:
    """The winner, by validation accuracy on the subset, of the outcomes of
    :func:`expert_grid_tasks`' tasks, and the table, rho outer, frozen
    inner. The first diverged point's error in that order is raised. Ties
    go to the larger rho, then to the larger frozen-layer count."""
    columns = [zip(configs, results) for (_, _, configs), results in zip(tasks, outcomes)]
    table, best = [], None
    for row in zip(*columns):  # one rho value, every frozen value
        for cfg, outcome in row:
            if isinstance(outcome, DivergenceError):
                raise outcome
            rho, frozen = cfg.sampler.rho, cfg.frozen_layers
            expert = ExpertModel(params=outcome[0], subset=subset, rho=rho, frozen_layers=frozen)
            table.append(GridPoint(rho, frozen, expert_subset_accuracy(expert, val)))
            if best is None or (table[-1].val_accuracy, rho, frozen) > best[0]:
                best = (table[-1].val_accuracy, rho, frozen), expert
    return HyperparamSelection(table=tuple(table), expert=best[1])


def select_expert_hyperparams(
    baseline: NetworkParams,
    subset: SubsetSpec,
    bundle: DatasetBundle,
    rho_grid,
    frozen_grid,
    config: TrainConfig,
) -> HyperparamSelection:
    """Grid-search (rho, frozen_layers) for one subset: the tasks of
    :func:`expert_grid_tasks` through :func:`fit_networks`, then scored."""
    tasks = expert_grid_tasks(baseline, subset, bundle, rho_grid, frozen_grid, config)
    return score_expert_grid(subset, bundle.val, tasks, list(map(fit_networks, *zip(*tasks))))


def save_expert_checkpoint(path, expert: ExpertModel) -> None:
    meta = {
        "kind": "expert",
        "expert_id": int(expert.subset.expert_id),
        "subset_classes": [int(c) for c in expert.subset.classes],
        "rho": float(expert.rho),
        "frozen_layers": int(expert.frozen_layers),
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
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed expert checkpoint ({exc!r})") from None


def save_baseline_checkpoint(path, model: NetworkParams) -> None:
    save_checkpoint(path, model, {"kind": "baseline"})


def load_baseline_checkpoint(path) -> NetworkParams:
    params, meta = load_checkpoint(path)
    if meta.get("kind") != "baseline":
        raise DataError(f"{path}: not a baseline checkpoint")
    return params
