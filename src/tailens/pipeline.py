"""End-to-end orchestration: data, models, posteriors, fusion, reports.

Seeds for every training task are derived from one root seed with fixed
offsets, so results are reproducible and independent of any thread-level
parallelism (each task owns its generator). Training (baseline, uniform
finetune, per-subset grid search) and the fusion-strategy table are defined
here once; ``train_all`` and the CLI subcommands are both built on them. The
``synth60`` preset is the default desk-scale benchmark used by the test
suite and the walkthrough scripts.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ._io import DataError, atomic_write_json
from .config import (
    DatasetSection,
    ExpertSection,
    FusionSection,
    PathsSection,
    RunConfig,
    TrainingSection,
    train_config_from,
)
from .dataset import (
    DatasetBundle,
    Fold,
    FoldAssignment,
    SubsetSpec,
    assign_folds,
    generate_longtailed,
    load_bundle,
    partition_subsets,
)
from .experts import (
    ExpertModel,
    HyperparamSelection,
    PartialPosterior,
    expert_grid_tasks,
    expert_partial_posterior,
    finetune_uniform_classifier,
    score_expert_grid,
    train_baseline,
)
from .fusion import (
    CalibrationParams,
    LinearSoftmaxModel,
    fuse_by_selection,
    fuse_by_stacking,
    fuse_calibrated,
    fuse_kl_min,
    fuse_soft_vote,
    train_expert_selector,
    train_joint_calibration,
    train_stacker,
)
from .network import NetworkParams, fit_networks, forward_logits, softmax

# Fixed seed offsets for the pipeline's training tasks.
SEED_BASELINE = 1
SEED_UNIFORM = 2
SEED_EXPERT_BASE = 100  # expert e uses root + SEED_EXPERT_BASE * (e + 1)


def seed_for_expert(root_seed: int, expert: Fold) -> int:
    return root_seed + SEED_EXPERT_BASE * (int(expert) + 1)


def prepare_bundle(cfg: RunConfig) -> DatasetBundle:
    """The bundle that ``[dataset]`` describes: generated from the seed, or
    loaded from the manifest's CSVs."""
    d = cfg.dataset
    if d.source == "load":
        return load_bundle(d.manifest)
    return generate_longtailed(d.synthetic(), cfg.training.seed, (d.many_min, d.few_max))


def frequency_folds(bundle: DatasetBundle, cfg: RunConfig) -> FoldAssignment:
    """Manyshot / Mediumshot / Fewshot folds of the train split."""
    return assign_folds(bundle.train, (cfg.dataset.many_min, cfg.dataset.few_max))


def train_baselines(
    bundle: DatasetBundle, cfg: RunConfig
) -> tuple[tuple[NetworkParams, list[float]], tuple[NetworkParams, list[float]]]:
    """The baseline on the long-tailed train split, then its head refit with
    uniform class sampling; ``(params, loss trace)`` for each."""
    root = cfg.training.seed
    baseline, trace = train_baseline(
        bundle, train_config_from(cfg.training, seed=root + SEED_BASELINE)
    )
    uniform, uniform_trace = finetune_uniform_classifier(
        baseline, bundle, train_config_from(cfg.training, seed=root + SEED_UNIFORM, stage="uniform")
    )
    return (baseline, trace), (uniform, uniform_trace)


def _val_folds(bundle: DatasetBundle, folds: FoldAssignment) -> np.ndarray:
    """The fold of each validation sample. Each expert is scored, and the
    selector learns to pick it, on the validation samples of its fold, so a
    fold without one raises a :class:`DataError`."""
    of_samples = folds.fold_of_samples(bundle.val.labels)
    for fold in Fold:
        if not np.any(of_samples == fold):
            raise DataError(f"the val split holds no {fold.label} sample; every fold needs one")
    return of_samples


def select_experts(
    baseline: NetworkParams, bundle: DatasetBundle, cfg: RunConfig, threads: int = 1
) -> tuple[HyperparamSelection, ...]:
    """Grid-search (rho, frozen_layers) and train one expert per subset of
    the config's frequency folds; selections come back in fold order.

    The (subset, frozen) groups of :func:`expert_grid_tasks`, in fold, then
    frozen order, run through one ``map`` of :func:`fit_networks` (the
    builtin at one thread, a pool of ``min(threads, tasks)`` threads past
    one), and each subset is scored as its outcomes arrive. Every subset
    derives its own seed, so ``threads`` only changes wall time.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    folds = frequency_folds(bundle, cfg)
    subsets = partition_subsets(folds, bundle.train)
    _val_folds(bundle, folds)
    root = cfg.training.seed
    grids = [
        expert_grid_tasks(
            baseline, s, bundle, cfg.expert.rho_grid, cfg.expert.frozen_grid,
            train_config_from(
                cfg.training, seed=seed_for_expert(root, s.expert_id), stage="expert"
            ),
        )
        for s in subsets
    ]
    tasks = [task for grid in grids for task in grid]
    with ThreadPoolExecutor(min(threads, len(tasks))) as pool:
        # the builtin map is lazy, so at one thread a subset's losing points
        # are freed before the next subset trains
        outcomes = (map if threads == 1 else pool.map)(fit_networks, *zip(*tasks))
        return tuple(
            score_expert_grid(s, bundle.val, grid, [next(outcomes) for _ in grid])
            for s, grid in zip(subsets, grids)
        )


@dataclass(frozen=True)
class ExpertEnsemble:
    """The three experts with the bundle and folds they belong to: all that
    fusion consumes, whether the experts were just trained or loaded."""

    bundle: DatasetBundle
    folds: FoldAssignment
    experts: tuple[ExpertModel, ExpertModel, ExpertModel]
    _partials: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def partials(self, split: str) -> list[PartialPosterior]:
        """The experts' partial posteriors on ``split``, computed once per
        split; the arrays are read-only because every caller shares them."""
        memo = self._partials.get(split)
        if memo is None:
            features = getattr(self.bundle, split).features
            memo = tuple(expert_partial_posterior(e, features) for e in self.experts)
            for p in memo:
                p.logits.setflags(write=False)
                p.probabilities.setflags(write=False)
            self._partials[split] = memo
        return list(memo)

    def subset_list(self) -> list[SubsetSpec]:
        return [e.subset for e in self.experts]


@dataclass(frozen=True)
class TrainedEnsemble(ExpertEnsemble):
    """An expert ensemble plus the models and grid tables behind it."""

    baseline: NetworkParams
    baseline_trace: tuple[float, ...]
    uniform: NetworkParams
    selections: tuple[HyperparamSelection, HyperparamSelection, HyperparamSelection]


def train_all(bundle: DatasetBundle, cfg: RunConfig, threads: int = 1) -> TrainedEnsemble:
    """Train baseline, uniform finetune, and the three experts (with grids)
    through :func:`train_baselines` and :func:`select_experts`, the stages
    that ``tailens train-baseline`` and ``train-experts`` run.

    Thread count only affects wall-clock time: every task derives its own
    seed, so the results are identical for any ``threads`` of at least 1.
    """
    (baseline, trace), (uniform, _) = train_baselines(bundle, cfg)
    selections = select_experts(baseline, bundle, cfg, threads)
    return TrainedEnsemble(
        bundle=bundle,
        folds=frequency_folds(bundle, cfg),
        experts=tuple(sel.expert for sel in selections),
        baseline=baseline,
        baseline_trace=tuple(trace),
        uniform=uniform,
        selections=selections,
    )


def full_posterior_table(model: NetworkParams, features) -> np.ndarray:
    return softmax(forward_logits(model, features))


def model_posterior_tables(ensemble: TrainedEnsemble, split: str) -> dict[str, np.ndarray]:
    """Full-width posteriors for the three ensemble members of the ablation:
    baseline, uniform finetune, and the soft-voted experts."""
    features = getattr(ensemble.bundle, split).features
    partials = ensemble.partials(split)
    return {
        "baseline": full_posterior_table(ensemble.baseline, features),
        "uniform": full_posterior_table(ensemble.uniform, features),
        "experts": fuse_soft_vote(
            partials, ensemble.subset_list(), ensemble.bundle.class_count
        ),
    }


@dataclass(frozen=True)
class FusionStrategy:
    """One fusion strategy. ``fit(ensemble)`` learns parameters from the
    validation partials (None when there is nothing to learn);
    ``apply(partials, subsets, class_count, params)`` returns full
    posteriors. Every solver and meta-model runs at its function's
    defaults. The callables look fusion functions up in this module's
    globals at call time, so rebinding a module attribute reaches them."""

    apply: Callable[..., np.ndarray]
    fit: Callable[..., object] | None = None


@dataclass(frozen=True)
class FittedFusion:
    """A strategy name with the parameters its ``fit`` returned, if any."""

    strategy: str
    params: object = None


# the certificate of each fitted fusion: its Newton step count, then floats
_CERTIFICATES = {
    "select": ("steps", "gradient_norm"),
    "stack": ("steps", "gradient_norm"),
    "calibrate": ("steps", "gradient_norm", "objective_initial", "objective_final"),
}


def save_fusion(path, fitted: FittedFusion) -> None:
    """Write a fitted fusion as one JSON record: its ``strategy``, its
    arrays as nested lists (JSON writes floats with ``repr``, so they read
    back bitwise) and the certificate of its fit."""
    params = fitted.params
    record = {"strategy": fitted.strategy}
    record.update((name, getattr(params, name)) for name in _CERTIFICATES[fitted.strategy])
    if fitted.strategy == "calibrate":
        record.update(
            scales=[w.tolist() for w in params.scales], shifts=[b.tolist() for b in params.shifts]
        )
    else:
        ((weight, bias),) = params.params.layers
        record.update(weight=weight.tolist(), bias=bias.tolist())
    atomic_write_json(path, record)


def _json_floats(value) -> np.ndarray:
    """A (nested) list of JSON numbers as a float array. Any other entry, a
    boolean or a string such as ``"1.5"`` that numpy would convert, raises
    a ``ValueError``."""
    if not all(type(v) in (int, float) for v in np.asarray(value, dtype=object).flat):
        raise ValueError("an array entry is not a number")
    return np.asarray(value, dtype=np.float64)


def load_fusion(path, strategy: str, ensemble: ExpertEnsemble) -> FittedFusion:
    """The fusion that :func:`save_fusion` wrote to ``path`` for
    ``strategy``, checked: the record's tag, its arrays (JSON numbers
    only), its certificate (``steps`` a count, every other entry a finite,
    non-negative float) and its widths against the ensemble's experts.
    Anything else raises a :class:`DataError` that names the file and the
    command that rewrites it."""

    def error(problem: str) -> DataError:
        return DataError(f"{path}: {problem}; re-run `tailens train-fusion --strategy {strategy}`")

    heads = [e.params.dims[-1] for e in ensemble.experts]
    try:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        if record["strategy"] != strategy:
            raise ValueError(strategy)
        certificate = {name: record.get(name) for name in _CERTIFICATES[strategy]}
        if strategy == "calibrate":
            vectors = (tuple(_json_floats(v) for v in record[key]) for key in ("scales", "shifts"))
            params = CalibrationParams(*vectors, **certificate)
            widths, expected = list(params.widths), heads
        else:
            layer = tuple(_json_floats(record[key]) for key in ("weight", "bias"))
            params = LinearSoftmaxModel(NetworkParams([layer]), **certificate)
            outputs = len(heads) if strategy == "select" else ensemble.bundle.class_count
            widths, expected = params.params.dims, [sum(heads), outputs]
    except (ValueError, KeyError, TypeError):
        raise error(f"not a {strategy} parameter file") from None
    steps, *values = certificate.values()
    if type(steps) is not int or steps < 0 or not all(
        type(v) is float and 0 <= v < math.inf for v in values
    ):
        raise error(f"{strategy} certificate is malformed")
    if widths != expected:
        raise error(f"{strategy} widths {widths} do not match the experts' {expected}")
    return FittedFusion(strategy, params)


# One record per name in config.FUSION_STRATEGIES.
FUSIONS: dict[str, FusionStrategy] = {
    "softvote": FusionStrategy(
        apply=lambda partials, subsets, c, params: fuse_soft_vote(partials, subsets, c)
    ),
    "kl": FusionStrategy(
        apply=lambda partials, subsets, c, params: fuse_kl_min(
            partials, subsets, c
        ).probabilities
    ),
    "select": FusionStrategy(
        apply=lambda partials, subsets, c, params: fuse_by_selection(
            partials, params, subsets, c
        ),
        fit=lambda ensemble: train_expert_selector(
            ensemble.partials("val"), _val_folds(ensemble.bundle, ensemble.folds)
        ),
    ),
    "stack": FusionStrategy(
        apply=lambda partials, subsets, c, params: fuse_by_stacking(partials, params),
        fit=lambda ensemble: train_stacker(
            ensemble.partials("val"), ensemble.bundle.val.labels, ensemble.bundle.class_count
        ),
    ),
    "calibrate": FusionStrategy(
        apply=lambda partials, subsets, c, params: fuse_calibrated(
            [p.logits for p in partials], params, subsets, c
        ),
        fit=lambda ensemble: train_joint_calibration(
            [p.logits for p in ensemble.partials("val")],
            ensemble.subset_list(),
            ensemble.bundle.val.labels,
            ensemble.bundle.class_count,
        )[0],
    ),
}


def train_fusion(ensemble: ExpertEnsemble, cfg: RunConfig, strategy: str) -> FittedFusion:
    """Fit whatever the strategy needs on the validation split. No fit
    reads ``cfg`` or draws random numbers; like :func:`fused_posteriors`,
    this keeps ``cfg`` for the callers that pass it."""
    fit = FUSIONS[strategy].fit
    return FittedFusion(strategy, None if fit is None else fit(ensemble))


def fused_posteriors(
    ensemble: ExpertEnsemble,
    artifacts: FittedFusion,
    cfg: RunConfig,
    split: str = "test",
) -> np.ndarray:
    """Apply a trained fusion strategy to one split. No strategy reads
    ``cfg``; it stays in the signature to mirror :func:`train_fusion`."""
    return FUSIONS[artifacts.strategy].apply(
        ensemble.partials(split),
        ensemble.subset_list(),
        ensemble.bundle.class_count,
        artifacts.params,
    )


def synth60_config(seed: int = 0, out_dir: str = "runs/synth60") -> RunConfig:
    """The pinned desk-scale benchmark: 60 power-law classes in 16 dims.

    The noise scale puts the baseline's balanced-test accuracy in the
    0.5..0.8 band while the class blobs stay geometrically separable, so the
    baseline's Fewshot deficit is a relative-imbalance effect rather than an
    information limit. Experts finetune from the baseline on their own,
    longer schedule; the baseline itself stays deliberately short.
    """
    return RunConfig(
        dataset=DatasetSection(
            source="generate",
            class_count=60,
            feature_dim=16,
            n_max=500,
            alpha=1.2,
            n_val_per_class=20,
            n_test_per_class=50,
            noise_scale=0.42,
        ),
        training=TrainingSection(
            lr0=0.2,
            epochs=20,
            batch_size=128,
            weight_decay=1e-4,
            seed=seed,
            hidden_dims=(64,),
            expert_epochs=200,
        ),
        expert=ExpertSection(rho_grid=(1.0, 2.0, 4.0, 8.0), frozen_grid=(0, 1)),
        fusion=FusionSection(),
        paths=PathsSection(out_dir=out_dir),
    )
