"""Posterior fusion: from per-expert partial posteriors to full posteriors.

The expansion map spreads an expert's reject probability uniformly over the
classes outside its subset, turning a (k+1)-vector into a distribution over
all C classes. Five fusion strategies are built on top of it:

* soft-voting: average the expanded posteriors;
* KL minimization: fit one distribution that all partial posteriors agree
  with, by gradient descent on its logits;
* expert selection: a 3-way linear classifier picks the expert whose
  expansion becomes the answer;
* stacking: a linear softmax layer maps concatenated partial posteriors
  straight to class probabilities;
* joint calibration: per-expert elementwise scale and shift of the logits,
  trained to minimize validation cross-entropy of the soft-vote combination.

Full-width posteriors (no reject entry) participate everywhere by passing
``None`` in place of a subset, which makes diverse ensembles of external
models possible.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._io import atomic_write_json, atomic_write_text, format_float
from .dataset import EmbeddingDataset, SamplerMode, SubsetSpec
from .experts import PartialPosterior
from .network import (
    DivergenceError,
    NetworkParams,
    TrainConfig,
    _central_difference_error,
    forward_logits,
    init_network,
    softmax,
    train_network,
)

REJECT_DROP_WARNING = (
    "expert covers every class; reject mass was dropped and the row renormalized"
)


def _as_probabilities(partial) -> np.ndarray:
    if isinstance(partial, PartialPosterior):
        return np.asarray(partial.probabilities, dtype=np.float64)
    return np.asarray(partial, dtype=np.float64)


def _as_logits(partial) -> np.ndarray:
    if isinstance(partial, PartialPosterior):
        return np.asarray(partial.logits, dtype=np.float64)
    return np.asarray(partial, dtype=np.float64)


def _rows(arr: np.ndarray) -> tuple[np.ndarray, bool]:
    """Promote a vector to a one-row matrix; report whether it was 1d."""
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise ValueError(f"expected 1d or 2d array, got ndim={arr.ndim}")


def expand_partial(partial, subset: SubsetSpec | None, class_count: int) -> np.ndarray:
    """Expand a partial posterior to all ``class_count`` classes.

    In-subset probabilities keep their global positions; the reject entry is
    split evenly over the out-of-subset classes. A ``None`` subset means the
    input is already full-width and is returned as-is (validated). The
    degenerate case of a subset covering every class drops the reject mass,
    renormalizes, and warns.
    """
    probs = _as_probabilities(partial)
    rows, single = _rows(probs)
    if subset is None:
        if rows.shape[1] != class_count:
            raise ValueError(
                f"full-width posterior has {rows.shape[1]} entries, expected {class_count}"
            )
        out = rows.copy()
        return out[0] if single else out

    k = subset.size
    if rows.shape[1] != k + 1:
        raise ValueError(
            f"partial posterior has {rows.shape[1]} entries, expected {k + 1}"
        )
    out_classes = subset.out_classes(class_count)
    full = np.zeros((rows.shape[0], class_count))
    full[:, subset.classes] = rows[:, :k]
    if len(out_classes):
        full[:, out_classes] += rows[:, k : k + 1] / len(out_classes)
    else:
        if np.any(rows[:, k] > 0):
            warnings.warn(REJECT_DROP_WARNING, stacklevel=2)
            full /= full.sum(axis=1, keepdims=True)
    return full[0] if single else full


def _expanded_rows(partials, subsets, class_count: int) -> tuple[list[np.ndarray], bool]:
    if len(partials) != len(subsets):
        raise ValueError("need one subset (or None) per partial posterior")
    if len(partials) == 0:
        raise ValueError("need at least one partial posterior")
    expanded = []
    single = True
    for partial, subset in zip(partials, subsets):
        probs = _as_probabilities(partial)
        rows, was_1d = _rows(probs)
        single = single and was_1d
        expanded.append(expand_partial(rows, subset, class_count))
    sizes = {e.shape[0] for e in expanded}
    if len(sizes) != 1:
        raise ValueError(f"partial posteriors disagree on sample count: {sorted(sizes)}")
    return expanded, single


def _combine_expansions(expanded: list[np.ndarray]) -> np.ndarray:
    q = np.stack(expanded).mean(axis=0)
    return q / q.sum(axis=1, keepdims=True)


def fuse_soft_vote(partials, subsets, class_count: int) -> np.ndarray:
    """Average the expanded partial posteriors and renormalize."""
    expanded, single = _expanded_rows(partials, subsets, class_count)
    q = _combine_expansions(expanded)
    return q[0] if single else q


@dataclass(frozen=True)
class KLFusionResult:
    probabilities: np.ndarray
    objective: np.ndarray | float
    steps_taken: int


def _kl_terms(q, p_rows, subset, class_count):
    """Per-sample KL(p || align(q)) and the aligned gradient pieces."""
    if subset is None:
        aligned = np.maximum(q, 1e-300)
        obj = np.where(p_rows > 0, p_rows * (np.log(p_rows, where=p_rows > 0) - np.log(aligned)), 0.0).sum(axis=1)
        dq = -p_rows / aligned
        return obj, dq
    k = subset.size
    out_classes = subset.out_classes(class_count)
    p_in = p_rows[:, :k]
    p_rej = p_rows[:, k]
    a_in = np.maximum(q[:, subset.classes], 1e-300)
    obj = np.where(p_in > 0, p_in * (np.log(p_in, where=p_in > 0) - np.log(a_in)), 0.0).sum(axis=1)
    dq = np.zeros_like(q)
    dq[:, subset.classes] = -p_in / a_in
    if len(out_classes):
        a_rej = np.maximum(q[:, out_classes].sum(axis=1), 1e-300)
        obj += np.where(p_rej > 0, p_rej * (np.log(p_rej, where=p_rej > 0) - np.log(a_rej)), 0.0)
        dq[:, out_classes] += (-p_rej / a_rej)[:, None]
    return obj, dq


def fuse_kl_min(
    partials,
    subsets,
    class_count: int,
    *,
    steps: int = 2000,
    step_size: float = 0.5,
    tol: float = 1e-12,
) -> KLFusionResult:
    """Full posterior minimizing the summed KL divergence from every
    partial posterior.

    The candidate q is parameterized through logits and optimized by plain
    gradient descent, starting from the soft-vote combination. Out-of-subset
    probability in q is pooled into one reject score when compared against a
    subset expert, which aligns the two distributions. The best iterate per
    sample is kept, so the returned objective never exceeds the soft-vote
    value. The reported objective is the sum over experts.
    """
    prob_rows = []
    single = True
    for partial in partials:
        rows, was_1d = _rows(_as_probabilities(partial))
        single = single and was_1d
        prob_rows.append(rows)
    if len(prob_rows) != len(subsets) or not prob_rows:
        raise ValueError("need one subset (or None) per partial posterior")

    n_experts = len(prob_rows)
    q0 = fuse_soft_vote(prob_rows, subsets, class_count)
    q0 = np.atleast_2d(q0)
    z = np.log(q0 + 1e-12)

    def objective_and_grad(z_now):
        q = softmax(z_now)
        total = np.zeros(q.shape[0])
        dq = np.zeros_like(q)
        for p_rows, subset in zip(prob_rows, subsets):
            obj_e, dq_e = _kl_terms(q, p_rows, subset, class_count)
            total += obj_e
            dq += dq_e
        total /= n_experts
        dq /= n_experts
        inner = (q * dq).sum(axis=1, keepdims=True)
        grad_z = q * (dq - inner)
        return total, grad_z

    obj, grad = objective_and_grad(z)
    if not np.all(np.isfinite(obj)):
        raise DivergenceError("KL fusion objective is non-finite at initialization")
    best_obj = obj.copy()
    best_z = z.copy()
    steps_taken = 0
    for step in range(steps):
        z = z - step_size * grad
        obj_new, grad = objective_and_grad(z)
        if not np.all(np.isfinite(obj_new)):
            raise DivergenceError(f"KL fusion objective became non-finite at step {step}")
        improved = obj_new < best_obj
        if np.any(improved):
            best_obj = np.where(improved, obj_new, best_obj)
            best_z[improved] = z[improved]
        steps_taken = step + 1
        if np.max(obj - obj_new) < tol:
            obj = obj_new
            break
        obj = obj_new

    q = softmax(best_z)
    q /= q.sum(axis=1, keepdims=True)
    objective = best_obj * n_experts
    if single:
        return KLFusionResult(q[0], float(objective[0]), steps_taken)
    return KLFusionResult(q, objective, steps_taken)


def concat_partials(partials) -> np.ndarray:
    """Concatenate partial posterior probabilities into one feature matrix."""
    rows = [_rows(_as_probabilities(p))[0] for p in partials]
    return np.concatenate(rows, axis=1)


@dataclass(frozen=True)
class SelectorModel:
    """Linear softmax picking which expert owns a sample's true class."""

    params: NetworkParams

    def scores(self, partials) -> np.ndarray:
        return softmax(forward_logits(self.params, concat_partials(partials)))


@dataclass(frozen=True)
class StackerModel:
    """Linear softmax from concatenated partial posteriors to all classes."""

    params: NetworkParams

    @property
    def class_count(self) -> int:
        return self.params.dims[-1]


def _meta_train_config(seed, epochs, lr0, batch_size, weight_decay) -> TrainConfig:
    return TrainConfig(
        lr0=lr0,
        epochs=epochs,
        batch_size=batch_size,
        sampler=SamplerMode.instance_balanced(),
        seed=seed,
        weight_decay=weight_decay,
        hidden_dims=(),
    )


def train_expert_selector(
    val_partials,
    val_fold_labels,
    *,
    seed: int = 0,
    epochs: int = 100,
    lr0: float = 0.5,
    batch_size: int = 64,
    weight_decay: float = 0.0,
) -> SelectorModel:
    """Train the 3-way expert selector on validation partial posteriors.

    The target of a sample is the expert whose subset holds its true class,
    in expert order (manyshot, mediumshot, fewshot). Every fold must appear
    in the validation labels.
    """
    features = concat_partials(val_partials)
    labels = np.asarray(val_fold_labels, dtype=np.int64)
    expert_count = len(val_partials)
    present = set(np.unique(labels).tolist())
    for e in range(expert_count):
        if e not in present:
            raise ValueError(f"fold {e} is absent from the validation labels")
    ds = EmbeddingDataset(features, labels, class_count=expert_count)
    params = init_network([features.shape[1], expert_count], seed=seed)
    trained, _ = train_network(
        params, ds, _meta_train_config(seed, epochs, lr0, batch_size, weight_decay)
    )
    return SelectorModel(trained)


def fuse_by_selection(
    partials, selector: SelectorModel, subsets, class_count: int
) -> np.ndarray:
    """Expand the posterior of the selector's argmax expert per sample.

    Ties go to the earliest expert in the list order, i.e. manyshot before
    mediumshot before fewshot.
    """
    expanded, single = _expanded_rows(partials, subsets, class_count)
    scores = np.atleast_2d(selector.scores(partials))
    winner = np.argmax(scores, axis=1)
    stacked = np.stack(expanded)
    q = stacked[winner, np.arange(stacked.shape[1])]
    return q[0] if single else q


def train_stacker(
    val_partials,
    val_class_labels,
    class_count: int,
    *,
    seed: int = 0,
    epochs: int = 100,
    lr0: float = 0.5,
    batch_size: int = 64,
    weight_decay: float = 0.0,
) -> StackerModel:
    """Train the single-layer linear softmax stacker on validation data."""
    features = concat_partials(val_partials)
    labels = np.asarray(val_class_labels, dtype=np.int64)
    ds = EmbeddingDataset(features, labels, class_count=class_count)
    params = init_network([features.shape[1], class_count], seed=seed)
    trained, _ = train_network(
        params, ds, _meta_train_config(seed, epochs, lr0, batch_size, weight_decay)
    )
    return StackerModel(trained)


def fuse_by_stacking(partials, stacker: StackerModel) -> np.ndarray:
    features = concat_partials(partials)
    single = all(_as_probabilities(p).ndim == 1 for p in partials)
    q = softmax(forward_logits(stacker.params, features))
    return q[0] if single else q


@dataclass(frozen=True)
class CalibrationParams:
    """Per-expert elementwise logit scale and shift vectors."""

    scales: tuple[np.ndarray, ...]
    shifts: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.scales) != len(self.shifts):
            raise ValueError("need one shift vector per scale vector")
        for i, (w, b) in enumerate(zip(self.scales, self.shifts)):
            if w.shape != b.shape or w.ndim != 1:
                raise ValueError(f"calibration vectors for expert {i} are inconsistent")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"calibration vectors for expert {i} are non-finite")

    @classmethod
    def identity(cls, widths) -> "CalibrationParams":
        return cls(
            scales=tuple(np.ones(int(m)) for m in widths),
            shifts=tuple(np.zeros(int(m)) for m in widths),
        )

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.scales)


def fuse_calibrated(
    partial_logits, calib: CalibrationParams, subsets, class_count: int
) -> np.ndarray:
    """Soft-vote of the expansions of softmax(w * z + b) per expert."""
    if len(partial_logits) != len(calib.scales):
        raise ValueError("calibration parameters do not match the expert count")
    if len(subsets) != len(partial_logits):
        raise ValueError("need one subset (or None) per partial posterior")
    logit_rows = []
    single = True
    for logits, w in zip(partial_logits, calib.scales):
        rows, was_1d = _rows(_as_logits(logits))
        single = single and was_1d
        if rows.shape[1] != len(w):
            raise ValueError(
                f"logit width {rows.shape[1]} does not match calibration width {len(w)}"
            )
        logit_rows.append(rows)
    _, q = _calibration_forward(logit_rows, subsets, class_count, calib.scales, calib.shifts)
    q = q / q.sum(axis=1, keepdims=True)
    return q[0] if single else q


def _calibration_forward(logit_rows, subsets, class_count, scales, shifts):
    """Per-expert softmax(w * z + b) and the mean of their expansions."""
    probs = [softmax(z * w + b) for z, w, b in zip(logit_rows, scales, shifts)]
    expanded = [expand_partial(p, s, class_count) for p, s in zip(probs, subsets)]
    q = np.stack(expanded).mean(axis=0)
    return probs, q


def _calibration_objective(logit_rows, subsets, class_count, labels, scales, shifts):
    _, q = _calibration_forward(logit_rows, subsets, class_count, scales, shifts)
    return float(-np.log(q[np.arange(len(labels)), labels]).mean())


def _calibration_grad(logit_rows, subsets, class_count, labels, scales, shifts):
    """Analytic gradient of the validation cross-entropy in (scales, shifts).

    Chains through the expansion map, the per-expert softmax, and the mean
    combination whose normalizer is the expert count (each expansion row has
    unit mass, so the normalizer is constant).
    """
    n = len(labels)
    n_experts = len(logit_rows)
    probs, q = _calibration_forward(logit_rows, subsets, class_count, scales, shifts)
    loss = float(-np.log(q[np.arange(n), labels]).mean())

    coef = -1.0 / (n * n_experts * q[np.arange(n), labels])
    grads_w = []
    grads_b = []
    for z, p, subset in zip(logit_rows, probs, subsets):
        dp = np.zeros_like(p)
        if subset is None:
            dp[np.arange(n), labels] = coef
        else:
            local = subset.local_map(class_count)[labels]
            out_count = class_count - subset.size
            if out_count == 0 and np.any(local < 0):
                raise ValueError(
                    "calibration cannot handle a full-coverage subset expert; "
                    "pass subset=None for full-width members"
                )
            inside = local >= 0
            rows_in = np.nonzero(inside)[0]
            dp[rows_in, local[rows_in]] = coef[rows_in]
            if out_count:
                rows_out = np.nonzero(~inside)[0]
                dp[rows_out, subset.size] = coef[rows_out] / out_count
        inner = (p * dp).sum(axis=1, keepdims=True)
        du = p * (dp - inner)
        grads_w.append((du * z).sum(axis=0))
        grads_b.append(du.sum(axis=0))
    return loss, grads_w, grads_b


def train_joint_calibration(
    val_logits,
    subsets,
    val_class_labels,
    class_count: int,
    *,
    steps: int = 200,
    lr: float = 2.0,
) -> tuple[CalibrationParams, list[float]]:
    """Learn scale/shift vectors minimizing validation cross-entropy of the
    calibrated soft-vote posterior.

    Full-batch gradient descent from the identity (w=1, b=0); the best
    iterate is kept, so the final objective never exceeds the initial one.
    Returns the parameters and the objective trace (initial value first).
    """
    logit_rows = [_rows(_as_logits(z))[0] for z in val_logits]
    labels = np.asarray(val_class_labels, dtype=np.int64)
    if len(logit_rows) != len(subsets):
        raise ValueError("need one subset (or None) per expert logit matrix")
    scales = [np.ones(z.shape[1]) for z in logit_rows]
    shifts = [np.zeros(z.shape[1]) for z in logit_rows]

    loss, gw, gb = _calibration_grad(
        logit_rows, subsets, class_count, labels, scales, shifts
    )
    if not math.isfinite(loss):
        raise DivergenceError("calibration objective is non-finite at initialization")
    trace = [loss]
    best = (loss, [w.copy() for w in scales], [b.copy() for b in shifts])
    for step in range(steps):
        for w, b, dw, db in zip(scales, shifts, gw, gb):
            w -= lr * dw
            b -= lr * db
        loss, gw, gb = _calibration_grad(
            logit_rows, subsets, class_count, labels, scales, shifts
        )
        if not math.isfinite(loss):
            raise DivergenceError(f"calibration objective became non-finite at step {step}")
        trace.append(loss)
        if loss < best[0]:
            best = (loss, [w.copy() for w in scales], [b.copy() for b in shifts])
    params = CalibrationParams(
        scales=tuple(best[1]), shifts=tuple(best[2])
    )
    return params, trace


def calibration_finite_diff_check(
    val_logits,
    subsets,
    val_class_labels,
    class_count: int,
    params: CalibrationParams | None = None,
    *,
    eps: float = 1e-5,
) -> float:
    """Compare the analytic calibration gradient against central differences.

    Same error metric as the network check: |a - n| / max(1, |a|, |n|),
    maximized over every scale and shift coordinate.
    """
    logit_rows = [_rows(_as_logits(z))[0] for z in val_logits]
    labels = np.asarray(val_class_labels, dtype=np.int64)
    if params is None:
        params = CalibrationParams.identity([z.shape[1] for z in logit_rows])
    scales = [w.copy() for w in params.scales]
    shifts = [b.copy() for b in params.shifts]
    _, gw, gb = _calibration_grad(
        logit_rows, subsets, class_count, labels, scales, shifts
    )
    return _central_difference_error(
        lambda: _calibration_objective(
            logit_rows, subsets, class_count, labels, scales, shifts
        ),
        scales + shifts,
        gw + gb,
        eps,
    )


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

    @property
    def class_count(self) -> int:
        return self.probabilities.shape[1]

    def sorted_by_id(self) -> "ExternalPosteriorTable":
        order = np.argsort(self.sample_ids)
        return ExternalPosteriorTable(
            self.name, self.sample_ids[order], self.probabilities[order]
        )


def write_posterior_csv(path, sample_ids, probabilities) -> None:
    """Full-width posterior dump: ``sample_id,p0,...,p{C-1}`` per row."""
    probabilities = np.atleast_2d(np.asarray(probabilities, dtype=np.float64))
    lines = [
        "sample_id," + ",".join(f"p{j}" for j in range(probabilities.shape[1]))
    ]
    for sid, row in zip(sample_ids, probabilities):
        lines.append(str(int(sid)) + "," + ",".join(format_float(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def ingest_external_posteriors(
    path, class_count: int, name: str | None = None
) -> ExternalPosteriorTable:
    """Read a full-width posterior CSV produced here or by an outside model.

    Rows whose mass differs from 1 by more than 1e-6 are renormalized with a
    warning; negative entries are rejected.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        expected = ["sample_id"] + [f"p{j}" for j in range(class_count)]
        if header != expected:
            raise ValueError(
                f"{path.name}: header does not match a {class_count}-class posterior dump"
            )
        ids = []
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != class_count + 1:
                raise ValueError(
                    f"{path.name} line {line_no}: expected {class_count} probabilities"
                )
            ids.append(int(parts[0]))
            rows.append([float(v) for v in parts[1:]])
    probs = np.asarray(rows, dtype=np.float64)
    if np.any(probs < 0):
        raise ValueError(f"{path.name}: negative probabilities")
    sums = probs.sum(axis=1)
    off = np.abs(sums - 1.0) > 1e-6
    if np.any(off):
        warnings.warn(
            f"{path.name}: {int(off.sum())} rows renormalized "
            f"(mass off by up to {np.abs(sums - 1.0).max():.3g})",
            stacklevel=2,
        )
        probs = probs / sums[:, None]
    return ExternalPosteriorTable(
        name=name or path.stem,
        sample_ids=np.asarray(ids, dtype=np.int64),
        probabilities=probs,
    )


def write_partial_posterior_csv(
    path, sample_ids, partial: PartialPosterior, subset: SubsetSpec, *, rho: float | None = None
) -> None:
    """Partial posterior dump plus a JSON sidecar describing the subset."""
    probs = np.atleast_2d(np.asarray(partial.probabilities, dtype=np.float64))
    k = subset.size
    header = (
        "sample_id,expert_id,"
        + ",".join(f"p{j}" for j in range(k))
        + ",preject"
    )
    lines = [header]
    expert_id = int(partial.expert_id)
    for sid, row in zip(sample_ids, probs):
        lines.append(
            f"{int(sid)},{expert_id},"
            + ",".join(format_float(v) for v in row)
        )
    path = Path(path)
    atomic_write_text(path, "\n".join(lines) + "\n")
    sidecar = {
        "expert_id": expert_id,
        "expert": partial.expert_id.label,
        "classes": [int(c) for c in subset.classes],
        "rho": rho,
    }
    atomic_write_json(path.with_suffix(".json"), sidecar)


def read_partial_posterior_csv(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Round-trip reader for partial dumps; returns (ids, probabilities, sidecar)."""
    path = Path(path)
    with open(path.with_suffix(".json"), "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    k = len(sidecar["classes"])
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        expected = (
            ["sample_id", "expert_id"] + [f"p{j}" for j in range(k)] + ["preject"]
        )
        if header != expected:
            raise ValueError(f"{path.name}: header does not match its sidecar")
        ids = []
        rows = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            ids.append(int(parts[0]))
            rows.append([float(v) for v in parts[2:]])
    return (
        np.asarray(ids, dtype=np.int64),
        np.asarray(rows, dtype=np.float64),
        sidecar,
    )


def fuse_models(
    tables,
    strategy: str = "softvote",
    *,
    val_tables=None,
    val_labels=None,
    calibration_steps: int = 200,
    calibration_lr: float = 2.0,
) -> ExternalPosteriorTable:
    """Fuse full-width posterior tables into one ensemble table.

    All tables must cover the same sample keys. ``softvote`` averages rows;
    ``calibrate`` treats each model as a full-width member (no reject entry),
    learns scale/shift vectors on the matching validation tables, and applies
    them. Returns a table named ``ensemble`` with ids in ascending order.
    """
    if len(tables) < 1:
        raise ValueError("need at least one posterior table")
    tables = [t.sorted_by_id() for t in tables]
    ref = tables[0]
    for t in tables[1:]:
        if not np.array_equal(t.sample_ids, ref.sample_ids):
            raise ValueError(
                f"sample keys differ between models {ref.name!r} and {t.name!r}"
            )
        if t.class_count != ref.class_count:
            raise ValueError("posterior tables disagree on class count")

    if strategy == "softvote":
        fused = _combine_expansions([t.probabilities for t in tables])
    elif strategy == "calibrate":
        if val_tables is None or val_labels is None:
            raise ValueError("calibrate needs val_tables and val_labels")
        val_tables = [t.sorted_by_id() for t in val_tables]
        subsets = [None] * len(tables)
        val_logits = [np.log(np.maximum(t.probabilities, 1e-15)) for t in val_tables]
        calib, _ = train_joint_calibration(
            val_logits,
            subsets,
            val_labels,
            ref.class_count,
            steps=calibration_steps,
            lr=calibration_lr,
        )
        test_logits = [np.log(np.maximum(t.probabilities, 1e-15)) for t in tables]
        fused = fuse_calibrated(test_logits, calib, subsets, ref.class_count)
    else:
        raise ValueError(f"unsupported model-fusion strategy {strategy!r}")

    return ExternalPosteriorTable(
        name="ensemble", sample_ids=ref.sample_ids, probabilities=fused
    )
