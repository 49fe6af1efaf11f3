"""Posterior fusion: from per-expert partial posteriors to full posteriors.

The expansion map spreads an expert's reject probability uniformly over the
classes outside its subset, turning a (k+1)-vector into a distribution over
all C classes. Five fusion strategies are built on top of it:

* soft-voting: average the expanded posteriors;
* KL minimization: the one distribution that all partial posteriors agree
  with best, solved exactly: classes that every expert treats alike are
  pooled into atoms, and each row's few atom masses are found by damped
  Newton with a Frank-Wolfe optimality certificate;
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

from ._io import DataError, atomic_write_json, atomic_write_text, format_float
from .dataset import EmbeddingDataset, SamplerMode, SubsetSpec
from .experts import PartialPosterior
from .network import (
    DivergenceError,
    NetworkParams,
    TrainConfig,
    _central_difference_error,
    fit_network,
    forward_logits,
    init_network,
    softmax,
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


def _class_atoms(subsets, class_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the classes by their in/out pattern across the experts.

    Returns the atom index of every class, shape (C,), and the boolean
    out-of-subset membership of every atom per expert, shape (E, m). A
    full-width (``None``) member and a full-coverage subset count every
    class as in, so they have no out-of-subset atoms.
    """
    inside = np.ones((len(subsets), class_count), dtype=bool)
    for e, subset in enumerate(subsets):
        if subset is not None:
            inside[e] = False
            inside[e, subset.classes] = True
    patterns, atom_of = np.unique(inside.T, axis=0, return_inverse=True)
    return atom_of.reshape(-1), ~patterns.T


def _atom_sums(values: np.ndarray, atom_of: np.ndarray, atom_count: int) -> np.ndarray:
    return np.stack(
        [values[:, atom_of == a].sum(axis=1) for a in range(atom_count)], axis=1
    )


def _kl_objective(q, prob_rows, subsets) -> np.ndarray:
    """Per-row sum over experts of KL(p_e || A_e q), with 0 log 0 = 0."""

    def plogp_over(p, a):
        out = np.zeros_like(p)
        pos = p > 0
        out[pos] = p[pos] * np.log(p[pos] / a[pos])
        return out.sum(axis=-1)

    total = np.zeros(q.shape[0])
    for p_rows, subset in zip(prob_rows, subsets):
        if subset is None:
            total += plogp_over(p_rows, q)
            continue
        k = subset.size
        total += plogp_over(p_rows[:, :k], q[:, subset.classes])
        out_classes = subset.out_classes(q.shape[1])
        if len(out_classes):
            total += plogp_over(
                p_rows[:, k:], q[:, out_classes].sum(axis=1, keepdims=True)
            )
    return total


def fuse_kl_min(
    partials,
    subsets,
    class_count: int,
    *,
    steps: int = 2000,
    tol: float = 1e-12,
) -> KLFusionResult:
    """Full posterior minimizing the summed KL divergence from every
    partial posterior.

    A subset expert is compared with q through its aligned view: q on the
    expert's classes plus one reject entry holding q's out-of-subset mass.
    The objective F(q) = sum_e KL(p_e || A_e q) is convex, and it is solved
    exactly rather than by descent with a step size:

    * Classes with the same in/out pattern across the experts form an atom.
      Inside an atom the objective sees q only through sum_c w_c log q_c,
      where w_c is the in-subset mass the experts put on class c, so the
      optimum has q_c = Q_A w_c / W_A (uniform over the atom when W_A = 0).
      Each row becomes a problem in the m <= min(C, 2^E) atom masses Q.
    * Each row is solved by damped Newton on Q under sum(Q) = 1, starting
      from the soft-vote atom masses: one batched KKT solve per iteration,
      the step kept inside Q >= 0, and Armijo backtracking on an exactly
      evaluated decrease, so a row's objective never rises.
    * A row stops when its Frank-Wolfe gap max_A(-dF/dQ_A) - sum_A Q_A
      (-dF/dQ_A), which bounds F(q) - F(q*), is at most ``tol``, or when
      backtracking finds no decrease that float64 can represent.

    ``steps`` caps the Newton iterations; ``steps=0`` returns the soft-vote
    combination unchanged. ``steps_taken`` is the iteration count of the
    slowest row, and the reported objective is the per-row sum over experts.
    """
    prob_rows = []
    single = True
    for partial in partials:
        rows, was_1d = _rows(_as_probabilities(partial))
        single = single and was_1d
        prob_rows.append(rows)
    if len(prob_rows) != len(subsets) or not prob_rows:
        raise ValueError("need one subset (or None) per partial posterior")

    q_soft = np.atleast_2d(fuse_soft_vote(prob_rows, subsets, class_count))
    start_objective = _kl_objective(q_soft, prob_rows, subsets)
    if not np.all(np.isfinite(start_objective)):
        raise DivergenceError("KL fusion objective is non-finite at initialization")
    if steps <= 0:
        q, objective, steps_taken = q_soft, start_objective, 0
    else:
        q, steps_taken = _solve_kl_atoms(q_soft, prob_rows, subsets, steps, tol)
        objective = _kl_objective(q, prob_rows, subsets)
    if single:
        return KLFusionResult(q[0], float(objective[0]), steps_taken)
    return KLFusionResult(q, objective, steps_taken)


def _pinned_newton_step(hess, pull, pinned_step, free, pinned):
    """Newton step on the atom masses under a zero-sum constraint.

    Solves [[H, a], [a^T, 0]] [d; nu] = [pull; 0] over the free atoms that
    are not pinned; a pinned atom takes its fixed ``pinned_step`` and an
    atom that is not free keeps d_A = 0. Returns d and the multiplier nu.
    """
    n, m = pull.shape
    var = free & ~pinned
    fixed = np.where(pinned, pinned_step, 0.0)
    kkt = np.zeros((n, m + 1, m + 1))
    kkt[:, :m, :m] = hess * (var[:, :, None] & free[:, None, :])
    kkt[:, np.arange(m), np.arange(m)] += ~var
    kkt[:, :m, m] = var
    kkt[:, m, :m] = free
    rhs = np.zeros((n, m + 1, 1))
    rhs[:, :m, 0] = np.where(var, pull, fixed)
    sol = np.linalg.solve(kkt, rhs)[:, :, 0]
    return np.where(var, sol[:, :m], fixed), sol[:, m : m + 1]


def _solve_kl_atoms(q_soft, prob_rows, subsets, steps: int, tol: float):
    """Damped Newton on the atom masses; see ``fuse_kl_min``.

    In atom space the objective is, up to a constant,
    F(Q) = -sum_A W_A log Q_A - sum_e r_e log R_e(Q), where r_e is expert
    e's reject mass and R_e the mass of its out-of-subset atoms.

    Each Newton step keeps every atom above a floor, as an active set: an
    atom the step would push below its floor is pinned to a target and the
    rest of the row is solved again, and a pinned atom whose multiplier
    turns negative is released.

    * An atom with W_A = 0 has floor and target zero, since its optimum can
      lie on the boundary; it rejoins the step from zero while its pull
      -dF/dQ_A exceeds the row's mean pull.
    * An atom with W_A > 0 has a log barrier. Its floor is 1% of its mass,
      and its target the optimum of its own one-dimensional problem,
      W_A / (mean pull - reject pull on A), clipped to [floor, Q_A]. A tiny
      atom whose optimum sits far below its start then gets there in about
      one step, instead of holding back the whole row's step by a
      hundredfold per iteration.
    """
    n, class_count = q_soft.shape
    atom_of, out = _class_atoms(subsets, class_count)
    m = out.shape[1]
    out_f = out.astype(np.float64)
    diag = (slice(None), np.arange(m), np.arange(m))

    # in-subset mass per class, and the reject mass of experts that have an
    # out-of-subset region (the others' reject entries carry no term)
    w = np.zeros((n, class_count))
    rej = np.zeros((n, len(subsets)))
    for e, (p_rows, subset) in enumerate(zip(prob_rows, subsets)):
        if subset is None:
            w += p_rows
        else:
            w[:, subset.classes] += p_rows[:, : subset.size]
            if out[e].any():
                rej[:, e] = p_rows[:, subset.size]
    W = _atom_sums(w, atom_of, m)
    Q = _atom_sums(q_soft, atom_of, m)
    barrier = W > 0
    mass = W.sum(axis=1) + rej.sum(axis=1)
    tiny = 8 * np.finfo(np.float64).eps

    def reject_mass(Q_now, r):
        return np.where(r > 0, np.einsum("na,ea->ne", Q_now, out_f), 1.0)

    active = np.ones(n, dtype=bool)
    steps_taken = 0
    for it in range(steps):
        coef = rej / reject_mass(Q, rej)
        own = np.divide(W, Q, out=np.zeros_like(W), where=barrier)
        h = own + np.einsum("ne,ea->na", coef, out_f)  # the pull -dF/dQ
        # centred pull: the zero-sum constraint makes the shift free, and
        # the step, of the size of the gap, is then not lost to rounding
        # against the mean pull of about the expert count
        h -= (Q * h).sum(axis=1, keepdims=True)
        active &= h.max(axis=1) > tol  # the Frank-Wolfe gap
        rows = np.nonzero(active)[0]
        if len(rows) == 0:
            break
        steps_taken = it + 1
        Qr, hr, Wr, rr, br = Q[rows], h[rows], W[rows], rej[rows], barrier[rows]
        R = reject_mass(Qr, rr)

        hess = np.einsum("ne,ea,eb->nab", coef[rows] / R, out_f, out_f)
        hess[diag] += np.divide(Wr, Qr**2, out=np.zeros_like(Wr), where=br)
        # a relative ridge keeps flat directions (atoms the objective cannot
        # tell apart) from making the system singular
        hess[diag] *= 1.0 + 1e-14
        # own[rows] - hr is the mean pull minus the reject pull on each atom
        solo = np.divide(
            Wr, own[rows] - hr, out=np.zeros_like(Wr), where=br & (hr < 0)
        )
        floor = np.where(br, 0.01 * Qr, 0.0)
        target = np.where(br, np.clip(solo, floor, Qr), 0.0)
        free = (Qr > 0) | (hr > 0)
        pinned = np.zeros_like(free)
        # each pass pins or releases at least one atom; 2m + 1 passes are
        # plenty, and an unsettled remainder is left to the line search
        for _ in range(2 * m + 1):
            d, nu = _pinned_newton_step(hess, hr, target - Qr, free, pinned)
            below = free & ~pinned & (Qr + d < floor)
            if below.any():
                pinned |= below
                continue
            multiplier = np.einsum("nab,nb->na", hess, d) + nu - hr
            release = pinned & (multiplier < 0)
            if not release.any():
                break
            pinned &= ~release

        # cap the step so that barrier atoms and every rejecting expert's
        # out-of-subset region keep 1% of their mass (a no-op once the
        # active set has settled), then Armijo backtracking. The decrease is
        # evaluated exactly for the step as float64 stores it, renormalized
        # to unit mass (F(cQ) = F(Q) - mass * log c), through log1p, so that
        # decreases far below F's own rounding still resolve. Moves of a few
        # ulps are dropped: they are rounding noise of the centred pull, and
        # would otherwise drown the steps of atoms of tiny mass.
        d_rej = np.einsum("na,ea->ne", d, out_f)
        limit = np.minimum(
            np.divide(-Qr, d, out=np.full_like(d, np.inf), where=br & (d < 0)).min(axis=1),
            np.divide(
                -R, d_rej, out=np.full_like(R, np.inf), where=(rr > 0) & (d_rej < 0)
            ).min(axis=1),
        )
        alpha = np.minimum(1.0, 0.99 * limit)
        accepted = np.zeros(len(rows), dtype=bool)
        for _ in range(60):
            pend = np.nonzero(~accepted)[0]
            if len(pend) == 0:
                break
            cand = np.maximum(Qr[pend] + alpha[pend, None] * d[pend], 0.0)
            move = cand - Qr[pend]
            move[np.abs(move) <= tiny * Qr[pend]] = 0.0
            grow = move.sum(axis=1)
            rel = np.divide(move, Qr[pend], out=np.zeros_like(move), where=br[pend])
            rel_rej = np.einsum("na,ea->ne", move, out_f) / R[pend]
            dF = (
                mass[rows[pend]] * np.log1p(grow)
                - (Wr[pend] * np.log1p(rel)).sum(axis=1)
                - (
                    rr[pend]
                    * np.log1p(rel_rej, out=np.zeros_like(rel_rej), where=rr[pend] > 0)
                ).sum(axis=1)
            )
            ok = (dF < 0) & (dF <= -1e-4 * (hr[pend] * move).sum(axis=1))
            Q[rows[pend[ok]]] = (Qr[pend[ok]] + move[ok]) / (1.0 + grow[ok, None])
            accepted[pend[ok]] = True
            alpha[pend] *= 0.5
        # no representable decrease: the row is as good as float64 allows
        active[rows[~accepted]] = False

    spread = W[:, atom_of]
    share = np.divide(w, spread, out=np.zeros_like(w), where=spread > 0)
    sizes = np.bincount(atom_of, minlength=m)
    share = np.where(spread > 0, share, 1.0 / sizes[atom_of])
    q = Q[:, atom_of] * share
    return q / q.sum(axis=1, keepdims=True), steps_taken


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
    trained, _ = fit_network(
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
    trained, _ = fit_network(
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


def _label_columns(logit_rows, subsets, class_count: int, labels):
    """Per expert, where each row's label sits in its calibrated softmax:
    the column, and the divisor the expansion applies to it (1 for a subset
    class or a full-width member, out_count for the reject output). The
    calibration loss and gradient read no other entry."""
    columns = []
    for z, subset in zip(logit_rows, subsets):
        width = class_count if subset is None else subset.size + 1
        if z.shape[1] != width:
            raise ValueError(f"logit width {z.shape[1]} does not match expected width {width}")
        if subset is None:
            columns.append((labels, np.ones(len(labels))))
            continue
        out_count = class_count - subset.size
        if out_count == 0:
            raise ValueError(
                "calibration cannot handle a full-coverage subset expert; "
                "pass subset=None for full-width members"
            )
        local = subset.local_map(class_count)[labels]
        inside = local >= 0
        columns.append((np.where(inside, local, subset.size), np.where(inside, 1.0, out_count)))
    return columns


def _calibration_grad(logit_rows, columns, scales, shifts):
    """Analytic gradient of the validation cross-entropy in (scales, shifts).

    Chains through the expansion map, the per-expert softmax, and the mean
    combination whose normalizer is the expert count (each expansion row has
    unit mass, so the normalizer is constant). ``columns`` comes from
    :func:`_label_columns`: each expert's expansion is read at the label
    only, so the loss and the gradient are bitwise those of the full
    expansion, whose label entry is that column over its divisor.
    """
    n, n_experts = len(logit_rows[0]), len(logit_rows)
    rows = np.arange(n)
    probs = [softmax(z * w + b) for z, w, b in zip(logit_rows, scales, shifts)]
    picked = [p[rows, col] for p, (col, _) in zip(probs, columns)]
    # each expert's expansion at the labels, averaged as the expansions are
    q = np.stack([pc / div for pc, (_, div) in zip(picked, columns)]).mean(axis=0)
    loss = float(-np.log(q).mean())

    coef = -1.0 / (n * n_experts * q)
    grads_w = []
    grads_b = []
    for z, p, pc, (col, div) in zip(logit_rows, probs, picked, columns):
        # d loss / d p has one nonzero per row, v at the label's column, so
        # sum(p * dp) is p[col] * v and p * (dp - inner) is p * -inner off it
        v = coef / div
        inner = pc * v
        du = p * (0.0 - inner)[:, None]
        du[rows, col] = pc * (v - inner)
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

    columns = _label_columns(logit_rows, subsets, class_count, labels)
    loss, gw, gb = _calibration_grad(logit_rows, columns, scales, shifts)
    if not math.isfinite(loss):
        raise DivergenceError("calibration objective is non-finite at initialization")
    trace = [loss]
    best = (loss, [w.copy() for w in scales], [b.copy() for b in shifts])
    for step in range(steps):
        for w, b, dw, db in zip(scales, shifts, gw, gb):
            w -= lr * dw
            b -= lr * db
        loss, gw, gb = _calibration_grad(logit_rows, columns, scales, shifts)
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
    columns = _label_columns(logit_rows, subsets, class_count, labels)
    _, gw, gb = _calibration_grad(logit_rows, columns, scales, shifts)
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


def _read_posterior_dump(path: Path, header: list[str], leading: int, what: str):
    """Read a posterior dump into (ids, probabilities).

    The first line must equal ``header`` (else it does not match ``what``).
    Each row holds ``leading`` id columns (the sample id first) and then one
    probability per remaining header column. A row with another column
    count, a sample id that is not an integer or repeats an earlier one, a
    negative or non-finite probability, or zero mass raises a
    :class:`DataError` naming the file and line.
    """
    width = len(header) - leading
    ids = []
    rows = []
    line_nos = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n").split(",") != header:
                raise DataError(f"{path.name}: header does not match {what}")
            for line_no, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != len(header):
                    raise DataError(
                        f"{path.name} line {line_no}: expected {width} probabilities"
                    )
                try:
                    ids.append(int(parts[0]))
                    rows.append([float(v) for v in parts[leading:]])
                except ValueError:
                    raise DataError(f"{path.name} line {line_no}: not a number") from None
                line_nos.append(line_no)
    except UnicodeDecodeError:
        raise DataError(f"{path.name}: not UTF-8 text") from None
    ids = np.asarray(ids, dtype=np.int64)
    probs = np.asarray(rows, dtype=np.float64).reshape(-1, width)
    order = np.argsort(ids, kind="stable")
    repeat = np.zeros(len(ids), dtype=bool)
    repeat[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    finite = np.isfinite(probs)
    for bad, problem in (
        (repeat, "repeated sample id"),
        (~finite.all(axis=1), "non-finite probability"),
        ((probs < 0).any(axis=1), "negative probability"),
        # non-finite entries are left out, so that inf - inf cannot warn
        (np.where(finite, probs, 0.0).sum(axis=1) <= 0, "probabilities sum to zero"),
    ):
        if bad.any():
            raise DataError(f"{path.name} line {line_nos[int(np.argmax(bad))]}: {problem}")
    return ids, probs


def ingest_external_posteriors(
    path, class_count: int, name: str | None = None
) -> ExternalPosteriorTable:
    """Read a full-width posterior CSV produced here or by an outside model.

    Rows whose mass differs from 1 by more than 1e-6 are renormalized with a
    warning; negative or non-finite entries and rows of zero mass are
    rejected with a :class:`DataError` naming the file and line.
    """
    path = Path(path)
    header = ["sample_id"] + [f"p{j}" for j in range(class_count)]
    ids, probs = _read_posterior_dump(
        path, header, 1, f"a {class_count}-class posterior dump"
    )
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
        sample_ids=ids,
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
    """Round-trip reader for partial dumps; returns (ids, probabilities, sidecar).

    A row with the wrong column count, a negative or non-finite entry, or
    zero mass raises a :class:`DataError` naming the file and line, as does
    a sidecar that is not JSON or has no class list.
    """
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    with open(sidecar_path, "r", encoding="utf-8") as fh:
        try:
            sidecar = json.load(fh)
            k = len(sidecar["classes"])
        except (ValueError, TypeError, KeyError) as exc:
            raise DataError(f"{sidecar_path.name}: not a dump sidecar ({exc!r})") from None
    header = ["sample_id", "expert_id"] + [f"p{j}" for j in range(k)] + ["preject"]
    ids, probs = _read_posterior_dump(path, header, 2, "its sidecar")
    return ids, probs, sidecar


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
