"""Posterior fusion: from per-expert partial posteriors to full posteriors.

The expansion map spreads an expert's reject probability uniformly over the
classes outside its subset, turning a (k+1)-vector into a distribution over
all C classes. Five fusion strategies are built on top of it:

* soft-voting: average the expanded posteriors;
* KL minimization: the one distribution that all partial posteriors agree
  with best, solved exactly: classes that every expert treats alike are
  pooled into atoms, and each row's few atom masses are found by damped
  Newton with a Frank-Wolfe optimality certificate;
* expert selection: a 3-way linear softmax picks the expert whose
  expansion becomes the answer; it minimizes the validation cross-entropy
  plus a ridge, solved by damped Newton with preconditioned
  conjugate-gradient steps to a gradient certificate;
* stacking: the selector's fit with one output per class, a linear
  softmax from concatenated partial posteriors straight to the classes;
* joint calibration: per-expert elementwise scale and shift of the logits,
  minimizing the validation cross-entropy of the soft-vote combination plus
  a ridge toward the identity, solved by damped Newton to a gradient
  certificate.

Full-width posteriors (no reject entry) participate everywhere by passing
``None`` in place of a subset, which makes diverse ensembles of external
models possible.

The solver that the selector, stacker and calibration fits share is in
:mod:`tailens._newton`, and the posterior-dump formats in :mod:`tailens._dumps`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# perfbench/tracing.py spans these two dump functions as fusion.<name>, found
# by getattr(fusion, name), so fusion keeps binding them
from ._dumps import ingest_external_posteriors, write_posterior_csv  # noqa: F401
from ._newton import _damped_newton, _newton_step, _PenalizedSoftmax, _RidgeNewtonProblem
from .dataset import SubsetSpec
from .experts import PartialPosterior
from .network import DivergenceError, NetworkParams, forward_logits, softmax

REJECT_DROP_WARNING = (
    "expert covers every class; reject mass was dropped and the row renormalized"
)

# KL fusion stops a row once its Frank-Wolfe gap, an upper bound on how far
# the row's objective is above its minimum, is at most KL_GAP nats: far below
# any difference in the fused posterior that an accuracy could show.
KL_GAP = 1e-12
# A cap on KL's Newton iterations; the workloads take about 16, so it only
# bounds a solve gone wrong.
KL_STEPS = 2000
# Weight of the ridge CALIBRATION_RIDGE / 2 * (|w - 1|^2 + |b|^2) that pulls
# the joint calibration toward the identity. It was chosen on validation data
# alone, by 2-fold cross-validation over 1e-5..1e-3 in half-decade steps
# (README, "Joint calibration").
CALIBRATION_RIDGE = 1e-4
# Weight of the ridge SELECTOR_RIDGE / 2 * |theta|^2 on the expert selector's
# weights and biases, chosen by the rule that chose CALIBRATION_RIDGE (README,
# "Expert selection").
SELECTOR_RIDGE = 3.2e-5
# Weight of the ridge STACKER_RIDGE / 2 * |theta|^2 on the stacker's weights
# and biases. The rule that chose the ridges above prefers 1e-5 (held-out
# cross-entropy 0.073, against 0.144 at 1e-4 and the 0.541 that 100 epochs
# of SGD reached in-sample), but 1e-4 is the smallest half-decade ridge whose
# fit is no slower than SGD's was on both benchmark workloads: at 3.2e-5 a
# synth-60 fit took 0.21-0.27 s, against SGD's 0.16-0.21 s (README,
# "Stacking").
STACKER_RIDGE = 1e-4


def _as_array(partial, field: str = "probabilities") -> np.ndarray:
    """A :class:`PartialPosterior`'s ``field``, or an array as it is, in
    float64."""
    if isinstance(partial, PartialPosterior):
        partial = getattr(partial, field)
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
    rows, single = _rows(_as_array(partial))
    drops = _check_expansion(rows, subset, class_count, stacklevel=2)
    full = _expansion(rows, subset, class_count, drops)
    return full[0] if single else full


def _check_expansion(
    rows, subset: SubsetSpec | None, class_count: int, stacklevel: int
) -> bool:
    """Raise where ``rows`` cannot be expanded, and warn where the expansion
    drops reject mass (the subset covers every class and some row has
    reject mass); returns whether it does. The warning names the line that
    ``warnings.warn(..., stacklevel=stacklevel)`` would name if the caller
    warned itself."""
    if subset is None:
        if rows.shape[1] != class_count:
            raise ValueError(
                f"full-width posterior has {rows.shape[1]} entries, expected {class_count}"
            )
        return False
    if rows.shape[1] != subset.size + 1:
        raise ValueError(
            f"partial posterior has {rows.shape[1]} entries, expected {subset.size + 1}"
        )
    drops = len(subset.out_classes(class_count)) == 0 and bool(np.any(rows[:, -1] > 0))
    if drops:
        warnings.warn(REJECT_DROP_WARNING, stacklevel=stacklevel + 1)
    return drops


def _expansion(rows, subset: SubsetSpec | None, class_count: int, drops: bool) -> np.ndarray:
    """The expansion of checked ``rows`` in a table of its own; ``drops``
    renormalizes the rows of a full-coverage subset."""
    if subset is None:
        return rows.copy()
    k = subset.size
    out_classes = subset.out_classes(class_count)
    full = np.zeros((rows.shape[0], class_count))
    full[:, subset.classes] = rows[:, :k]
    if len(out_classes):
        full[:, out_classes] += rows[:, k : k + 1] / len(out_classes)
    elif drops:
        full /= full.sum(axis=1, keepdims=True)
    return full


def _expansion_inputs(partials, subsets, class_count: int, stacklevel: int):
    """Each partial posterior as rows, checked in expert order as
    :func:`expand_partial` checks it (warning where it warns, at the
    caller's ``stacklevel``), then checked for one sample count. Returns the
    rows, whether each expert's expansion drops reject mass, and whether
    every input was 1d."""
    if len(partials) != len(subsets):
        raise ValueError("need one subset (or None) per partial posterior")
    if len(partials) == 0:
        raise ValueError("need at least one partial posterior")
    prob_rows, drops = [], []
    single = True
    for partial, subset in zip(partials, subsets):
        rows, was_1d = _rows(_as_array(partial))
        single = single and was_1d
        drops.append(_check_expansion(rows, subset, class_count, stacklevel + 1))
        prob_rows.append(rows)
    sizes = {len(rows) for rows in prob_rows}
    if len(sizes) != 1:
        raise ValueError(f"partial posteriors disagree on sample count: {sorted(sizes)}")
    return prob_rows, drops, single


def _mean_expansion(prob_rows, subsets, drops, class_count: int) -> np.ndarray:
    """The mean of the checked rows' expansions, built in one (n, C) table:
    each expert's expansion is added into it in expert order, so the result
    is bitwise ``np.stack(expansions).mean(axis=0)`` without the stack."""
    total = _expansion(prob_rows[0], subsets[0], class_count, drops[0])
    for rows, subset, drop in zip(prob_rows[1:], subsets[1:], drops[1:]):
        if subset is None:
            total += rows
            continue
        k, out_classes = subset.size, subset.out_classes(class_count)
        if len(out_classes):
            total[:, subset.classes] += rows[:, :k]
            total[:, out_classes] += rows[:, k : k + 1] / len(out_classes)
        else:
            # a full-coverage expansion may be renormalized, so it is built
            # in a table of its own
            total += _expansion(rows, subset, class_count, drop)
    total /= len(prob_rows)
    return total


def fuse_soft_vote(partials, subsets, class_count: int) -> np.ndarray:
    """Average the expanded partial posteriors and renormalize."""
    prob_rows, drops, single = _expansion_inputs(partials, subsets, class_count, stacklevel=2)
    q = _mean_expansion(prob_rows, subsets, drops, class_count)
    q /= q.sum(axis=1, keepdims=True)
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


def _plogp_sum(p, scratch) -> np.ndarray:
    """Per-row sum of p log(p / a) with 0 log 0 = 0, where ``scratch``
    holds a and is overwritten. It must be C-ordered: a row is summed in
    memory order, and the terms of KL's objective in class order."""
    pos = p > 0
    p_pos = p[pos]
    terms = scratch[pos]
    np.divide(p_pos, terms, out=terms)
    np.log(terms, out=terms)
    terms *= p_pos
    scratch.fill(0.0)
    scratch[pos] = terms
    return scratch.sum(axis=-1)


def _kl_objective(q, prob_rows, subsets) -> np.ndarray:
    """Per-row sum over experts of KL(p_e || A_e q), with 0 log 0 = 0."""
    total = np.zeros(q.shape[0])
    for p_rows, subset in zip(prob_rows, subsets):
        if subset is None:
            total += _plogp_sum(p_rows, q.copy())
            continue
        k = subset.size
        total += _plogp_sum(p_rows[:, :k], np.take(q, subset.classes, axis=1))
        out_classes = subset.out_classes(q.shape[1])
        if len(out_classes):
            total += _plogp_sum(
                p_rows[:, k:], q[:, out_classes].sum(axis=1, keepdims=True)
            )
    return total


def fuse_kl_min(partials, subsets, class_count: int) -> KLFusionResult:
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
      (-dF/dQ_A), which bounds F(q) - F(q*), is at most ``KL_GAP``, or when
      backtracking finds no decrease that float64 can represent.

    The inputs are checked, and warned about, as :func:`fuse_soft_vote`
    checks them. ``steps_taken`` is the Newton iteration count of the
    slowest row (at most ``KL_STEPS``), and the reported objective is the
    per-row sum over experts.
    """
    prob_rows, drops, single = _expansion_inputs(partials, subsets, class_count, stacklevel=2)
    q_soft = _mean_expansion(prob_rows, subsets, drops, class_count)
    q_soft /= q_soft.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(_kl_objective(q_soft, prob_rows, subsets))):
        raise DivergenceError("KL fusion objective is non-finite at initialization")
    q, steps_taken = _solve_kl_atoms(q_soft, prob_rows, subsets)
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


def _solve_kl_atoms(q_soft, prob_rows, subsets):
    """Damped Newton on the atom masses; see ``fuse_kl_min``. The result is
    written over ``q_soft``, the soft-vote start.

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

    # the reject mass of experts that have an out-of-subset region (the
    # others' reject entries carry no term)
    rej = np.zeros((n, len(subsets)))
    for e, (p_rows, subset) in enumerate(zip(prob_rows, subsets)):
        if subset is not None and out[e].any():
            rej[:, e] = p_rows[:, subset.size]
    # the (n, C) class masses are summed again at the end rather than held
    # through the iterations
    W = _atom_sums(_in_subset_mass(prob_rows, subsets, class_count), atom_of, m)
    Q = _atom_sums(q_soft, atom_of, m)
    barrier = W > 0
    mass = W.sum(axis=1) + rej.sum(axis=1)
    tiny = 8 * np.finfo(np.float64).eps

    def reject_mass(Q_now, r):
        return np.where(r > 0, np.einsum("na,ea->ne", Q_now, out_f), 1.0)

    active = np.ones(n, dtype=bool)
    steps_taken = 0
    for it in range(KL_STEPS):
        coef = rej / reject_mass(Q, rej)
        own = np.divide(W, Q, out=np.zeros_like(W), where=barrier)
        h = own + np.einsum("ne,ea->na", coef, out_f)  # the pull -dF/dQ
        # centred pull: the zero-sum constraint makes the shift free, and
        # the step, of the size of the gap, is then not lost to rounding
        # against the mean pull of about the expert count
        h -= (Q * h).sum(axis=1, keepdims=True)
        active &= h.max(axis=1) > KL_GAP  # the Frank-Wolfe gap
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

    w = _in_subset_mass(prob_rows, subsets, class_count)
    return _class_posterior(Q, W, w, atom_of, q_soft), steps_taken


def _in_subset_mass(prob_rows, subsets, class_count: int) -> np.ndarray:
    """w: per class, the in-subset mass the experts put on it."""
    w = np.zeros((len(prob_rows[0]), class_count))
    for p_rows, subset in zip(prob_rows, subsets):
        if subset is None:
            w += p_rows
        else:
            w[:, subset.classes] += p_rows[:, : subset.size]
    return w


def _class_posterior(Q, W, w, atom_of, out) -> np.ndarray:
    """The class posterior q_c = Q_A w_c / W_A of atom masses ``Q``
    (uniform over an atom with W_A = 0), renormalized, built in ``out``;
    ``w`` is overwritten with each class's share of its atom."""
    np.take(W, atom_of, axis=1, out=out, mode="clip")
    filled = out > 0
    np.divide(w, out, out=w, where=filled)
    sizes = np.bincount(atom_of, minlength=W.shape[1])
    np.copyto(w, 1.0 / sizes[atom_of], where=~filled)
    np.take(Q, atom_of, axis=1, out=out, mode="clip")
    out *= w
    out /= out.sum(axis=1, keepdims=True)
    return out


def concat_partials(partials) -> np.ndarray:
    """Concatenate partial posterior probabilities into one feature matrix."""
    rows = [_rows(_as_array(p))[0] for p in partials]
    return np.concatenate(rows, axis=1)


@dataclass(frozen=True)
class LinearSoftmaxModel:
    """A linear softmax of the concatenated partial posteriors: the expert
    selector (one output per expert) or the stacker (one per class). It
    keeps the record of the fit that made it (None for a model built by
    hand): the Newton steps taken and the largest absolute entry of the
    final penalized gradient, the fit's certificate."""

    params: NetworkParams
    steps: int | None = None
    gradient_norm: float | None = None

    def scores(self, partials) -> np.ndarray:
        return softmax(forward_logits(self.params, concat_partials(partials)))


def _fit_softmax(name: str, val_partials, labels, outputs: int, ridge: float):
    """:func:`_damped_newton` on :class:`_PenalizedSoftmax` from zero
    weights; returns the parameters, the Newton steps taken and the final
    gradient's largest absolute entry."""
    problem = _PenalizedSoftmax(name, concat_partials(val_partials), labels, outputs, ridge)
    point, steps, gradient_norm, _ = _damped_newton(problem)
    return problem.params(point.theta), steps, gradient_norm


def train_expert_selector(val_partials, val_fold_labels) -> LinearSoftmaxModel:
    """Fit the 3-way expert selector on validation partial posteriors.

    The target of a sample is the expert whose subset holds its true class,
    in expert order (manyshot, mediumshot, fewshot). Every fold must appear
    in the validation labels. The fit minimizes the mean cross-entropy plus
    the ridge ``SELECTOR_RIDGE / 2 * |theta|^2`` by damped Newton from zero
    weights, to the certificate ``_newton.CERTIFICATE_TOL``.
    """
    labels = np.asarray(val_fold_labels, dtype=np.int64)
    expert_count = len(val_partials)
    present = set(np.unique(labels).tolist())
    for e in range(expert_count):
        if e not in present:
            raise ValueError(f"fold {e} is absent from the validation labels")
    return LinearSoftmaxModel(
        *_fit_softmax("selector", val_partials, labels, expert_count, SELECTOR_RIDGE)
    )


def fuse_by_selection(
    partials, selector: LinearSoftmaxModel, subsets, class_count: int
) -> np.ndarray:
    """Expand the posterior of the selector's argmax expert per sample.

    Ties go to the earliest expert in the list order, i.e. manyshot before
    mediumshot before fewshot.
    """
    prob_rows, drops, single = _expansion_inputs(partials, subsets, class_count, stacklevel=2)
    scores = np.atleast_2d(selector.scores(partials))
    winner = np.argmax(scores, axis=1)
    if np.any(winner >= len(prob_rows)):
        raise IndexError(f"the selector picks expert {winner.max()} of {len(prob_rows)}")
    # only the rows an expert wins are expanded, straight into the answer
    q = np.empty((len(winner), class_count))
    for e, (rows, subset, drop) in enumerate(zip(prob_rows, subsets, drops)):
        won = winner == e
        q[won] = _expansion(rows[won], subset, class_count, drop)
    return q[0] if single else q


def train_stacker(val_partials, val_class_labels, class_count: int) -> LinearSoftmaxModel:
    """Fit the linear softmax stacker from the concatenated validation
    partial posteriors to their ``class_count`` classes.

    The fit minimizes the mean cross-entropy plus the ridge
    ``STACKER_RIDGE / 2 * |theta|^2`` by damped Newton from zero weights,
    to the certificate ``_newton.CERTIFICATE_TOL``, as the selector's does. A label
    outside ``[0, class_count)`` raises a ValueError.
    """
    labels = np.asarray(val_class_labels, dtype=np.int64)
    return LinearSoftmaxModel(
        *_fit_softmax("stacker", val_partials, labels, class_count, STACKER_RIDGE)
    )


def fuse_by_stacking(partials, stacker: LinearSoftmaxModel) -> np.ndarray:
    q = stacker.scores(partials)
    single = all(_as_array(p).ndim == 1 for p in partials)
    return q[0] if single else q


@dataclass(frozen=True)
class CalibrationParams:
    """Per-expert elementwise logit scale and shift vectors, with the record
    of the fit that made them as :class:`LinearSoftmaxModel` keeps it and the
    penalized objective at the identity and at the result (None for vectors
    set by hand)."""

    scales: tuple[np.ndarray, ...]
    shifts: tuple[np.ndarray, ...]
    steps: int | None = None
    gradient_norm: float | None = None
    objective_initial: float | None = None
    objective_final: float | None = None

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
        rows, was_1d = _rows(_as_array(logits, "logits"))
        single = single and was_1d
        if rows.shape[1] != len(w):
            raise ValueError(
                f"logit width {rows.shape[1]} does not match calibration width {len(w)}"
            )
        logit_rows.append(rows)
    q = _calibration_forward(
        logit_rows, subsets, class_count, calib.scales, calib.shifts, stacklevel=2
    )
    q /= q.sum(axis=1, keepdims=True)
    return q[0] if single else q


def _calibration_forward(logit_rows, subsets, class_count, scales, shifts, stacklevel=2):
    """The mean of the expansions of the per-expert softmax(w * z + b),
    warning as :func:`_expansion_inputs` warns."""
    probs = [softmax(z * w + b) for z, w, b in zip(logit_rows, scales, shifts)]
    prob_rows, drops, _ = _expansion_inputs(probs, subsets, class_count, stacklevel + 1)
    return _mean_expansion(prob_rows, subsets, drops, class_count)


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


def _calibration_rows(logit_rows, columns, scales, shifts):
    """Per-row terms of the validation cross-entropy, the mean of -log q:
    each row's fused label probability q, and per expert the calibrated
    softmax p, its label entry and d loss / d logits. ``columns`` comes from
    :func:`_label_columns`: each expert's expansion is read at the label
    only, and its label entry is that column over its divisor."""
    n, n_experts = len(logit_rows[0]), len(logit_rows)
    rows = np.arange(n)
    probs = [softmax(z * w + b) for z, w, b in zip(logit_rows, scales, shifts)]
    picked = [p[rows, col] for p, (col, _) in zip(probs, columns)]
    # each expert's expansion at the labels, averaged as the expansions are
    q = np.stack([pc / div for pc, (_, div) in zip(picked, columns)]).mean(axis=0)
    coef = -1.0 / (n * n_experts * q)
    dus = []
    for p, pc, (col, div) in zip(probs, picked, columns):
        # d loss / d p has one nonzero per row, v at the label's column, so
        # sum(p * dp) is p[col] * v and p * (dp - inner) is p * -inner off it
        v = coef / div
        inner = pc * v
        du = p * (0.0 - inner)[:, None]
        du[rows, col] = pc * (v - inner)
        dus.append(du)
    return q, probs, picked, dus


@dataclass(frozen=True)
class _CalibrationPoint:
    """The per-row terms of :func:`_calibration_rows` at one parameter
    vector, with each row's loss -log q; ``finite`` is false where any of
    them overflowed."""

    theta: np.ndarray
    q: np.ndarray
    loss: np.ndarray
    probs: list
    picked: list
    dus: list
    finite: bool


class _PenalizedCalibration(_RidgeNewtonProblem):
    """The validation cross-entropy of the calibrated soft vote plus the
    ridge ``CALIBRATION_RIDGE / 2 * (|w - 1|^2 + |b|^2)``, over one flat
    parameter vector theta = (w_1, b_1, ..., w_E, b_E), with its gradient,
    Hessian and Cholesky Newton step."""

    name = "calibration"

    def __init__(self, val_logits, subsets, val_class_labels, class_count):
        self.logit_rows = [_rows(_as_array(z, "logits"))[0] for z in val_logits]
        if len(self.logit_rows) != len(subsets):
            raise ValueError("need one subset (or None) per expert logit matrix")
        labels = np.asarray(val_class_labels, dtype=np.int64)
        self.columns = _label_columns(self.logit_rows, subsets, class_count, labels)
        self.widths = [z.shape[1] for z in self.logit_rows]
        self.starts = np.cumsum([0] + [2 * m for m in self.widths])
        self.anchor = self.flatten(CalibrationParams.identity(self.widths))
        self.ridge = CALIBRATION_RIDGE

    def flatten(self, calib: CalibrationParams) -> np.ndarray:
        return np.concatenate([v for w, b in zip(calib.scales, calib.shifts) for v in (w, b)])

    def _split(self, theta):
        scales = [theta[s : s + m] for s, m in zip(self.starts, self.widths)]
        shifts = [theta[s + m : s + 2 * m] for s, m in zip(self.starts, self.widths)]
        return scales, shifts

    def params(self, theta, *record) -> CalibrationParams:
        scales, shifts = self._split(theta)
        return CalibrationParams(
            tuple(w.copy() for w in scales), tuple(b.copy() for b in shifts), *record
        )

    def evaluate(self, theta) -> _CalibrationPoint:
        """The per-row terms at ``theta``. Floating-point errors are
        silenced: a point where anything overflows is marked not finite."""
        with np.errstate(all="ignore"):
            q, probs, picked, dus = _calibration_rows(
                self.logit_rows, self.columns, *self._split(theta)
            )
            loss = -np.log(q)
        finite = bool(np.isfinite(loss).all()) and all(np.isfinite(du).all() for du in dus)
        return _CalibrationPoint(theta, q, loss, probs, picked, dus, finite)

    def gradient(self, point: _CalibrationPoint) -> np.ndarray:
        """Chains through the expansion map, the per-expert softmax, and the
        mean combination whose normalizer is the expert count (each
        expansion row has unit mass, so the normalizer is constant). Its
        cross-entropy part is bitwise that of the full expansion."""
        parts = [
            v
            for du, z in zip(point.dus, self.logit_rows)
            for v in ((du * z).sum(axis=0), du.sum(axis=0))
        ]
        return np.concatenate(parts) + self.ridge * (point.theta - self.anchor)

    def hessian(self, point: _CalibrationPoint) -> np.ndarray:
        """(1/n) G^T G - (1/n) sum_i J_i^T (grad^2 q_i / q_i) J_i + ridge I.

        Row i of G is grad q_i / q_i, and J_i maps an expert's (w, b) to its
        logits z_i * w + b. With a_i the expert's share of q_i, e the one-hot
        label column, x_i = J_i^T (e - p_i) and y_i = J_i^T p_i, the expert's
        part of grad q_i / q_i is a_i x_i, and grad^2 q_i / q_i is
        J_i^T a_i ((e - p_i)(e - p_i)^T + p_i p_i^T - diag p_i) J_i, which
        couples no two experts. So an expert's diagonal block is
        -(1/n) sum_i ((a_i - a_i^2) x_i x_i^T + a_i y_i y_i^T
        - a_i J_i^T diag(p_i) J_i): two Gram matrices and a diagonal. The
        block of experts e and f is (1/n) sum_i a_ie a_if x_ie x_if^T.
        """
        n, n_experts = len(point.q), len(self.widths)
        rows = np.arange(n)
        size = self.starts[-1]
        hess = np.empty((size, size))
        done = []
        for z, p, pc, (col, div), s, m in zip(
            self.logit_rows, point.probs, point.picked, self.columns, self.starts, self.widths
        ):
            a = pc / (n_experts * div * point.q)
            root = np.sqrt(a)
            ys = np.empty((n, 2 * m))  # sqrt(a_i) y_i
            np.multiply(root[:, None], p, out=ys[:, m:])
            np.multiply(ys[:, m:], z, out=ys[:, :m])
            xs = -ys  # sqrt(a_i) x_i
            xs[rows, col] += root * z[rows, col]
            xs[rows, m + col] += root
            # with square-root weights each Gram is X^T X, which BLAS forms as
            # a symmetric rank-n update; a <= 1 but for rounding
            rest = np.sqrt(np.clip(1.0 - a, 0.0, None))[:, None] * xs
            block = rest.T @ rest + ys.T @ ys
            # J_i^T diag(p_i) J_i is diagonal in each of its four m x m parts
            p_z2 = root @ (ys[:, :m] * z)
            p_z, p_1 = np.split(root @ ys, 2)
            d = np.arange(m)
            block[d, d] -= p_z2
            block[d, m + d] -= p_z
            block[m + d, d] -= p_z
            block[m + d, m + d] -= p_1
            own = slice(s, s + 2 * m)
            hess[own, own] = block / -n
            for other, other_root, other_xs in done:
                cross = (other_xs * (other_root * root)[:, None]).T @ xs / n
                hess[other, own] = cross
                hess[own, other] = cross.T
            done.append((own, root, xs))
        hess[np.diag_indices(size)] += self.ridge
        return hess

    def newton_step(self, point: _CalibrationPoint, grad) -> np.ndarray:
        return _newton_step(self.hessian(point), grad)


def train_joint_calibration(
    val_logits, subsets, val_class_labels, class_count: int
) -> tuple[CalibrationParams, list[float]]:
    """Learn the scale/shift vectors minimizing the validation cross-entropy
    of the calibrated soft-vote posterior plus the ridge
    ``CALIBRATION_RIDGE / 2 * (|w - 1|^2 + |b|^2)`` toward the identity.

    :func:`_damped_newton` from the identity (w = 1, b = 0), each step
    solved with the exact Hessian, shifted where it is not positive
    definite, to the certificate ``_newton.CERTIFICATE_TOL``.

    Returns the parameters, with the Newton steps taken, the final
    gradient's largest absolute entry and the first and last objective, and
    the trace of the penalized objective, one entry per iterate, initial
    first; the trace never increases.
    """
    problem = _PenalizedCalibration(val_logits, subsets, val_class_labels, class_count)
    point, steps, gradient_norm, trace = _damped_newton(problem)
    return problem.params(point.theta, steps, gradient_norm, trace[0], trace[-1]), trace
