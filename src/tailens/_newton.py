"""The certified-fit solver of fusion's ridge-Newton fits: damped Newton on
a mean of per-row losses plus a ridge, stopped by a gradient certificate.
Each problem solves its own Newton system: the selector's and stacker's
linear softmax by preconditioned conjugate gradients, the calibration by
:func:`_newton_step` on its exact Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import DivergenceError, NetworkParams

# Every ridge-Newton fit (calibration, selector, stacker) is certified once
# the largest absolute entry of its penalized gradient is at most
# CERTIFICATE_TOL. NEWTON_STEPS caps its iterations; the workloads take 8-14,
# so the cap only bounds a fit gone wrong.
CERTIFICATE_TOL = 1e-10
NEWTON_STEPS = 100
# Summed row by row, a change of a fit's objective below this is still
# mostly the rows' rounding (about 4e-17 was seen at the end of a
# calibration fit), so the trapezoid rule on the gradients gives it instead.
UNRESOLVED_CHANGE = 1e-14


class _RidgeNewtonProblem:
    """A mean of per-row losses plus the ridge
    ``ridge / 2 * |theta - anchor|^2`` over one flat parameter vector, the
    form every certified fit here minimizes. A subclass sets ``name``,
    ``anchor`` and ``ridge`` and supplies ``evaluate(theta)``, a point that
    carries ``theta``, the per-row ``loss`` and ``finite`` (false where
    anything overflowed); ``gradient(point)``; and
    ``newton_step(point, grad)``, a descent direction that solves the Newton
    system exactly or approximately."""

    name: str
    anchor: np.ndarray
    ridge: float

    def objective(self, point) -> float:
        r = point.theta - self.anchor
        return float(point.loss.mean()) + 0.5 * self.ridge * float(r @ r)

    def change(self, old, new) -> float:
        """objective(new) - objective(old), from the rows' differences in
        loss and the ridge's exact change. Summed this way it resolves
        changes far below the rounding of the objective itself, which a
        Newton step near the optimum makes. Below ``UNRESOLVED_CHANGE`` it
        is the trapezoid rule on the two gradients instead, whose error is
        cubic in the step."""
        if not new.finite:
            return math.inf
        step = new.theta - old.theta
        r = old.theta - self.anchor
        ridge = self.ridge * float(r @ step + 0.5 * (step @ step))
        change = float((new.loss - old.loss).mean()) + ridge
        if abs(change) <= UNRESOLVED_CHANGE:
            change = 0.5 * float((self.gradient(old) + self.gradient(new)) @ step)
        return change


def _damped_newton(problem: _RidgeNewtonProblem):
    """Damped Newton on ``problem`` from its anchor.

    Each iteration takes the problem's Newton step, then halves it until the
    Armijo condition holds on the change as
    :meth:`_RidgeNewtonProblem.change` resolves it; a trial point that
    overflows is a rejected step. The fit stops once the largest absolute
    gradient entry is at most ``CERTIFICATE_TOL`` (its certificate), when no
    decrease that float64 can represent is left, or after ``NEWTON_STEPS``
    iterations.

    Returns the final point, the Newton steps taken, the final gradient's
    largest absolute entry, and the objective trace, one entry per iterate,
    initial first. Each later entry is the one before plus the step's
    change, so the trace never increases.
    """
    point = problem.evaluate(problem.anchor)
    if not point.finite:
        raise DivergenceError(f"{problem.name} objective is non-finite at initialization")
    trace = [problem.objective(point)]
    grad = problem.gradient(point)
    for _ in range(NEWTON_STEPS):
        if np.abs(grad).max() <= CERTIFICATE_TOL:
            break
        step = problem.newton_step(point, grad)
        slope = float(grad @ step)
        alpha = 1.0
        for _ in range(60):
            trial = problem.evaluate(point.theta + alpha * step)
            change = problem.change(point, trial)
            if change < 0 and change <= 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            break  # no decrease that float64 can represent is left
        point = trial
        trace.append(trace[-1] + change)
        grad = problem.gradient(point)
    return point, len(trace) - 1, float(np.abs(grad).max()), trace


def _conjugate_gradient(matvec, precondition, rhs, rtol: float) -> np.ndarray:
    """Conjugate gradients from zero on A s = rhs, preconditioned by M^-1,
    with A and M symmetric positive definite and given as ``matvec`` and
    ``precondition``, until the residual norm is at most ``rtol`` times
    that of ``rhs`` or after len(rhs) iterations. Every iterate s has
    rhs @ s > 0, so -grad as ``rhs`` gives a descent step."""
    s = np.zeros_like(rhs)
    r = rhs.copy()
    stop = rtol * rtol * float(r @ r)
    z = precondition(r)
    d = z.copy()
    rz = float(r @ z)
    for _ in range(len(rhs)):
        ad = matvec(d)
        alpha = rz / float(d @ ad)
        s += alpha * d
        r -= alpha * ad
        if float(r @ r) <= stop:
            break
        z = precondition(r)
        rz_next = float(r @ z)
        d = z + (rz_next / rz) * d
        rz = rz_next
    return s


def _newton_step(hess, grad) -> np.ndarray:
    """-hess^-1 grad through a Cholesky factor. Where ``hess`` is not
    positive definite, the Levenberg shift mu I is added with mu twice the
    magnitude of its most negative eigenvalue, so that the shifted
    Hessian's least curvature mirrors it; mu is at least 1e-6 of hess's
    largest entry, and doubles if the factor still fails in rounding."""
    if not np.all(np.isfinite(hess)):
        raise DivergenceError("calibration Hessian is non-finite")
    eye = np.eye(len(grad))
    shift = 0.0
    while True:
        try:
            factor = np.linalg.cholesky(hess + shift * eye)
        except np.linalg.LinAlgError:
            shift = max(
                2.0 * shift,
                -2.0 * np.linalg.eigvalsh(hess)[0],
                1e-6 * np.abs(hess).max(),
            )
            continue
        return -np.linalg.solve(factor.T, np.linalg.solve(factor, grad))


@dataclass(frozen=True)
class _SoftmaxPoint:
    """A softmax fit's per-row losses and probabilities at one parameter
    vector; ``finite`` is false where a loss overflowed."""

    theta: np.ndarray
    loss: np.ndarray
    probs: np.ndarray
    finite: bool


def _checked_labels(labels, n: int, outputs: int) -> np.ndarray:
    """``labels`` in int64: one in ``[0, outputs)`` per row, or a ValueError."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,) or not np.all((labels >= 0) & (labels < outputs)):
        raise ValueError(f"need one label in [0, {outputs}) per row")
    return labels


class _PenalizedSoftmax(_RidgeNewtonProblem):
    """The mean cross-entropy of the linear softmax softmax(x W + b) plus
    the ridge ``ridge / 2 * |theta|^2``, over theta = the rows of [W; b] in
    order, with its gradient and a preconditioned conjugate-gradient Newton
    step. Labels outside ``[0, outputs)`` raise a ValueError."""

    def __init__(self, name: str, features, labels, outputs: int, ridge: float):
        n, d = features.shape
        self.labels = _checked_labels(labels, n, outputs)
        self.name = name
        # a constant last input carries the bias, so x W + b = inputs @ [W; b]
        self.inputs = np.hstack([features, np.ones((n, 1))])
        self.outputs = outputs
        self.anchor = np.zeros((d + 1) * outputs)
        self.ridge = ridge
        # the input factor of the preconditioner, X^T X / n, fixed per problem
        self.input_eig = np.linalg.eigh(self.inputs.T @ self.inputs / n)

    def params(self, theta) -> NetworkParams:
        weights = theta.reshape(-1, self.outputs)
        return NetworkParams([(weights[:-1].copy(), weights[-1].copy())])

    def evaluate(self, theta) -> _SoftmaxPoint:
        """Each row's loss is log(1 + sum of the other exponentials) minus
        the label's logit, both relative to the row's largest logit, so a
        confident row keeps its tiny loss instead of rounding it to zero."""
        rows = np.arange(len(self.labels))
        with np.errstate(all="ignore"):
            z = self.inputs @ theta.reshape(-1, self.outputs)
            top = np.argmax(z, axis=1)
            z -= z[rows, top][:, None]
            e = np.exp(z)
            e[rows, top] = 0.0
            log_mass = np.log1p(e.sum(axis=1))
            loss = log_mass - z[rows, self.labels]
            probs = np.exp(z - log_mass[:, None])
        return _SoftmaxPoint(theta, loss, probs, bool(np.isfinite(loss).all()))

    def gradient(self, point: _SoftmaxPoint) -> np.ndarray:
        residual = point.probs.copy()
        # p - 1 at the label, without cancellation for a confident row
        residual[np.arange(len(self.labels)), self.labels] = np.expm1(-point.loss)
        return (self.inputs.T @ residual).ravel() / len(self.labels) + self.ridge * point.theta

    def newton_step(self, point: _SoftmaxPoint, grad) -> np.ndarray:
        """Conjugate gradients on the Hessian-vector product
        (1/n) X^T (p * (X V - sum(p * X V))) + ridge V, with the forcing
        tolerance min(1/2, sqrt|grad|) that keeps Newton's convergence
        superlinear. The ridge makes the Hessian positive definite.

        The preconditioner is the Kronecker-factored curvature
        (B ⊗ A + ridge I)^-1 (K-FAC, Martens & Grosse 2015), B = X^T X / n
        and A = (diag(sum_i p_i) - P^T P) / n, applied through both factors'
        eigendecompositions. It is the Hessian itself where every row has
        the same probabilities, as at zero weights."""
        p, n = point.probs, len(self.labels)
        in_vals, in_vecs = self.input_eig
        out_vals, out_vecs = np.linalg.eigh((np.diag(p.sum(axis=0)) - p.T @ p) / n)
        # both factors are positive semidefinite; an eigenvalue that rounding
        # makes negative is about -1e-15, far below the ridge
        scale = 1.0 / (np.multiply.outer(in_vals, out_vals) + self.ridge)

        def hess_times(v):
            dz = self.inputs @ v.reshape(-1, self.outputs)
            dp = p * (dz - (p * dz).sum(axis=1, keepdims=True))
            return (self.inputs.T @ dp).ravel() / n + self.ridge * v

        def precondition(v):
            rotated = in_vecs.T @ v.reshape(-1, self.outputs) @ out_vecs
            return (in_vecs @ (rotated * scale) @ out_vecs.T).ravel()

        rtol = min(0.5, math.sqrt(float(np.linalg.norm(grad))))
        return _conjugate_gradient(hess_times, precondition, -grad, rtol)
