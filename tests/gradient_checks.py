"""Gradient references for the tests: central finite differences of the
network's batch loss and of the joint calibration's penalized objective,
against the analytic gradients that training and the calibration fit use.

Tests import this module as they import ``conftest``.
"""

from __future__ import annotations

import numpy as np

from tailens.fusion import CalibrationParams, _calibration_forward, _PenalizedCalibration
from tailens.network import NetworkParams, backward_gradients, batch_loss


def _central_difference_error(loss, arrays, grads, eps: float) -> float:
    """Worst deviation of analytic gradients from central finite differences.

    Each coordinate of ``arrays`` is nudged by +-eps in place (and restored)
    and ``loss()`` is re-evaluated. The error metric is
    |analytic - numeric| / max(1, |analytic|, |numeric|), so it reads as
    relative error for large gradients and absolute error for small ones.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    worst = 0.0
    for arr, grad in zip(arrays, grads):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss()
            flat[i] = orig - eps
            down = loss()
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]), abs(numeric))
            worst = max(worst, err)
    return worst


def finite_diff_check(
    params: NetworkParams,
    features,
    labels,
    *,
    eps: float = 1e-4,
    frozen_layers: int = 0,
) -> float:
    """Worst-coordinate deviation of analytic gradients from central
    finite differences of the batch loss, over all unfrozen coordinates
    (error metric as in :func:`_central_difference_error`)."""
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    analytic = backward_gradients(params, features, labels, frozen_layers)
    work = params.copy()
    arrays = [a for w, b in work.layers[frozen_layers:] for a in (w, b)]
    grads = [g for gw, gb in analytic for g in (gw, gb)]
    return _central_difference_error(
        lambda: batch_loss(work, features, labels), arrays, grads, eps
    )


def _calibration_objective(logit_rows, subsets, class_count, labels, scales, shifts):
    q = _calibration_forward(logit_rows, subsets, class_count, scales, shifts)
    return float(-np.log(q[np.arange(len(labels)), labels]).mean())


def calibration_gradient(
    val_logits, subsets, val_class_labels, class_count: int, params: CalibrationParams
) -> np.ndarray:
    """The gradient of :func:`train_joint_calibration`'s penalized objective
    at ``params``, flat as (w_1, b_1, ..., w_E, b_E), recomputed from the
    inputs: an independent check of the certificate the fit records."""
    problem = _PenalizedCalibration(val_logits, subsets, val_class_labels, class_count)
    return problem.gradient(problem.evaluate(problem.flatten(params)))


def calibration_finite_diff_check(
    val_logits,
    subsets,
    val_class_labels,
    class_count: int,
    params: CalibrationParams | None = None,
    *,
    eps: float = 1e-5,
) -> float:
    """Compare the gradient that :func:`train_joint_calibration` descends
    against central differences of its penalized objective, evaluated
    through the full expansion, at ``params`` (default: the identity).

    Same error metric as the network check: |a - n| / max(1, |a|, |n|),
    maximized over every scale and shift coordinate.
    """
    problem = _PenalizedCalibration(val_logits, subsets, val_class_labels, class_count)
    labels = np.asarray(val_class_labels, dtype=np.int64)
    theta = problem.anchor.copy() if params is None else problem.flatten(params)
    grad = problem.gradient(problem.evaluate(theta))

    def objective():
        r = theta - problem.anchor
        loss = _calibration_objective(
            problem.logit_rows, subsets, class_count, labels, *problem._split(theta)
        )
        return loss + 0.5 * problem.ridge * float(r @ r)

    return _central_difference_error(objective, [theta], [grad], eps)
