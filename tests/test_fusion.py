import inspect
import warnings

import numpy as np
import pytest

from tailens import DataError, _newton
from tailens._dumps import (
    ingest_external_posteriors,
    write_partial_posterior_csv,
    write_posterior_csv,
)
from tailens._newton import CERTIFICATE_TOL, _newton_step, _PenalizedSoftmax
from tailens.dataset import Fold, SubsetSpec
from tailens.fusion import (
    CALIBRATION_RIDGE,
    SELECTOR_RIDGE,
    STACKER_RIDGE,
    CalibrationParams,
    _PenalizedCalibration,
    concat_partials,
    expand_partial,
    fuse_by_selection,
    fuse_by_stacking,
    fuse_calibrated,
    fuse_kl_min,
    fuse_soft_vote,
    train_expert_selector,
    train_joint_calibration,
    train_stacker,
)
from tailens.experts import PartialPosterior
from tailens.network import init_network, softmax

from conftest import read_partial_dump
from gradient_checks import (
    _central_difference_error,
    calibration_finite_diff_check,
    calibration_gradient,
)

S01 = SubsetSpec(Fold.MANYSHOT, np.array([0, 1]))
S23 = SubsetSpec(Fold.FEWSHOT, np.array([2, 3]))


class TestExpandPartial:
    def test_reject_mass_spreads_evenly(self):
        full = expand_partial(np.array([0.6, 0.3, 0.1]), S01, 4)
        assert np.allclose(full, [0.6, 0.3, 0.05, 0.05])

    def test_zero_reject_leaves_outside_zero(self):
        full = expand_partial(np.array([0.7, 0.3, 0.0]), S01, 4)
        assert np.allclose(full, [0.7, 0.3, 0.0, 0.0])

    def test_singleton_subset(self):
        subset = SubsetSpec(Fold.MEDIUMSHOT, np.array([2]))
        full = expand_partial(np.array([0.4, 0.6]), subset, 3)
        assert np.allclose(full, [0.3, 0.3, 0.4])

    def test_mass_preserved(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(3), size=50)
        full = expand_partial(probs, S01, 4)
        assert np.max(np.abs(full.sum(axis=1) - 1.0)) < 1e-12

    def test_full_coverage_drops_reject_with_warning(self):
        subset = SubsetSpec(Fold.MANYSHOT, np.array([0, 1, 2]))
        with pytest.warns(UserWarning, match="reject mass"):
            full = expand_partial(np.array([0.5, 0.3, 0.1, 0.1]), subset, 3)
        assert np.allclose(full, np.array([0.5, 0.3, 0.1]) / 0.9)

    def test_none_subset_is_identity(self):
        rows = np.array([[0.25, 0.25, 0.5]])
        assert np.array_equal(expand_partial(rows, None, 3), rows)


class TestSoftVote:
    def test_single_expert_equals_expansion(self):
        p = np.array([0.6, 0.3, 0.1])
        assert np.allclose(fuse_soft_vote([p], [S01], 4), expand_partial(p, S01, 4))

    def test_two_expert_arithmetic(self):
        q = fuse_soft_vote(
            [np.array([0.8, 0.1, 0.1]), np.array([0.3, 0.2, 0.5])], [S01, S23], 4
        )
        assert np.allclose(q, [0.525, 0.175, 0.175, 0.125])

    def test_order_invariance(self):
        pa, pb = np.array([0.8, 0.1, 0.1]), np.array([0.3, 0.2, 0.5])
        q1 = fuse_soft_vote([pa, pb], [S01, S23], 4)
        q2 = fuse_soft_vote([pb, pa], [S23, S01], 4)
        assert np.allclose(q1, q2, atol=1e-15)

    def test_batch_shape(self):
        rng = np.random.default_rng(1)
        pa = rng.dirichlet(np.ones(3), size=10)
        pb = rng.dirichlet(np.ones(3), size=10)
        q = fuse_soft_vote([pa, pb], [S01, S23], 4)
        assert q.shape == (10, 4)
        assert np.max(np.abs(q.sum(axis=1) - 1.0)) < 1e-9


def _kl_reference_objective(q, partials, subsets):
    """sum_e KL(p_e || A_e q) per row, evaluated directly in class space."""
    total = np.zeros(len(q))
    for p, s in zip(partials, subsets):
        if s is None:
            aligned = q
        else:
            out = np.setdiff1d(np.arange(q.shape[1]), s.classes)
            aligned = np.column_stack([q[:, s.classes], q[:, out].sum(axis=1)])
        pos = p > 0
        ratio = np.where(pos, p, 1.0) / np.where(pos, aligned, 1.0)
        total += np.where(pos, p * np.log(ratio), 0.0).sum(axis=1)
    return total


def _kl_pull(q, partials, subsets):
    """-dF/dq of the summed KL objective, per class."""
    pull = np.zeros_like(q)
    for p, s in zip(partials, subsets):
        if s is None:
            pull += np.divide(p, q, out=np.zeros_like(q), where=p > 0)
            continue
        k = s.size
        pull[:, s.classes] += np.divide(
            p[:, :k], q[:, s.classes], out=np.zeros_like(p[:, :k]), where=p[:, :k] > 0
        )
        out = np.setdiff1d(np.arange(q.shape[1]), s.classes)
        rest = q[:, out].sum(axis=1)
        pull[:, out] += np.divide(p[:, k], rest, out=np.zeros_like(rest), where=p[:, k] > 0)[
            :, None
        ]
    return pull


def _em_reference(partials, subsets, class_count, iterations):
    """Full-space EM for coarsened observations: in-subset mass maps to its
    class, reject mass spreads over the out-of-subset classes in proportion
    to the current q, and the update averages over experts."""
    q = fuse_soft_vote(partials, subsets, class_count)
    fixed = np.zeros_like(q)
    spread = []
    for p, s in zip(partials, subsets):
        if s is None:
            fixed += p
        else:
            fixed[:, s.classes] += p[:, : s.size]
            spread.append((np.setdiff1d(np.arange(class_count), s.classes), p[:, s.size :]))
    for _ in range(iterations):
        new = fixed.copy()
        for out, reject in spread:
            rest = q[:, out].sum(axis=1, keepdims=True)
            new[:, out] += reject * np.divide(
                q[:, out], rest, out=np.zeros_like(q[:, out]), where=rest > 0
            )
        q = new / new.sum(axis=1, keepdims=True)
    return q


@pytest.mark.parametrize(
    "solve", [fuse_kl_min, train_joint_calibration, train_expert_selector, train_stacker]
)
def test_certified_solves_take_no_solver_knobs(solve):
    # each solve runs to its certificate; a cap, tolerance, step size,
    # epoch budget or seed as an argument would be a knob that a weak
    # solver needs
    for name in inspect.signature(solve).parameters:
        assert not any(knob in name for knob in ("steps", "tol", "lr", "epochs", "seed")), name


class TestKLFusion:
    def test_full_coverage_expert_recovers_its_posterior(self):
        subset = SubsetSpec(Fold.MANYSHOT, np.array([0, 1, 2]))
        p = np.array([0.5, 0.3, 0.2, 0.0])
        result = fuse_kl_min([p], [subset], 3)
        assert np.max(np.abs(result.probabilities - [0.5, 0.3, 0.2])) < 1e-6

    def test_duplicated_expert_changes_nothing(self):
        pa = np.array([0.7, 0.2, 0.1])
        once = fuse_kl_min([pa], [S01], 4)
        twice = fuse_kl_min([pa, pa], [S01, S01], 4)
        assert np.max(np.abs(once.probabilities - twice.probabilities)) < 1e-12
        assert twice.objective == pytest.approx(2 * once.objective, rel=1e-9)

    def test_objective_not_above_soft_vote_start(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pa = rng.dirichlet(np.ones(3))
            pb = rng.dirichlet(np.ones(3))
            result = fuse_kl_min([pa, pb], [S01, S23], 4)
            start = fuse_soft_vote([pa, pb], [S01, S23], 4)
            (start_objective,) = _kl_reference_objective(
                start[None], [pa[None], pb[None]], [S01, S23]
            )
            assert result.objective <= start_objective + 1e-12

    def test_overlapping_subsets_with_full_width_member_match_long_em(self):
        # class 8 is in no subset; the None member still covers it
        rng = np.random.default_rng(6)
        subsets = [
            SubsetSpec(Fold.MANYSHOT, np.array([0, 1, 2, 3])),
            SubsetSpec(Fold.MEDIUMSHOT, np.array([2, 3, 4, 5])),
            SubsetSpec(Fold.FEWSHOT, np.array([5, 6, 7])),
            None,
        ]
        partials = [rng.dirichlet(np.ones(s.size + 1), size=30) for s in subsets[:3]]
        partials.append(rng.dirichlet(np.ones(9), size=30))
        result = fuse_kl_min(partials, subsets, 9)
        reference = _em_reference(partials, subsets, 9, 20_000)
        objective = _kl_reference_objective(result.probabilities, partials, subsets)
        assert np.max(np.abs(objective - result.objective)) < 1e-12
        assert np.all(
            objective <= _kl_reference_objective(reference, partials, subsets) + 1e-12
        )
        assert np.max(np.abs(result.probabilities.sum(axis=1) - 1.0)) < 1e-12

    def test_exact_zeros_and_uncovered_classes_match_long_em(self):
        # zero entries leave atoms with no in-subset mass, whose optimum can
        # sit on the boundary q = 0; classes 2 and 7 are in no subset
        rng = np.random.default_rng(8)
        subsets = [
            SubsetSpec(Fold.MANYSHOT, np.array([0, 1, 3, 5, 8])),
            SubsetSpec(Fold.MEDIUMSHOT, np.array([0, 3, 5, 6])),
            SubsetSpec(Fold.FEWSHOT, np.array([0, 3, 4])),
        ]
        partials = []
        for s in subsets:
            p = rng.dirichlet(np.full(s.size + 1, 0.5), size=40)
            p[rng.random(p.shape) < 0.3] = 0.0
            p[p.sum(axis=1) == 0, -1] = 1.0
            partials.append(p / p.sum(axis=1, keepdims=True))
        result = fuse_kl_min(partials, subsets, 9)
        reference = _em_reference(partials, subsets, 9, 20_000)
        objective = _kl_reference_objective(result.probabilities, partials, subsets)
        assert np.all(
            objective <= _kl_reference_objective(reference, partials, subsets) + 1e-12
        )
        q = result.probabilities
        pull = _kl_pull(q, partials, subsets)
        assert np.max(pull.max(axis=1) - (q * pull).sum(axis=1)) <= 1e-9

    def test_optimality_certificate_on_sixty_classes(self):
        rng = np.random.default_rng(11)
        classes = rng.permutation(60)
        subsets = [
            SubsetSpec(Fold.MANYSHOT, np.sort(classes[:12])),
            SubsetSpec(Fold.MEDIUMSHOT, np.sort(classes[12:32])),
            SubsetSpec(Fold.FEWSHOT, np.sort(classes[32:])),
        ]
        partials = []
        for s in subsets:
            logits = rng.normal(0.0, 2.0, size=(1200, s.size + 1))
            # every expert rejects the first 200 rows
            logits[:200, -1] = logits[:200, :-1].max(axis=1) + rng.uniform(6.0, 12.0, 200)
            partials.append(softmax(logits))
        assert all(np.all(p[:200, -1] > 0.9) for p in partials)
        result = fuse_kl_min(partials, subsets, 60)
        assert result.steps_taken <= 50
        q = result.probabilities
        pull = _kl_pull(q, partials, subsets)
        # F(q) - F(q*) <= max_c pull_c - sum_c q_c pull_c, by convexity
        gap = pull.max(axis=1) - (q * pull).sum(axis=1)
        assert np.max(gap) <= 1e-9

    @pytest.mark.parametrize("lift", [100.0, 300.0])
    def test_active_set_keeps_confident_rows_to_a_few_steps(self, lift):
        # each row's owner lifts one of its classes and the other two
        # experts their reject outputs by the same margin, so most atoms
        # sit near zero mass; without pinning atoms at their floor, Newton
        # crawls there over tens to hundreds of steps
        rng = np.random.default_rng(26)
        n = 600
        subsets = [
            SubsetSpec(Fold.MANYSHOT, np.arange(3)),
            SubsetSpec(Fold.MEDIUMSHOT, np.arange(3, 14)),
            SubsetSpec(Fold.FEWSHOT, np.arange(14, 60)),
        ]
        logits = [rng.normal(0.0, 2.0, size=(n, s.size + 1)) for s in subsets]
        owner = rng.integers(0, 3, size=n)
        margin = lift * rng.uniform(0.5, 1.0, size=n)
        for row in range(n):
            for e, z in enumerate(logits):
                own = e == owner[row]
                z[row, rng.integers(0, subsets[e].size) if own else -1] += margin[row]
        partials = [softmax(z) for z in logits]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fuse_kl_min(partials, subsets, 60)
        assert caught == []
        assert result.steps_taken <= 15
        q = result.probabilities
        pull = _kl_pull(q, partials, subsets)
        assert np.max(pull.max(axis=1) - (q * pull).sum(axis=1)) <= 1e-9

    def test_matches_grid_search_on_disjoint_experts(self):
        # brute-force oracle: evaluate the objective on a fine simplex grid
        rng = np.random.default_rng(5)
        pa = rng.dirichlet(np.ones(3))
        pb = rng.dirichlet(np.ones(2))
        sa = SubsetSpec(Fold.MANYSHOT, np.array([0, 1]))
        sb = SubsetSpec(Fold.FEWSHOT, np.array([2]))
        res = 400
        pairs = np.array(
            [(i / res, j / res) for i in range(res + 1) for j in range(res + 1 - i)]
        )
        grid = np.column_stack([pairs, 1.0 - pairs.sum(axis=1)])
        grid = np.maximum(grid, 1e-300)

        def objective(q):
            total = np.zeros(len(q))
            for p, s in ((pa, sa), (pb, sb)):
                k = len(s.classes)
                for local in range(k):
                    total += p[local] * (
                        np.log(p[local]) - np.log(q[:, s.classes[local]])
                    )
                out = [c for c in range(3) if c not in set(s.classes.tolist())]
                rej = q[:, out].sum(axis=1)
                if p[k] > 0:
                    total += p[k] * (np.log(p[k]) - np.log(np.maximum(rej, 1e-300)))
            return total

        best = grid[np.argmin(objective(grid))]
        result = fuse_kl_min([pa, pb], [sa, sb], 3)
        assert np.max(np.abs(result.probabilities - best)) < 2 * (1.0 / res)


def _selector_training_data(n_per_fold=60, seed=0):
    """Partials where each expert confidently claims exactly its own fold."""
    rng = np.random.default_rng(seed)
    widths = (3, 3, 3)  # two classes + reject per expert
    partials = [np.empty((3 * n_per_fold, w)) for w in widths]
    fold_labels = np.repeat([0, 1, 2], n_per_fold)
    for i, fold in enumerate(fold_labels):
        for e in range(3):
            if e == fold:
                own = rng.dirichlet((8.0, 8.0, 1.0))
            else:
                own = rng.dirichlet((1.0, 1.0, 12.0))
            partials[e][i] = own
    return partials, fold_labels


def _constant_partials_world():
    """Identical partials on every row, folds 60/20/10: only the biases can
    learn, and the fit must find the majority share."""
    partials = [np.tile([0.4, 0.4, 0.2], (90, 1)) for _ in range(3)]
    return partials, np.repeat([0, 1, 2], [60, 20, 10])


def _linear_theta(model):
    weights, bias = model.params.layers[0]
    return np.vstack([weights, bias]).ravel()


def _difference_hessian(problem, theta, eps=1e-6):
    """The penalized Hessian at ``theta`` from central differences of the
    analytic gradient."""
    hess = np.empty((len(theta), len(theta)))
    for j in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[j] += eps
        down[j] -= eps
        hess[:, j] = (
            problem.gradient(problem.evaluate(up)) - problem.gradient(problem.evaluate(down))
        ) / (2 * eps)
    return hess


def _plain_conjugate_gradient(matvec, rhs, rtol):
    """Conjugate gradients without a preconditioner, the reference for the
    preconditioned solve: from zero on A s = rhs until the residual norm is
    at most ``rtol`` times that of ``rhs`` or after len(rhs) iterations."""
    s = np.zeros_like(rhs)
    r = rhs.copy()
    d = r.copy()
    rr = float(r @ r)
    stop = rtol * rtol * rr
    for _ in range(len(rhs)):
        ad = matvec(d)
        alpha = rr / float(d @ ad)
        s += alpha * d
        r -= alpha * ad
        rr_next = float(r @ r)
        if rr_next <= stop:
            break
        d = r + (rr_next / rr) * d
        rr = rr_next
    return s


def _stacker_world(n=90):
    """Random partials of three experts (widths 3, 4, 3) with labels over
    6 classes, loosely tied to the partials."""
    rng = np.random.default_rng(3)
    partials = [rng.dirichlet(np.ones(w), size=n) for w in (3, 4, 3)]
    labels = rng.integers(0, 6, size=n)
    partials[1][np.arange(n), labels % 4] += 2.0
    partials[1] /= partials[1].sum(axis=1, keepdims=True)
    return partials, labels


class TestPreconditionedStep:
    def _problem(self):
        partials, labels = _stacker_world()
        return _PenalizedSoftmax("stacker", concat_partials(partials), labels, 6, STACKER_RIDGE)

    def test_step_descends(self):
        problem = self._problem()
        rng = np.random.default_rng(8)
        for scale in (0.5, 2.0, 8.0):
            point = problem.evaluate(rng.normal(0.0, scale, size=problem.anchor.shape))
            grad = problem.gradient(point)
            assert grad @ problem.newton_step(point, grad) < 0

    def test_step_at_zero_weights_is_the_exact_newton_step(self):
        # every row's probabilities are uniform there, so the Kronecker
        # factors are the Hessian itself and one product solves the system
        problem = self._problem()
        theta = problem.anchor.copy()
        point = problem.evaluate(theta)
        grad = problem.gradient(point)
        exact = np.linalg.solve(_difference_hessian(problem, theta), -grad)
        step = problem.newton_step(point, grad)
        assert np.linalg.norm(step - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_fit_reaches_the_plain_fit_minimizer(self, monkeypatch):
        partials, labels = _stacker_world()
        problem = self._problem()
        fits = [train_stacker(partials, labels, 6)]
        monkeypatch.setattr(
            _newton,
            "_conjugate_gradient",
            lambda matvec, precondition, rhs, rtol: _plain_conjugate_gradient(matvec, rhs, rtol),
        )
        fits.append(train_stacker(partials, labels, 6))
        thetas = [_linear_theta(fit) for fit in fits]
        norms = []
        for fit, theta in zip(fits, thetas):
            grad = problem.gradient(problem.evaluate(theta))
            assert fit.gradient_norm == np.abs(grad).max() <= CERTIFICATE_TOL
            norms.append(np.linalg.norm(grad))
        # the ridge makes the objective STACKER_RIDGE-strongly convex, so a
        # point with gradient g lies within |g| / STACKER_RIDGE of the
        # minimizer
        assert np.linalg.norm(thetas[0] - thetas[1]) <= sum(norms) / STACKER_RIDGE


class TestSelector:
    @pytest.mark.parametrize(
        "world, fit, ridge",
        [
            (_selector_training_data, train_expert_selector, SELECTOR_RIDGE),
            (_constant_partials_world, train_expert_selector, SELECTOR_RIDGE),
            (_stacker_world, lambda partials, labels: train_stacker(partials, labels, 6),
             STACKER_RIDGE),
        ],
        ids=["separable", "constant", "stacker"],
    )
    def test_fit_returns_with_its_certificate(self, world, fit, ridge):
        partials, labels = world()
        model = fit(partials, labels)
        problem = _PenalizedSoftmax(
            "fit", concat_partials(partials), labels, model.params.dims[-1], ridge
        )
        grad = problem.gradient(problem.evaluate(_linear_theta(model)))
        assert np.abs(grad).max() <= CERTIFICATE_TOL
        assert model.gradient_norm == np.abs(grad).max()
        assert 0 < model.steps < 100

    def test_penalized_gradient_and_hessian_match_finite_differences(self):
        partials, fold_labels = _selector_training_data(n_per_fold=10, seed=4)
        problem = _PenalizedSoftmax(
            "selector", concat_partials(partials), fold_labels, 3, SELECTOR_RIDGE
        )
        rng = np.random.default_rng(6)
        theta = rng.normal(0.0, 2.0, size=problem.anchor.shape)
        point = problem.evaluate(theta.copy())
        grad = problem.gradient(point)
        err = _central_difference_error(
            lambda: problem.objective(problem.evaluate(theta)), [theta], [grad], 1e-6
        )
        assert err < 1e-7
        # conjugate gradients on the Hessian-vector product solve the
        # Newton system: H step = -grad, H from central differences
        hess = _difference_hessian(problem, theta)
        step = problem.newton_step(point, grad)
        assert np.linalg.norm(hess @ step + grad) <= 0.5 * np.linalg.norm(grad)
        assert grad @ step < 0

    def test_separable_selector_generalizes(self):
        partials, fold_labels = _selector_training_data()
        train = [p[::2] for p in partials]
        held = [p[1::2] for p in partials]
        selector = train_expert_selector(train, fold_labels[::2])
        preds = np.argmax(selector.scores(held), axis=1)
        assert np.mean(preds == fold_labels[1::2]) >= 0.95

    def test_constant_partials_hit_majority_share(self):
        partials, fold_labels = _constant_partials_world()
        selector = train_expert_selector(partials, fold_labels)
        preds = np.argmax(selector.scores(partials), axis=1)
        assert np.mean(preds == fold_labels) == pytest.approx(60 / 90)

    def test_concatenated_feature_width(self):
        partials, fold_labels = _selector_training_data()
        assert concat_partials(partials).shape[1] == sum(p.shape[1] for p in partials)
        selector = train_expert_selector(partials, fold_labels)
        assert selector.params.dims == [9, 3]

    def test_missing_fold_is_an_error(self):
        partials, fold_labels = _selector_training_data()
        mask = fold_labels != 2
        with pytest.raises(ValueError, match="fold 2"):
            train_expert_selector([p[mask] for p in partials], fold_labels[mask])

    def test_exact_tie_picks_the_manyshot_expert(self):
        # a zero-weight selector scores every expert equally; the first
        # expert in list order (manyshot) wins the tie
        from tailens.fusion import LinearSoftmaxModel
        from tailens.network import NetworkParams

        selector = LinearSoftmaxModel(
            NetworkParams([(np.zeros((9, 3)), np.zeros(3))])
        )
        pa = np.array([[0.9, 0.05, 0.05]])
        pb = np.array([[0.2, 0.2, 0.6]])
        pc = np.array([[0.3, 0.3, 0.4]])
        subsets = [S01, S23, SubsetSpec(Fold.MEDIUMSHOT, np.array([0, 1]))]
        q = fuse_by_selection([pa, pb, pc], selector, subsets, 4)
        assert np.allclose(q[0], expand_partial(pa[0], S01, 4))

    def test_selection_expands_argmax_expert(self):
        pa = np.array([[0.9, 0.05, 0.05]])
        pb = np.array([[0.2, 0.2, 0.6]])
        partials, fold_labels = _selector_training_data()
        # build a selector certain of expert 0 by training on fold-0 rich data
        selector = train_expert_selector(partials, fold_labels)
        scores = selector.scores([pa, pb, pa])
        winner = int(np.argmax(scores))
        subsets = [S01, S23, SubsetSpec(Fold.MEDIUMSHOT, np.array([0, 1]))]
        q = fuse_by_selection([pa, pb, pa], selector, subsets, 4)
        expected = expand_partial([pa, pb, pa][winner][0], subsets[winner], 4)
        assert np.allclose(q[0], expected)
        assert abs(q[0].sum() - 1.0) < 1e-9


class TestStacker:
    def test_shapes_and_normalization(self):
        rng = np.random.default_rng(2)
        pa = rng.dirichlet(np.ones(3), size=40)
        pb = rng.dirichlet(np.ones(3), size=40)
        labels = rng.integers(0, 4, size=40)
        stacker = train_stacker([pa, pb], labels, 4)
        assert stacker.params.dims == [6, 4]
        q = fuse_by_stacking([pa, pb], stacker)
        assert q.shape == (40, 4)
        assert np.max(np.abs(q.sum(axis=1) - 1.0)) < 1e-9

    def test_meta_models_train_no_network(self, monkeypatch):
        def no_sgd(*args, **kwargs):
            raise AssertionError("meta-model training ran network SGD")

        monkeypatch.setattr("tailens.network.fit_networks", no_sgd)
        partials, fold_labels = _selector_training_data()
        train_expert_selector(partials, fold_labels)
        train_stacker(partials, fold_labels, 3)

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_label_outside_the_classes_is_an_error(self, bad):
        partials, labels = _stacker_world()
        labels = labels.copy()
        labels[5] = bad
        with pytest.raises(ValueError, match=r"need one label in \[0, 6\) per row"):
            train_stacker(partials, labels, 6)

    def test_untrained_stacker_still_normalizes(self):
        stacker_params = init_network([6, 4], seed=3)
        from tailens.fusion import LinearSoftmaxModel

        stacker = LinearSoftmaxModel(stacker_params)
        rng = np.random.default_rng(0)
        q = fuse_by_stacking(
            [rng.dirichlet(np.ones(3), size=7), rng.dirichlet(np.ones(3), size=7)],
            stacker,
        )
        assert np.max(np.abs(q.sum(axis=1) - 1.0)) < 1e-9


def reference_calibration_grad(logit_rows, subsets, class_count, labels, scales, shifts):
    """The calibration loss and gradient through the full expansion: every
    expert's posterior is expanded to all classes, and dL/dp is a full
    table with one nonzero per row."""
    n, n_experts = len(labels), len(logit_rows)
    probs = [softmax(z * w + b) for z, w, b in zip(logit_rows, scales, shifts)]
    q = np.stack([expand_partial(p, s, class_count) for p, s in zip(probs, subsets)]).mean(axis=0)
    loss = float(-np.log(q[np.arange(n), labels]).mean())
    coef = -1.0 / (n * n_experts * q[np.arange(n), labels])
    grads_w, grads_b = [], []
    for z, p, subset in zip(logit_rows, probs, subsets):
        dp = np.zeros_like(p)
        if subset is None:
            dp[np.arange(n), labels] = coef
        else:
            local = subset.local_map(class_count)[labels]
            rows_in = np.nonzero(local >= 0)[0]
            dp[rows_in, local[rows_in]] = coef[rows_in]
            rows_out = np.nonzero(local < 0)[0]
            dp[rows_out, subset.size] = coef[rows_out] / (class_count - subset.size)
        inner = (p * dp).sum(axis=1, keepdims=True)
        du = p * (dp - inner)
        grads_w.append((du * z).sum(axis=0))
        grads_b.append(du.sum(axis=0))
    return loss, grads_w, grads_b


def _calibration_world(world, n=120, seed=17, scale=2.0):
    """Random logits and labels for a named ensemble layout."""
    rng = np.random.default_rng(seed)
    if world == "two-subsets":
        class_count, subsets = 4, [S01, S23]
    elif world == "with-full-width":
        class_count, subsets = 4, [S01, None, S23]
    elif world == "full-width-only":
        class_count, subsets = 4, [None, None]
    else:
        class_count = 7
        subsets = [
            SubsetSpec(Fold.MANYSHOT, np.array([0, 4])),
            SubsetSpec(Fold.MEDIUMSHOT, np.array([1, 2, 6])),
            SubsetSpec(Fold.FEWSHOT, np.array([3, 5])),
        ]
    widths = [class_count if s is None else s.size + 1 for s in subsets]
    logits = [rng.normal(0.0, scale, size=(n, m)) for m in widths]
    labels = rng.integers(0, class_count, size=n)
    return logits, subsets, labels, class_count


THREE_WORLDS = ["two-subsets", "with-full-width", "uneven-seven"]


class TestCalibrationReadsTheLabelColumn:
    """The calibration gradient reads each expert's calibrated posterior at
    the label only; the loss and the gradient's cross-entropy part must be
    bitwise those of the gradient through the full expansion."""

    @pytest.mark.parametrize("world", THREE_WORLDS)
    @pytest.mark.parametrize("at", ["identity", "random"])
    def test_gradient_is_bitwise_the_expansion_gradient(self, world, at):
        logits, subsets, labels, class_count = _calibration_world(world)
        rng = np.random.default_rng(5)
        widths = [z.shape[1] for z in logits]
        if at == "identity":
            scales = [np.ones(m) for m in widths]
            shifts = [np.zeros(m) for m in widths]
        else:
            scales = [rng.normal(1.0, 0.4, size=m) for m in widths]
            shifts = [rng.normal(0.0, 0.4, size=m) for m in widths]
        problem = _PenalizedCalibration(logits, subsets, labels, class_count)
        theta = problem.flatten(CalibrationParams(tuple(scales), tuple(shifts)))
        point = problem.evaluate(theta)
        ref_loss, ref_gw, ref_gb = reference_calibration_grad(
            logits, subsets, class_count, labels, scales, shifts
        )
        assert float(point.loss.mean()) == ref_loss
        ref_grad = np.concatenate([v for w, b in zip(ref_gw, ref_gb) for v in (w, b)])
        ref_grad += CALIBRATION_RIDGE * (theta - problem.anchor)
        assert problem.gradient(point).tobytes() == ref_grad.tobytes()

    def test_full_coverage_subset_is_rejected(self):
        full = SubsetSpec(Fold.MANYSHOT, np.arange(4))
        z = [np.zeros((3, 5)), np.zeros((3, 3))]
        with pytest.raises(ValueError, match="full-coverage"):
            train_joint_calibration(z, [full, S01], np.array([0, 1, 2]), 4)

    def test_width_mismatch_is_rejected(self):
        z = [np.zeros((3, 4)), np.zeros((3, 3))]
        with pytest.raises(ValueError, match="logit width"):
            train_joint_calibration(z, [S01, S23], np.array([0, 1, 2]), 4)


class TestRidgeNewtonCalibration:
    """The fit minimizes the penalized objective by damped Newton and
    returns with its gradient certificate."""

    def _problem(self, world, n=40):
        logits, subsets, labels, class_count = _calibration_world(world, n=n, seed=3)
        problem = _PenalizedCalibration(logits, subsets, labels, class_count)
        rng = np.random.default_rng(8)
        theta = problem.anchor + rng.normal(0.0, 0.3, size=problem.anchor.shape)
        return problem, theta

    @pytest.mark.parametrize("world", THREE_WORLDS)
    def test_penalized_gradient_matches_finite_differences(self, world):
        problem, theta = self._problem(world)
        grad = problem.gradient(problem.evaluate(theta.copy()))
        err = _central_difference_error(
            lambda: problem.objective(problem.evaluate(theta)), [theta], [grad], 1e-6
        )
        assert err < 1e-7

    @pytest.mark.parametrize("world", THREE_WORLDS)
    def test_hessian_matches_finite_differences(self, world):
        problem, theta = self._problem(world)
        hess = problem.hessian(problem.evaluate(theta))
        assert np.array_equal(hess, hess.T)
        eps = 1e-5
        numeric = np.empty_like(hess)
        for j in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[j] += eps
            down[j] -= eps
            numeric[:, j] = (
                problem.gradient(problem.evaluate(up))
                - problem.gradient(problem.evaluate(down))
            ) / (2 * eps)
        assert np.max(np.abs(hess - numeric)) < 1e-7 * max(1.0, np.abs(hess).max())

    @pytest.mark.parametrize("world", THREE_WORLDS + ["full-width-only"])
    def test_fit_returns_with_its_certificate(self, world):
        logits, subsets, labels, class_count = _calibration_world(world)
        calib, trace = train_joint_calibration(logits, subsets, labels, class_count)
        grad = calibration_gradient(logits, subsets, labels, class_count, calib)
        assert calib.gradient_norm == np.abs(grad).max() <= CERTIFICATE_TOL
        assert calib.steps == len(trace) - 1
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_trace_is_the_penalized_objective(self):
        logits, subsets, labels, class_count = _calibration_world("uneven-seven")
        calib, trace = train_joint_calibration(logits, subsets, labels, class_count)
        problem = _PenalizedCalibration(logits, subsets, labels, class_count)
        final = problem.objective(problem.evaluate(problem.flatten(calib)))
        assert abs(trace[-1] - final) <= 1e-14
        assert trace[0] == reference_calibration_grad(
            logits,
            subsets,
            class_count,
            labels,
            [np.ones(z.shape[1]) for z in logits],
            [np.zeros(z.shape[1]) for z in logits],
        )[0]

    def test_steps_cap_newton_iterations(self, monkeypatch):
        logits, subsets, labels, class_count = _calibration_world("two-subsets")
        monkeypatch.setattr(_newton, "NEWTON_STEPS", 2)
        calib, trace = train_joint_calibration(logits, subsets, labels, class_count)
        assert len(trace) == 3 and calib.steps == 2
        assert calib.gradient_norm > CERTIFICATE_TOL

    def test_tiny_descent_step_resolves_as_a_decrease(self):
        # next to the optimum a short step along -grad lowers the objective
        # far less than the rows' rounding; its change must still be < 0
        logits, subsets, labels, class_count = _calibration_world("with-full-width")
        calib, _ = train_joint_calibration(logits, subsets, labels, class_count)
        problem = _PenalizedCalibration(logits, subsets, labels, class_count)
        rng = np.random.default_rng(2)
        for _ in range(20):
            theta = problem.flatten(calib) + rng.normal(0.0, 1e-8, size=problem.anchor.shape)
            old = problem.evaluate(theta)
            new = problem.evaluate(theta - 1e-3 * problem.gradient(old))
            assert problem.change(old, new) < 0

    def test_indefinite_hessian_takes_the_mirrored_shift(self):
        # the most negative eigenvalue is -1, so the shift is 2 and the
        # shifted Hessian diag(1, 4)
        step = _newton_step(np.diag([-1.0, 2.0]), np.array([1.0, 1.0]))
        assert np.allclose(step, [-1.0, -0.25], rtol=1e-12)

    def test_large_logits_do_not_warn(self):
        # confident, often wrong experts: some trial steps underflow a
        # label probability to zero, and must be rejected quietly
        logits, subsets, labels, class_count = _calibration_world(
            "full-width-only", scale=60.0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calib, trace = train_joint_calibration(logits, subsets, labels, class_count)
            grad = calibration_gradient(logits, subsets, labels, class_count, calib)
        assert np.abs(grad).max() <= CERTIFICATE_TOL
        assert all(b <= a for a, b in zip(trace, trace[1:]))


class TestJointCalibration:
    def _instance(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        z = [rng.normal(size=(n, 3)), rng.normal(size=(n, 3))]
        labels = rng.integers(0, 4, size=n)
        return z, [S01, S23], labels

    def test_identity_calibration_equals_soft_vote(self):
        z, subsets, _ = self._instance()
        calib = CalibrationParams.identity([3, 3])
        q_cal = fuse_calibrated(z, calib, subsets, 4)
        q_sv = fuse_soft_vote([softmax(z[0]), softmax(z[1])], subsets, 4)
        assert np.max(np.abs(q_cal - q_sv)) <= 1e-12

    def test_gradient_matches_finite_differences(self):
        z, subsets, labels = self._instance(n=12, seed=3)
        err = calibration_finite_diff_check(z, subsets, labels, 4)
        assert err < 1e-4

    def test_gradient_check_at_random_parameters(self):
        rng = np.random.default_rng(9)
        z, subsets, labels = self._instance(n=10, seed=4)
        params = CalibrationParams(
            scales=tuple(rng.normal(1.0, 0.3, size=3) for _ in range(2)),
            shifts=tuple(rng.normal(0.0, 0.3, size=3) for _ in range(2)),
        )
        assert calibration_finite_diff_check(z, subsets, labels, 4, params) < 1e-4

    def test_training_does_not_increase_objective(self):
        z, subsets, labels = self._instance(n=60, seed=5)
        _, trace = train_joint_calibration(z, subsets, labels, 4)
        assert min(trace) <= trace[0]

    def test_reject_shift_invariance_for_full_width_member(self):
        # adding a constant to every logit of one expert leaves its softmax
        # unchanged, hence the fused posterior too
        z, subsets, _ = self._instance()
        calib = CalibrationParams(
            scales=(np.ones(3), np.ones(3)),
            shifts=(np.full(3, 2.5), np.zeros(3)),
        )
        base = fuse_calibrated(z, CalibrationParams.identity([3, 3]), subsets, 4)
        shifted = fuse_calibrated(z, calib, subsets, 4)
        assert np.max(np.abs(base - shifted)) < 1e-9


class TestExternalPosteriors:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(4), size=9)
        path = tmp_path / "model.csv"
        write_posterior_csv(path, np.arange(9), probs)
        table = ingest_external_posteriors(path, 4)
        assert table.name == "model"
        assert np.array_equal(table.sample_ids, np.arange(9))
        assert np.array_equal(table.probabilities, probs)

    def test_single_model_ensemble_is_identity(self):
        probs = np.array([[0.25, 0.25, 0.5], [0.5, 0.25, 0.25]])
        fused = fuse_soft_vote([probs], [None], 3)
        assert np.allclose(fused, probs, atol=1e-12)

    def test_off_mass_rows_renormalized_with_warning(self, tmp_path):
        path = tmp_path / "sloppy.csv"
        path.write_text("sample_id,p0,p1\n0,0.6,0.6\n1,0.5,0.5\n")
        with pytest.warns(UserWarning, match="renormalized"):
            table = ingest_external_posteriors(path, 2)
        assert np.allclose(table.probabilities.sum(axis=1), 1.0)

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("0.5,nan", "non-finite"),
            ("inf,0.5", "non-finite"),
            ("inf,-inf", "non-finite"),
            ("-0.25,1.25", "negative probability"),
            ("0.0,0.0", "sum to zero"),
            ("0.5", "expected 2 probabilities, got 1"),
            ("half,0.5", "probability is not a number"),
        ],
    )
    def test_bad_rows_rejected_with_file_and_line(self, tmp_path, row, problem):
        path = tmp_path / "broken.csv"
        path.write_text(f"sample_id,p0,p1\n0,0.5,0.5\n1,{row}\n")
        with pytest.raises(ValueError, match=f"broken.csv line 3: .*{problem}"):
            ingest_external_posteriors(path, 2)

    @pytest.mark.parametrize(
        "sample_id, problem",
        [("0", "repeated sample id"), ("banana", "sample_id 'banana' is not an integer"),
         ("1.5", "sample_id '1.5' is not an integer")],
        ids=["repeated-id", "text-id", "fractional-id"],
    )
    def test_bad_sample_ids_rejected_with_file_and_line(self, tmp_path, sample_id, problem):
        path = tmp_path / "broken.csv"
        path.write_text(f"sample_id,p0,p1\n0,0.5,0.5\n{sample_id},0.25,0.75\n")
        with pytest.raises(DataError, match=f"broken.csv line 3: {problem}"):
            ingest_external_posteriors(path, 2)

    def test_dump_of_another_class_count_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        write_posterior_csv(path, [0], [[0.25, 0.25, 0.5]])
        with pytest.raises(ValueError, match="wide.csv: header does not match a 2-class"):
            ingest_external_posteriors(path, 2)

    def test_calibrated_model_fusion(self):
        rng = np.random.default_rng(1)
        val_p = [rng.dirichlet(np.ones(3), size=50) for _ in range(2)]
        test_p = [rng.dirichlet(np.ones(3), size=20) for _ in range(2)]
        labels = rng.integers(0, 3, size=50)
        # full-width models join as members with subset None
        members = [None, None]
        calib, _ = train_joint_calibration([np.log(p) for p in val_p], members, labels, 3)
        fused = fuse_calibrated([np.log(p) for p in test_p], calib, members, 3)
        assert fused.shape == (20, 3)
        assert np.max(np.abs(fused.sum(axis=1) - 1.0)) < 1e-9

    def test_partial_dump_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(3), size=5)
        partial = PartialPosterior(logits=np.log(probs), probabilities=probs)
        path = tmp_path / "expert_dump.csv"
        write_partial_posterior_csv(path, np.arange(5), partial, S01, rho=2.0)
        header, ids, expert_ids, loaded, sidecar = read_partial_dump(path)
        assert header == ["sample_id", "expert_id", "p0", "p1", "preject"]
        assert np.array_equal(ids, np.arange(5))
        # the expert id column is the subset's
        assert expert_ids.tolist() == [int(Fold.MANYSHOT)] * 5
        assert np.array_equal(loaded, probs)
        assert sidecar["classes"] == [0, 1]
        assert sidecar["rho"] == 2.0
