import numpy as np
import pytest

from tailens import DataError
from tailens.dataset import Fold, SubsetSpec
from tailens.fusion import (
    CalibrationParams,
    ExternalPosteriorTable,
    calibration_finite_diff_check,
    concat_partials,
    expand_partial,
    fuse_by_selection,
    fuse_by_stacking,
    fuse_calibrated,
    fuse_kl_min,
    fuse_models,
    fuse_soft_vote,
    ingest_external_posteriors,
    read_partial_posterior_csv,
    train_expert_selector,
    train_joint_calibration,
    train_stacker,
    write_partial_posterior_csv,
    write_posterior_csv,
)
from tailens.experts import PartialPosterior
from tailens.network import init_network, softmax

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
            start = fuse_kl_min([pa, pb], [S01, S23], 4, steps=0)
            assert result.objective <= start.objective + 1e-12

    def test_zero_steps_is_soft_vote(self):
        rng = np.random.default_rng(4)
        pa = rng.dirichlet(np.ones(3), size=20)
        pb = rng.dirichlet(np.ones(3), size=20)
        start = fuse_kl_min([pa, pb], [S01, S23], 4, steps=0)
        assert start.steps_taken == 0
        assert np.array_equal(start.probabilities, fuse_soft_vote([pa, pb], [S01, S23], 4))

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


class TestSelector:
    def test_separable_selector_generalizes(self):
        partials, fold_labels = _selector_training_data()
        train = [p[::2] for p in partials]
        held = [p[1::2] for p in partials]
        selector = train_expert_selector(train, fold_labels[::2], seed=0, epochs=60)
        preds = np.argmax(selector.scores(held), axis=1)
        assert np.mean(preds == fold_labels[1::2]) >= 0.95

    def test_constant_partials_hit_majority_share(self):
        n = 90
        partials = [np.tile([0.4, 0.4, 0.2], (n, 1)) for _ in range(3)]
        fold_labels = np.repeat([0, 1, 2], [60, 20, 10])
        selector = train_expert_selector(partials, fold_labels, seed=1, epochs=40)
        preds = np.argmax(selector.scores(partials), axis=1)
        assert np.mean(preds == fold_labels) == pytest.approx(60 / 90)

    def test_concatenated_feature_width(self):
        partials, fold_labels = _selector_training_data()
        assert concat_partials(partials).shape[1] == sum(p.shape[1] for p in partials)
        selector = train_expert_selector(partials, fold_labels, seed=0, epochs=5)
        assert selector.params.dims == [9, 3]

    def test_missing_fold_is_an_error(self):
        partials, fold_labels = _selector_training_data()
        mask = fold_labels != 2
        with pytest.raises(ValueError, match="fold 2"):
            train_expert_selector([p[mask] for p in partials], fold_labels[mask])

    def test_exact_tie_picks_the_manyshot_expert(self):
        # a zero-weight selector scores every expert equally; the first
        # expert in list order (manyshot) wins the tie
        from tailens.fusion import SelectorModel
        from tailens.network import NetworkParams

        selector = SelectorModel(
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
        selector = train_expert_selector(partials, fold_labels, seed=0, epochs=60)
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
        stacker = train_stacker([pa, pb], labels, 4, seed=0, epochs=5)
        assert stacker.params.dims == [6, 4]
        q = fuse_by_stacking([pa, pb], stacker)
        assert q.shape == (40, 4)
        assert np.max(np.abs(q.sum(axis=1) - 1.0)) < 1e-9

    def test_meta_models_skip_the_full_dataset_loss(self, monkeypatch):
        def no_full_pass(*args):
            raise AssertionError("meta-model training evaluated the full dataset")

        monkeypatch.setattr("tailens.network.dataset_loss", no_full_pass)
        partials, fold_labels = _selector_training_data()
        train_expert_selector(partials, fold_labels, seed=0, epochs=3)
        train_stacker(partials, fold_labels, 3, seed=0, epochs=3)

    def test_untrained_stacker_still_normalizes(self):
        stacker_params = init_network([6, 4], seed=3)
        from tailens.fusion import StackerModel

        stacker = StackerModel(stacker_params)
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


def reference_calibration(logits, subsets, labels, class_count, steps, lr):
    """train_joint_calibration's gradient descent on the reference gradient."""
    scales = [np.ones(z.shape[1]) for z in logits]
    shifts = [np.zeros(z.shape[1]) for z in logits]
    loss, gw, gb = reference_calibration_grad(logits, subsets, class_count, labels, scales, shifts)
    trace, best = [loss], (loss, [w.copy() for w in scales], [b.copy() for b in shifts])
    for _ in range(steps):
        for w, b, dw, db in zip(scales, shifts, gw, gb):
            w -= lr * dw
            b -= lr * db
        loss, gw, gb = reference_calibration_grad(
            logits, subsets, class_count, labels, scales, shifts
        )
        trace.append(loss)
        if loss < best[0]:
            best = (loss, [w.copy() for w in scales], [b.copy() for b in shifts])
    return best[1], best[2], trace


class TestCalibrationReadsTheLabelColumn:
    """The fit reads each expert's calibrated posterior at the label only;
    the parameters and the trace must be bitwise those of the gradient
    through the full expansion."""

    @pytest.mark.parametrize(
        "world",
        ["two-subsets", "with-full-width", "uneven-seven"],
    )
    def test_fit_is_bitwise_the_expansion_gradient(self, world):
        rng = np.random.default_rng(17)
        if world == "two-subsets":
            class_count, subsets = 4, [S01, S23]
        elif world == "with-full-width":
            class_count, subsets = 4, [S01, None, S23]
        else:
            class_count = 7
            subsets = [
                SubsetSpec(Fold.MANYSHOT, np.array([0, 4])),
                SubsetSpec(Fold.MEDIUMSHOT, np.array([1, 2, 6])),
                SubsetSpec(Fold.FEWSHOT, np.array([3, 5])),
            ]
        widths = [class_count if s is None else s.size + 1 for s in subsets]
        logits = [rng.normal(0.0, 2.0, size=(120, m)) for m in widths]
        labels = rng.integers(0, class_count, size=120)
        calib, trace = train_joint_calibration(
            logits, subsets, labels, class_count, steps=60, lr=2.0
        )
        scales, shifts, ref_trace = reference_calibration(
            logits, subsets, labels, class_count, steps=60, lr=2.0
        )
        assert trace == ref_trace
        for a, b in zip(calib.scales + calib.shifts, scales + shifts):
            assert a.tobytes() == b.tobytes()

    def test_full_coverage_subset_is_rejected(self):
        full = SubsetSpec(Fold.MANYSHOT, np.arange(4))
        z = [np.zeros((3, 5)), np.zeros((3, 3))]
        with pytest.raises(ValueError, match="full-coverage"):
            train_joint_calibration(z, [full, S01], np.array([0, 1, 2]), 4, steps=1)

    def test_width_mismatch_is_rejected(self):
        z = [np.zeros((3, 4)), np.zeros((3, 3))]
        with pytest.raises(ValueError, match="logit width"):
            train_joint_calibration(z, [S01, S23], np.array([0, 1, 2]), 4, steps=1)


class TestJointCalibration:
    def _instance(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        z = [rng.normal(size=(n, 3)), rng.normal(size=(n, 3))]
        labels = rng.integers(0, 4, size=n)
        return z, [S01, S23], labels

    def test_zero_steps_returns_identity(self):
        z, subsets, labels = self._instance()
        calib, trace = train_joint_calibration(z, subsets, labels, 4, steps=0)
        assert all(np.all(w == 1.0) for w in calib.scales)
        assert all(np.all(b == 0.0) for b in calib.shifts)
        assert len(trace) == 1

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
        _, trace = train_joint_calibration(z, subsets, labels, 4, steps=50, lr=1.0)
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
        table = ExternalPosteriorTable("m", np.array([0, 1]), probs)
        fused = fuse_models([table])
        assert np.allclose(fused.probabilities, probs, atol=1e-12)

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
            ("0.0,0.0", "sum to zero"),
        ],
    )
    def test_bad_rows_rejected_with_file_and_line(self, tmp_path, row, problem):
        path = tmp_path / "broken.csv"
        path.write_text(f"sample_id,p0,p1\n0,0.5,0.5\n1,{row}\n")
        with pytest.raises(ValueError, match=f"broken.csv line 3: .*{problem}"):
            ingest_external_posteriors(path, 2)

    def test_key_mismatch_rejected(self):
        a = ExternalPosteriorTable("a", np.array([0, 1]), np.full((2, 2), 0.5))
        b = ExternalPosteriorTable("b", np.array([0, 2]), np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="sample keys"):
            fuse_models([a, b])

    def test_calibrated_model_fusion(self):
        rng = np.random.default_rng(1)
        val_p = [rng.dirichlet(np.ones(3), size=50) for _ in range(2)]
        test_p = [rng.dirichlet(np.ones(3), size=20) for _ in range(2)]
        labels = rng.integers(0, 3, size=50)
        ids_val = np.arange(50)
        ids_test = np.arange(20)
        fused = fuse_models(
            [ExternalPosteriorTable(f"m{i}", ids_test, p) for i, p in enumerate(test_p)],
            strategy="calibrate",
            val_tables=[
                ExternalPosteriorTable(f"m{i}", ids_val, p) for i, p in enumerate(val_p)
            ],
            val_labels=labels,
            calibration_steps=20,
        )
        assert fused.probabilities.shape == (20, 3)
        assert np.max(np.abs(fused.probabilities.sum(axis=1) - 1.0)) < 1e-9

    def test_partial_dump_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(3), size=5)
        partial = PartialPosterior(
            expert_id=Fold.MEDIUMSHOT,
            logits=np.log(probs),
            probabilities=probs,
        )
        path = tmp_path / "expert_dump.csv"
        write_partial_posterior_csv(path, np.arange(5), partial, S01, rho=2.0)
        ids, loaded, sidecar = read_partial_posterior_csv(path)
        assert np.array_equal(ids, np.arange(5))
        assert np.array_equal(loaded, probs)
        assert sidecar["classes"] == [0, 1]
        assert sidecar["rho"] == 2.0

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("1,1,0.5,nan,0.5", "non-finite probability"),
            ("1,1,inf,-inf,0.5", "non-finite probability"),
            ("1,1,0.5,-0.25,0.75", "negative probability"),
            ("1,1,0.0,0.0,0.0", "probabilities sum to zero"),
            ("1,1,0.5,0.5", "expected 3 probabilities"),
            ("0,1,0.5,0.25,0.25", "repeated sample id"),
            ("1,1,half,0.25,0.25", "not a number"),
        ],
        ids=["nan", "inf", "negative", "all-zero", "short-row", "repeated-id", "text-entry"],
    )
    def test_partial_dump_bad_rows_name_file_and_line(self, tmp_path, row, problem):
        probs = np.array([[0.25, 0.25, 0.5]])
        partial = PartialPosterior(Fold.MEDIUMSHOT, np.log(probs), probs)
        path = tmp_path / "expert_dump.csv"
        write_partial_posterior_csv(path, [0], partial, S01)
        path.write_text(path.read_text() + row + "\n")
        with pytest.raises(DataError, match=f"expert_dump.csv line 3: {problem}"):
            read_partial_posterior_csv(path)

    def test_sidecar_without_classes_is_data_error(self, tmp_path):
        probs = np.array([[0.25, 0.25, 0.5]])
        partial = PartialPosterior(Fold.MEDIUMSHOT, np.log(probs), probs)
        path = tmp_path / "expert_dump.csv"
        write_partial_posterior_csv(path, [0], partial, S01)
        path.with_suffix(".json").write_text('{"expert_id": 1}\n')
        with pytest.raises(DataError, match="expert_dump.json: not a dump sidecar"):
            read_partial_posterior_csv(path)
