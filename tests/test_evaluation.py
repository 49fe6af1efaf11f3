import json

import numpy as np
import pytest

import tailens as t
from tailens.dataset import Fold, FoldAssignment, SubsetSpec
from tailens.evaluation import (
    confidence_histogram,
    expert_confusion_matrix,
    fourfold_accuracy,
    msp_histogram,
    oracle_evaluate,
    take_one_out_ablation,
)
from tailens.experts import train_expert


def folds_of(freq, thresholds=(100, 20)):
    return FoldAssignment.from_frequencies(freq, thresholds)


class TestFourfoldAccuracy:
    def test_all_correct(self):
        folds = folds_of([150, 50, 5])
        rep = fourfold_accuracy([0, 1, 2], [0, 1, 2], folds)
        assert (rep.many, rep.medium, rep.few, rep.all) == (1.0, 1.0, 1.0, 1.0)

    def test_counting_with_empty_fold_undefined(self):
        folds = folds_of([150, 5])
        labels = [0, 0, 1, 1]
        preds = [0, 0, 0, 0]
        rep = fourfold_accuracy(preds, labels, folds)
        assert rep.many == 1.0
        assert rep.few == 0.0
        assert rep.all == 0.5
        assert rep.medium is None  # undefined, not zero
        assert json.loads(json.dumps(rep.to_json_dict()))["medium"] is None

    def test_fold_accuracies_recombine_to_all(self):
        rng = np.random.default_rng(0)
        freq = [200, 150, 60, 30, 10, 3]
        folds = folds_of(freq)
        labels = rng.integers(0, 6, size=500)
        preds = rng.integers(0, 6, size=500)
        rep = fourfold_accuracy(preds, labels, folds)
        weighted = sum(
            getattr(rep, fold) * rep.fold_sample_counts[fold] for fold in ("many", "medium", "few")
        )
        assert weighted / rep.total == pytest.approx(rep.all, abs=1e-12)
        assert rep.all == rep.correct / rep.total

    def test_balanced_all_equals_mean_per_class(self):
        rng = np.random.default_rng(1)
        folds = folds_of([150, 50, 5])
        labels = np.repeat([0, 1, 2], 40)
        preds = rng.integers(0, 3, size=120)
        rep = fourfold_accuracy(preds, labels, folds)
        assert np.nanmean(rep.per_class_accuracy) == pytest.approx(rep.all, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fourfold_accuracy([0], [0, 1], folds_of([100, 10]))


@pytest.fixture(scope="module")
def trained_world():
    cfg = t.SyntheticConfig(
        class_count=6,
        feature_dim=4,
        n_max=60,
        alpha=1.6,
        n_val_per_class=8,
        n_test_per_class=10,
        noise_scale=0.35,
    )
    bundle = t.generate_longtailed(cfg, seed=2, thresholds=(30, 8))
    folds = t.assign_folds(bundle.train, thresholds=(30, 8))
    subsets = t.partition_subsets(folds, bundle.train)
    config = t.TrainConfig(lr0=0.3, epochs=30, batch_size=32, seed=1, hidden_dims=(16,))
    baseline, _ = t.train_baseline(bundle, config)
    experts = [
        train_expert(baseline, s, bundle, 2.0, 0, config)[0] for s in subsets
    ]
    return bundle, folds, subsets, experts


class TestOracle:
    def test_single_full_coverage_expert_matches_plain_eval(self, trained_world):
        bundle, folds, _, _ = trained_world
        cfg = t.TrainConfig(lr0=0.3, epochs=20, batch_size=32, seed=3, hidden_dims=(16,))
        baseline, _ = t.train_baseline(bundle, cfg)
        subset = SubsetSpec(Fold.MANYSHOT, np.arange(bundle.class_count))
        expert, _ = train_expert(baseline, subset, bundle, 1.0, 0, cfg)
        rep = oracle_evaluate([expert], bundle.test, folds)
        partial = t.expert_partial_posterior(expert, bundle.test.features)
        preds = np.argmax(partial.probabilities[:, : subset.size], axis=1)
        plain = fourfold_accuracy(preds, bundle.test.labels, folds)
        assert rep.all == plain.all
        assert rep.many == plain.many

    def test_uncovered_class_is_an_error(self, trained_world):
        bundle, folds, _, experts = trained_world
        with pytest.raises(ValueError, match="no expert covers"):
            oracle_evaluate(experts[:2], bundle.test, folds)

    def test_oracle_routing_uses_true_class(self, trained_world):
        bundle, folds, subsets, experts = trained_world
        rep = oracle_evaluate(experts, bundle.test, folds)
        assert 0.0 <= rep.all <= 1.0
        # every prediction lands inside the owning expert's subset
        preds = np.full(bundle.test.n, -1)
        for expert in experts:
            lookup = expert.subset.local_map(bundle.class_count)
            mask = lookup[bundle.test.labels] >= 0
            partial = t.expert_partial_posterior(expert, bundle.test.features[mask])
            local = np.argmax(partial.probabilities[:, : expert.subset.size], axis=1)
            preds[mask] = expert.subset.classes[local]
        again = fourfold_accuracy(preds, bundle.test.labels, folds)
        assert again.all == rep.all

    def test_expert_without_test_rows_changes_nothing(self, trained_world):
        # drop the manyshot classes' test rows: the manyshot expert then
        # owns none of them, and routing it nothing leaves the report as is
        bundle, folds, _, experts = trained_world
        keep = experts[0].subset.local_map(bundle.class_count)[bundle.test.labels] < 0
        test = t.EmbeddingDataset(
            bundle.test.features[keep], bundle.test.labels[keep], bundle.class_count
        )
        rep = oracle_evaluate(experts, test, folds)
        assert rep.to_json_dict() == oracle_evaluate(experts[1:], test, folds).to_json_dict()
        assert rep.many is None and rep.total == int(keep.sum())


class TestConfusionMatrix:
    def test_perfectly_routed_experts_are_diagonal(self):
        folds = folds_of([150, 50, 5])
        subsets = [
            SubsetSpec(Fold.MANYSHOT, np.array([0])),
            SubsetSpec(Fold.MEDIUMSHOT, np.array([1])),
            SubsetSpec(Fold.FEWSHOT, np.array([2])),
        ]
        labels = np.repeat([0, 1, 2], 10)
        partials = []
        for e in range(3):
            rows = np.full((30, 2), 0.0)
            own = labels == e
            rows[own] = [0.99, 0.01]
            rows[~own] = [0.01, 0.99]
            partials.append(rows)
        conf = expert_confusion_matrix(partials, subsets, labels, folds)
        assert np.allclose(np.diag(conf.matrix), 100.0)
        assert conf.diagonal_mass() == pytest.approx(300.0)

    def test_rows_sum_to_hundred(self, trained_world):
        bundle, folds, subsets, experts = trained_world
        partials = [
            t.expert_partial_posterior(e, bundle.test.features) for e in experts
        ]
        conf = expert_confusion_matrix(
            [p.probabilities for p in partials], subsets, bundle.test.labels, folds
        )
        assert np.allclose(conf.matrix.sum(axis=1), 100.0, atol=0.01)
        csv = conf.to_csv()
        assert csv.splitlines()[0] == "true_fold,manyshot,mediumshot,fewshot"


class TestConfidenceHistograms:
    def test_uniform_posterior_lands_in_one_bin(self):
        probs = np.full((17, 5), 0.2)
        hist = confidence_histogram(probs)
        assert hist.size == 17
        # max probability 0.2 falls in the [0.2, 0.25) bin
        assert hist.counts[4] == 17
        assert hist.counts.sum() == 17

    def test_counts_match_population(self, trained_world):
        bundle, _, _, experts = trained_world
        hist = msp_histogram(
            experts[0],
            bundle.test.features,
            class_count=bundle.class_count,
            population="test",
        )
        assert hist.size == bundle.test.n

    def test_partial_flag_uses_reject_column(self, trained_world):
        bundle, _, _, experts = trained_world
        expanded = msp_histogram(
            experts[2], bundle.test.features, class_count=bundle.class_count
        )
        # the raw partial view: the expert's own classes plus the reject entry
        partial = confidence_histogram(
            t.expert_partial_posterior(experts[2], bundle.test.features).probabilities
        )
        assert expanded.size == partial.size == bundle.test.n
        # expansion divides reject confidence over outside classes, so the
        # expanded view cannot be more confident than the partial view
        assert expanded.mean_confidence() <= partial.mean_confidence() + 1e-9


class TestTakeOneOut:
    def test_duplicate_models_change_nothing(self):
        rng = np.random.default_rng(0)
        folds = folds_of([150, 50, 5])
        labels = rng.integers(0, 3, size=60)
        table = rng.dirichlet(np.ones(3), size=60)
        reports = take_one_out_ablation(
            {"a": table, "b": table.copy()}, labels, folds
        )
        assert reports["ensemble"].all == reports["without a"].all
        assert reports["ensemble"].all == reports["without b"].all

    def test_row_count_is_models_plus_one(self):
        rng = np.random.default_rng(1)
        folds = folds_of([150, 50, 5])
        labels = rng.integers(0, 3, size=40)
        tables = {
            name: rng.dirichlet(np.ones(3), size=40) for name in ("a", "b", "c")
        }
        reports = take_one_out_ablation(tables, labels, folds)
        assert len(reports) == 4
        assert set(reports) == {"ensemble", "without a", "without b", "without c"}

    def test_needs_two_models(self):
        folds = folds_of([150, 50, 5])
        with pytest.raises(ValueError):
            take_one_out_ablation({"a": np.full((4, 3), 1 / 3)}, [0, 1, 2, 0], folds)
