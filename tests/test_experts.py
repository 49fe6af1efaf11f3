import re
from dataclasses import replace

import numpy as np
import pytest

import tailens as t
from tailens.dataset import Fold, SubsetSpec
from tailens.experts import (
    expert_partial_posterior,
    expert_subset_accuracy,
    load_expert_checkpoint,
    save_expert_checkpoint,
    select_expert_hyperparams,
    train_expert,
)


@pytest.fixture(scope="module")
def tiny_world():
    """A small generated bundle with its baseline, shared by this module."""
    cfg = t.SyntheticConfig(
        class_count=6,
        feature_dim=4,
        n_max=60,
        alpha=1.6,
        n_val_per_class=8,
        n_test_per_class=8,
        noise_scale=0.4,
    )
    bundle = t.generate_longtailed(cfg, seed=0, thresholds=(30, 8))
    folds = t.assign_folds(bundle.train, thresholds=(30, 8))
    subsets = t.partition_subsets(folds, bundle.train)
    config = t.TrainConfig(lr0=0.3, epochs=30, batch_size=32, seed=1, hidden_dims=(16,))
    baseline, _ = t.train_baseline(bundle, config)
    return bundle, folds, subsets, baseline, config


class TestBaseline:
    def test_balanced_separable_two_class(self):
        rng = np.random.default_rng(4)

        def blob(n_per_class):
            feats = np.concatenate(
                [
                    rng.normal((-3.0, 0.0), 0.3, size=(n_per_class, 2)),
                    rng.normal((3.0, 0.0), 0.3, size=(n_per_class, 2)),
                ]
            )
            labels = np.repeat([0, 1], n_per_class)
            return t.EmbeddingDataset(feats, labels, class_count=2)

        bundle = t.DatasetBundle(train=blob(40), val=blob(10), test=blob(20))
        config = t.TrainConfig(lr0=0.3, epochs=40, batch_size=16, seed=0, hidden_dims=(8,))
        baseline, trace = t.train_baseline(bundle, config)
        preds = np.argmax(t.forward_logits(baseline, bundle.test.features), axis=1)
        per_class = [np.mean(preds[bundle.test.labels == c] == c) for c in range(2)]
        assert min(per_class) >= 0.99
        assert trace[-1] < trace[0]

    def test_head_width_matches_class_count(self, tiny_world):
        bundle, _, _, baseline, _ = tiny_world
        assert baseline.dims[-1] == bundle.class_count


class TestUniformFinetune:
    def test_backbone_is_untouched(self, tiny_world):
        bundle, _, _, baseline, config = tiny_world
        uniform, _ = t.finetune_uniform_classifier(baseline, bundle, config)
        for i in range(baseline.layer_count - 1):
            assert np.array_equal(
                baseline.layers[i][0], uniform.layers[i][0]
            )
            assert np.array_equal(
                baseline.layers[i][1], uniform.layers[i][1]
            )
        assert not np.array_equal(
            baseline.layers[-1][0], uniform.layers[-1][0]
        )


class TestTrainExpert:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch_without_full_dataset_loss(
        self, tiny_world, monkeypatch
    ):
        def no_full_pass(*args):
            raise AssertionError("expert training evaluated the full dataset")

        monkeypatch.setattr("tailens.network.dataset_loss", no_full_pass)
        bundle, _, subsets, baseline, config = tiny_world
        config = replace(config, lr0=1e12, weight_decay=0.0)
        with pytest.raises(t.DivergenceError) as err:
            train_expert(baseline, subsets[2], bundle, 2.0, 0, config)
        assert err.value.epoch is not None

    def test_trace_is_one_mean_batch_loss_per_epoch(self, tiny_world, monkeypatch):
        def no_full_pass(*args):
            raise AssertionError("expert training evaluated the full dataset")

        monkeypatch.setattr("tailens.network.dataset_loss", no_full_pass)
        bundle, _, subsets, baseline, config = tiny_world
        _, trace = train_expert(baseline, subsets[1], bundle, 2.0, 1, config)
        assert len(trace) == config.epochs
        assert trace[-1] < trace[0]

    def test_frozen_prefix_matches_baseline(self, tiny_world):
        bundle, _, subsets, baseline, config = tiny_world
        expert, _ = train_expert(baseline, subsets[1], bundle, 2.0, 1, config)
        assert np.array_equal(
            expert.params.layers[0][0], baseline.layers[0][0]
        )
        assert np.array_equal(
            expert.params.layers[0][1], baseline.layers[0][1]
        )

    def test_head_width_is_subset_plus_reject(self, tiny_world):
        bundle, _, subsets, baseline, config = tiny_world
        expert, _ = train_expert(baseline, subsets[2], bundle, 1.5, 0, config)
        assert expert.params.dims[-1] == subsets[2].size + 1
        assert expert.reject_index == subsets[2].size

    def test_full_coverage_expert_keeps_reject_slot(self, tiny_world):
        bundle, _, _, baseline, config = tiny_world
        subset = SubsetSpec(Fold.MANYSHOT, np.arange(bundle.class_count))
        expert, _ = train_expert(baseline, subset, bundle, 1.0, 0, config)
        assert expert.params.dims[-1] == bundle.class_count + 1
        # the reject output exists but is never targeted, so it collects
        # almost no probability and the expert behaves like a retrained
        # baseline on the real classes
        partial = expert_partial_posterior(expert, bundle.test.features)
        assert partial.probabilities[:, -1].max() < 0.05
        acc = expert_subset_accuracy(expert, bundle.test)
        base_preds = np.argmax(t.forward_logits(baseline, bundle.test.features), axis=1)
        base_acc = np.mean(base_preds == bundle.test.labels)
        assert acc >= base_acc - 0.1

    def test_rho_below_one_rejected(self, tiny_world):
        bundle, _, subsets, baseline, config = tiny_world
        with pytest.raises(ValueError):
            train_expert(baseline, subsets[0], bundle, 0.5, 0, config)


class TestPartialPosterior:
    def test_rho_one_leaves_logits_unchanged(self, tiny_world):
        bundle, _, subsets, baseline, config = tiny_world
        expert, _ = train_expert(baseline, subsets[0], bundle, 1.0, 0, config)
        raw = t.forward_logits(expert.params, bundle.test.features)
        partial = expert_partial_posterior(expert, bundle.test.features)
        assert np.array_equal(partial.logits, raw)

    def test_reject_logit_shift_is_log_rho(self):
        params = t.NetworkParams([(np.zeros((2, 3)), np.zeros(3))])
        expert = t.ExpertModel(
            params=params,
            subset=SubsetSpec(Fold.MANYSHOT, np.array([0, 1])),
            rho=10.0,
            frozen_layers=0,
        )
        partial = expert_partial_posterior(expert, np.zeros((1, 2)))
        assert partial.logits[0, -1] == pytest.approx(2.302585092994046, abs=1e-12)

    def test_correction_multiplies_reject_odds_by_rho(self, tiny_world):
        bundle, _, subsets, baseline, config = tiny_world
        rho = 4.0
        expert, _ = train_expert(baseline, subsets[1], bundle, rho, 0, config)
        x = bundle.val.features[:20]
        corrected = expert_partial_posterior(expert, x).probabilities
        uncorrected = t.softmax(t.forward_logits(expert.params, x))
        k = expert.reject_index
        for j in range(k):
            odds_corrected = corrected[:, k] / corrected[:, j]
            odds_plain = uncorrected[:, k] / uncorrected[:, j]
            assert np.max(np.abs(odds_corrected - rho * odds_plain) / odds_plain) < 1e-9

    def test_probabilities_normalize(self, tiny_world):
        bundle, _, subsets, baseline, config = tiny_world
        expert, _ = train_expert(baseline, subsets[2], bundle, 3.0, 0, config)
        partial = expert_partial_posterior(expert, bundle.test.features)
        assert np.max(np.abs(partial.probabilities.sum(axis=1) - 1.0)) < 1e-9


class TestHyperparamSelection:
    def test_single_point_grid(self, tiny_world):
        bundle, _, subsets, baseline, config = tiny_world
        sel = select_expert_hyperparams(
            baseline, subsets[0], bundle, [2.0], [0], config
        )
        assert sel.expert.rho == 2.0 and sel.expert.frozen_layers == 0
        assert len(sel.table) == 1
        assert sel.table[0].val_accuracy == pytest.approx(
            expert_subset_accuracy(sel.expert, bundle.val)
        )

    def test_table_covers_the_whole_grid(self, tiny_world):
        bundle, _, subsets, baseline, config = tiny_world
        sel = select_expert_hyperparams(
            baseline, subsets[0], bundle, [1.0, 3.0], [0, 1], config
        )
        assert len(sel.table) == 4
        pairs = {(p.rho, p.frozen_layers) for p in sel.table}
        assert pairs == {(1.0, 0), (1.0, 1), (3.0, 0), (3.0, 1)}

    def test_empty_grid_rejected(self, tiny_world):
        bundle, _, subsets, baseline, config = tiny_world
        with pytest.raises(ValueError):
            select_expert_hyperparams(baseline, subsets[0], bundle, [], [0], config)

    @pytest.mark.parametrize("grid", [([2.0, 2.0], [0]), ([1.0, 2.0], [0, 1, 0])])
    def test_repeated_grid_value_rejected(self, tiny_world, grid):
        bundle, _, subsets, baseline, config = tiny_world
        with pytest.raises(ValueError, match="repeats the value"):
            select_expert_hyperparams(baseline, subsets[0], bundle, *grid, config)

    def test_frozen_value_over_the_new_head_rejected(self, tiny_world):
        # the baseline has one hidden layer, so frozen 2 would freeze the
        # expert's new head and leave it at its initialization
        bundle, _, subsets, baseline, config = tiny_world
        message = re.escape("frozen_grid value 2 is outside [0, 1]")
        with pytest.raises(ValueError, match=message):
            train_expert(baseline, subsets[0], bundle, 2.0, 2, config)
        with pytest.raises(ValueError, match=message):
            select_expert_hyperparams(baseline, subsets[0], bundle, [2.0], [0, 2], config)


def reference_selection(baseline, subset, bundle, rho_grid, frozen_grid, config):
    """The grid search written out plainly: one train_expert call per grid
    point in table order (rho outer, frozen inner), stopping at the first
    divergence. Returns the table, the winner's key and every point's
    expert and trace."""
    table, best, trained = [], None, {}
    for rho in rho_grid:
        for frozen in frozen_grid:
            expert, trace = train_expert(baseline, subset, bundle, rho, frozen, config)
            score = expert_subset_accuracy(expert, bundle.val)
            table.append((rho, frozen, score))
            trained[(rho, frozen)] = (expert, trace)
            if best is None or (score, rho, frozen) > best:
                best = (score, rho, frozen)
    return table, best, trained


class TestLockstepGridSearch:
    """select_expert_hyperparams trains each frozen value's rho points in
    one stacked call; every result must be that of one train_expert call
    per point."""

    @pytest.mark.parametrize("frozen_grid", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("which", [0, 2])
    def test_table_winner_and_weights_are_the_reference(
        self, tiny_world, which, frozen_grid, monkeypatch
    ):
        bundle, _, subsets, baseline, config = tiny_world
        rho_grid = (1.0, 2.0, 4.0, 8.0)
        table, best, trained = reference_selection(
            baseline, subsets[which], bundle, rho_grid, frozen_grid, config
        )
        stacked = {}
        fit_networks = t.experts.fit_networks

        def spy(params, dataset, configs):
            results = fit_networks(params, dataset, configs)
            for cfg, (params_out, trace) in zip(configs, results):
                stacked[(cfg.sampler.rho, cfg.frozen_layers)] = (params_out, trace)
            return results

        monkeypatch.setattr(t.experts, "fit_networks", spy)
        sel = select_expert_hyperparams(
            baseline, subsets[which], bundle, rho_grid, frozen_grid, config
        )
        assert [(p.rho, p.frozen_layers, p.val_accuracy) for p in sel.table] == table
        assert (sel.expert.rho, sel.expert.frozen_layers) == best[1:]
        assert set(stacked) == set(trained)
        for key, (expert, trace) in trained.items():
            params, stacked_trace = stacked[key]
            assert stacked_trace == trace
            for (wa, ba), (wb, bb) in zip(params.layers, expert.params.layers):
                assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()
        for (wa, ba), (wb, bb) in zip(
            sel.expert.params.layers, trained[best[1:]][0].params.layers
        ):
            assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("frozen_grid", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("lr0", [1e12, 1e4])
    def test_divergence_is_the_reference_loops_first(self, tiny_world, lr0, frozen_grid):
        # with a frozen backbone the softmax head saturates instead of
        # diverging, so only the frozen=0 points diverge; at lr0=1e4 they do
        # so at different epochs (rho 2 and 4 before rho 1), and the stack
        # must go on without them
        bundle, _, subsets, baseline, config = tiny_world
        config = replace(config, lr0=lr0, weight_decay=0.0)
        grid = ((1.0, 2.0, 4.0), frozen_grid)
        with pytest.raises(t.DivergenceError) as ref:
            reference_selection(baseline, subsets[2], bundle, *grid, config)
        with pytest.raises(t.DivergenceError) as err:
            select_expert_hyperparams(baseline, subsets[2], bundle, *grid, config)
        assert str(err.value) == str(ref.value)
        assert err.value.epoch == ref.value.epoch is not None


class TestExpertCheckpoint:
    def test_round_trip(self, tiny_world, tmp_path):
        bundle, _, subsets, baseline, config = tiny_world
        expert, _ = train_expert(baseline, subsets[1], bundle, 2.5, 1, config)
        path = tmp_path / "expert.ckpt"
        save_expert_checkpoint(path, expert)
        loaded = load_expert_checkpoint(path)
        assert loaded.rho == expert.rho
        assert loaded.frozen_layers == expert.frozen_layers
        assert loaded.subset.expert_id == expert.subset.expert_id
        assert np.array_equal(loaded.subset.classes, expert.subset.classes)
        for (w0, b0), (w1, b1) in zip(expert.params.layers, loaded.params.layers):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)

    def test_header_with_the_old_reject_switch_still_loads(self, tiny_world, tmp_path):
        # checkpoints written before the correction became unconditional
        # carry an apply_reject_correction key; it is ignored
        bundle, _, subsets, baseline, config = tiny_world
        expert, _ = train_expert(baseline, subsets[0], bundle, 2.0, 0, config)
        path = tmp_path / "expert.ckpt"
        t.save_checkpoint(path, expert.params, {
            "kind": "expert",
            "expert_id": int(expert.subset.expert_id),
            "subset_classes": [int(c) for c in expert.subset.classes],
            "rho": expert.rho,
            "frozen_layers": expert.frozen_layers,
            "apply_reject_correction": True,
        })
        loaded = load_expert_checkpoint(path)
        x = bundle.test.features
        assert np.array_equal(
            expert_partial_posterior(loaded, x).logits, expert_partial_posterior(expert, x).logits
        )

    def test_baseline_round_trip_keeps_the_kind_check(self, tiny_world, tmp_path):
        bundle, _, subsets, baseline, config = tiny_world
        path = tmp_path / "baseline.ckpt"
        t.save_baseline_checkpoint(path, baseline)
        loaded = t.load_baseline_checkpoint(path)
        assert isinstance(loaded, t.NetworkParams)
        for (w0, b0), (w1, b1) in zip(baseline.layers, loaded.layers):
            assert w0.tobytes() == w1.tobytes() and b0.tobytes() == b1.tobytes()
        with pytest.raises(t.DataError, match="not an expert checkpoint"):
            load_expert_checkpoint(path)
        expert, _ = train_expert(baseline, subsets[0], bundle, 2.0, 0, config)
        save_expert_checkpoint(tmp_path / "expert.ckpt", expert)
        with pytest.raises(t.DataError, match="not a baseline checkpoint"):
            t.load_baseline_checkpoint(tmp_path / "expert.ckpt")
