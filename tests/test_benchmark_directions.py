"""Directional behavior on the pinned benchmark, majority-voted over seeds.

These effects are statistical, not exact: each is asserted to hold in at
least four of the five benchmark seeds. The stacker checks on the world of
the cli-embed256 workload hold on every seed.
"""

import numpy as np
import pytest

import tailens as t
from tailens.config import (
    DatasetSection,
    ExpertSection,
    FusionSection,
    PathsSection,
    TrainingSection,
)
from tailens.evaluation import fourfold_accuracy, msp_histogram
from tailens.experts import expert_subset_accuracy, select_expert_hyperparams
from tailens._newton import CERTIFICATE_TOL
from tailens.fusion import expand_partial
from tailens.pipeline import fused_posteriors, train_fusion

from conftest import BENCHMARK_SEEDS, majority, on_two_forked_workers


def embed256_config(seed: int) -> t.RunConfig:
    """The world of the cli-embed256 benchmark workload, generated in
    memory: its data shape and its INI's training and grid settings."""
    return t.RunConfig(
        dataset=DatasetSection(
            source="generate",
            class_count=60,
            feature_dim=256,
            n_max=200,
            alpha=1.2,
            n_val_per_class=10,
            n_test_per_class=10,
            noise_scale=1.0,
        ),
        training=TrainingSection(
            lr0=0.2, epochs=20, batch_size=128, seed=seed, hidden_dims=(64,), expert_epochs=20
        ),
        expert=ExpertSection(rho_grid=(2.0, 8.0), frozen_grid=(0, 1)),
        fusion=FusionSection(),
        paths=PathsSection(out_dir="unused"),
    )


def _embed256_stack_run(seed: int):
    """The stacker's all-accuracy, the best single expert's and the fitted
    stacker on one seed of the embed256 world."""
    cfg = embed256_config(seed)
    ens = t.train_all(t.prepare_bundle(cfg), cfg)
    test, class_count = ens.bundle.test, ens.bundle.class_count

    def accuracy(probs) -> float:
        return fourfold_accuracy(np.argmax(probs, axis=1), test.labels, ens.folds).all

    fitted = train_fusion(ens, cfg, "stack")
    best_single = max(
        accuracy(expand_partial(p.probabilities, s, class_count))
        for p, s in zip(ens.partials("test"), ens.subset_list())
    )
    stack = accuracy(fused_posteriors(ens, fitted, cfg, "test"))
    return stack, best_single, fitted.params


@pytest.fixture(scope="module")
def embed256_stack_runs():
    """:func:`_embed256_stack_run` on the five benchmark seeds, built as
    ``benchmark_runs`` builds its seeds."""
    return on_two_forked_workers(_embed256_stack_run, BENCHMARK_SEEDS)


class TestImbalanceEffects:
    def test_baseline_favors_manyshot(self, benchmark_runs):
        runs, _ = benchmark_runs
        assert majority(r.baseline_report.many > r.baseline_report.few for r in runs)

    def test_uniform_finetune_recovers_fewshot(self, benchmark_runs):
        runs, _ = benchmark_runs
        assert majority(
            r.uniform_report.few >= r.baseline_report.few for r in runs
        )

    def test_fewshot_expert_beats_baseline_on_fewshot(self, benchmark_runs):
        runs, _ = benchmark_runs
        flags = []
        for r in runs:
            expert = r.ensemble.experts[2]
            restricted = expert_subset_accuracy(expert, r.bundle.test)
            flags.append(restricted > r.baseline_report.few)
        assert majority(flags)


class TestFusionOrderings:
    def test_oracle_dominates_soft_vote(self, benchmark_runs):
        runs, _ = benchmark_runs
        assert majority(
            r.oracle_report.all >= r.softvote_report.all for r in runs
        )

    def test_stacker_beats_best_single_expert(self, benchmark_runs):
        runs, _ = benchmark_runs
        assert majority(
            r.stack_report.all >= max(s.all for s in r.single_expert_reports)
            for r in runs
        )

    def test_stacker_beats_best_single_expert_on_every_embed256_seed(
        self, embed256_stack_runs
    ):
        for seed, (stack, best_single, _) in zip(BENCHMARK_SEEDS, embed256_stack_runs):
            assert stack >= best_single, f"seed {seed}: {stack:.4f} < {best_single:.4f}"

    def test_every_embed256_stacker_fit_is_certified(self, embed256_stack_runs):
        for _, _, stacker in embed256_stack_runs:
            assert stacker.gradient_norm <= CERTIFICATE_TOL and stacker.steps > 0

    def test_adding_baseline_shifts_vote_toward_manyshot(self, benchmark_runs):
        runs, _ = benchmark_runs
        flags = []
        for r in runs:
            # compare {baseline, experts} against {experts} alone
            tables = r.member_tables
            both = np.stack([tables["baseline"], tables["experts"]]).mean(axis=0)
            both_rep = fourfold_accuracy(
                np.argmax(both, axis=1), r.bundle.test.labels, r.ensemble.folds
            )
            experts_rep = fourfold_accuracy(
                np.argmax(tables["experts"], axis=1),
                r.bundle.test.labels,
                r.ensemble.folds,
            )
            balance_with = both_rep.many - both_rep.few
            balance_without = experts_rep.many - experts_rep.few
            flags.append(balance_with >= balance_without)
        assert majority(flags)


class TestConfidenceStructure:
    def test_manyshot_expert_outconfides_fewshot_on_many_samples(self, benchmark_runs):
        runs, _ = benchmark_runs
        flags = []
        for r in runs:
            test = r.bundle.test
            many_expert = r.ensemble.experts[0]
            few_expert = r.ensemble.experts[2]
            lookup = many_expert.subset.local_map(test.class_count)
            local = lookup[test.labels]
            mask = local >= 0
            partial = t.expert_partial_posterior(many_expert, test.features[mask])
            correct = np.argmax(partial.probabilities, axis=1) == local[mask]
            population = test.features[mask][correct]
            many_hist = msp_histogram(
                many_expert, population, class_count=test.class_count
            )
            few_hist = msp_histogram(
                few_expert, population, class_count=test.class_count
            )
            flags.append(many_hist.mean_confidence() > few_hist.mean_confidence())
        assert majority(flags)


class TestHyperparamSelectionDirection:
    def test_fewshot_rho_selected_above_one_under_heavy_imbalance(self):
        """With rejects outnumbering the subset >10:1, undersampling wins."""
        cfg = t.SyntheticConfig(
            class_count=10,
            feature_dim=8,
            n_max=1000,
            alpha=2.4,
            n_val_per_class=12,
            n_test_per_class=8,
            noise_scale=0.8,
        )
        flags = []
        for seed in range(5):
            bundle = t.generate_longtailed(cfg, seed=seed)
            folds = t.assign_folds(bundle.train)
            subsets = t.partition_subsets(folds, bundle.train)
            few = subsets[2]
            in_count = bundle.train.class_frequency[few.classes].sum()
            assert (bundle.train.n - in_count) / in_count > 10
            baseline, _ = t.train_baseline(
                bundle,
                t.TrainConfig(lr0=0.3, epochs=30, batch_size=64, seed=seed, hidden_dims=(16,)),
            )
            sel = select_expert_hyperparams(
                baseline,
                few,
                bundle,
                rho_grid=(1.0, 4.0, 16.0),
                frozen_grid=(0,),
                config=t.TrainConfig(
                    lr0=0.3, epochs=40, batch_size=64, seed=seed + 50, hidden_dims=(16,)
                ),
            )
            flags.append(sel.expert.rho > 1.0)
        assert majority(flags)
