"""The expert grid search as one list of (subset, frozen) tasks.

``select_experts`` builds one :func:`fit_networks` task per subset and
frozen value and runs the list through one map; the results must not
depend on how many threads run it.
"""

import sys
from dataclasses import replace

import pytest

import tailens as t
from tailens import pipeline
from tailens.experts import select_expert_hyperparams

from conftest import tiny_run_config


@pytest.fixture(scope="module")
def tiny_baseline():
    cfg = tiny_run_config("unused")
    bundle = t.prepare_bundle(cfg)
    (baseline, _), _ = pipeline.train_baselines(bundle, cfg)
    return cfg, bundle, baseline


def weight_bytes(params) -> list[bytes]:
    return [a.tobytes() for layer in params.layers for a in layer]


def test_results_are_bitwise_equal_at_any_thread_count():
    # the two frozen tasks of a subset share its start and relabeled set,
    # whose sampler caches fill lazily; six threads on a short switch
    # interval interleave those reads often
    cfg = tiny_run_config("unused")
    bundle = t.prepare_bundle(cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [t.train_all(bundle, cfg, threads=threads) for threads in (1, 2, 3, 6)]
    finally:
        sys.setswitchinterval(interval)
    first = runs[0]
    for other in runs[1:]:
        assert [weight_bytes(e.params) for e in other.experts] == [
            weight_bytes(e.params) for e in first.experts
        ]
        assert [(s.rho, s.frozen_layers, s.table) for s in other.selections] == [
            (s.rho, s.frozen_layers, s.table) for s in first.selections
        ]
        for mine, theirs in zip(other.selections, first.selections):
            assert weight_bytes(mine.expert.params) == weight_bytes(theirs.expert.params)


def test_each_subset_and_frozen_group_trains_once(tiny_baseline, monkeypatch):
    cfg, bundle, baseline = tiny_baseline
    calls = []
    fit_networks = pipeline.fit_networks

    def spy(params, dataset, configs):
        calls.append([(c.seed, c.frozen_layers, c.sampler.rho) for c in configs])
        return fit_networks(params, dataset, configs)

    monkeypatch.setattr(pipeline, "fit_networks", spy)
    pipeline.select_experts(baseline, bundle, cfg)
    root, grid = cfg.training.seed, cfg.expert
    assert calls == [  # fold-then-frozen order, one config per rho
        [(pipeline.seed_for_expert(root, fold), frozen, rho) for rho in grid.rho_grid]
        for fold in t.Fold
        for frozen in grid.frozen_grid
    ]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_the_first_in_fold_then_table_order(tiny_baseline):
    # at this rate points of every subset diverge, at epochs 9 to 11
    cfg, bundle, baseline = tiny_baseline
    cfg = replace(cfg, training=replace(cfg.training, lr0=1e9, weight_decay=0.0))
    reference = None
    for subset in t.partition_subsets(pipeline.frequency_folds(bundle, cfg), bundle.train):
        expert_cfg = pipeline.train_config_from(
            cfg.training, seed=pipeline.seed_for_expert(cfg.training.seed, subset.expert_id),
            stage="expert",
        )
        try:
            select_expert_hyperparams(
                baseline, subset, bundle, cfg.expert.rho_grid, cfg.expert.frozen_grid, expert_cfg
            )
        except t.DivergenceError as exc:
            reference = exc
            break
    assert reference is not None
    for threads in (1, 3):
        with pytest.raises(t.DivergenceError) as err:
            pipeline.select_experts(baseline, bundle, cfg, threads)
        assert str(err.value) == str(reference)
        assert err.value.epoch == reference.epoch


@pytest.mark.parametrize("threads", [0, -3])
@pytest.mark.parametrize("stage", ["train_all", "select_experts"])
def test_threads_below_one_is_rejected(tiny_baseline, stage, threads):
    cfg, bundle, baseline = tiny_baseline
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        if stage == "train_all":
            t.train_all(bundle, cfg, threads=threads)
        else:
            pipeline.select_experts(baseline, bundle, cfg, threads)
