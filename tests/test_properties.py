"""Property-based checks of the library's structural invariants."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tailens.config import (
    ConfigError,
    DatasetSection,
    ExpertSection,
    TrainingSection,
    parse_config,
    train_config_from,
)
from tailens.dataset import (
    DatasetBundle,
    EmbeddingDataset,
    Fold,
    FoldAssignment,
    SubsetSpec,
    SyntheticConfig,
    assign_folds,
    generate_longtailed,
    partition_subsets,
    relabel_for_expert,
)
from tailens.experts import BaselineModel, expert_grid_tasks
from tailens.fusion import expand_partial, fuse_soft_vote
from tailens.network import finite_diff_check, init_network, softmax
from tailens.pipeline import SEED_BASELINE, SEED_UNIFORM, seed_for_expert

finite_logits = arrays(
    np.float64,
    st.integers(2, 8),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)


class TestSoftmaxProperties:
    @given(finite_logits)
    @settings(max_examples=200, deadline=None)
    def test_normalizes_to_one(self, z):
        p = softmax(z)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= 0)

    @given(finite_logits, st.floats(-30, 30, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, z, c):
        assert np.max(np.abs(softmax(z) - softmax(z + c))) < 1e-9


frequency_lists = st.lists(st.integers(1, 400), min_size=3, max_size=40)


class TestFoldProperties:
    @given(frequency_lists)
    @settings(max_examples=200, deadline=None)
    def test_every_class_gets_exactly_one_fold(self, freq):
        folds = FoldAssignment.from_frequencies(freq)
        assert len(folds.fold_of_class) == len(freq)
        assert set(folds.fold_of_class.tolist()) <= {0, 1, 2}

    @given(frequency_lists, st.integers(101, 300))
    @settings(max_examples=200, deadline=None)
    def test_raising_many_min_never_jumps_few_to_many(self, freq, new_many_min):
        before = FoldAssignment.from_frequencies(freq, thresholds=(100, 20))
        after = FoldAssignment.from_frequencies(freq, thresholds=(new_many_min, 20))
        was_few = before.fold_of_class == int(Fold.FEWSHOT)
        assert np.all(after.fold_of_class[was_few] == int(Fold.FEWSHOT))
        # classes can only move toward later folds when the bar rises
        assert np.all(after.fold_of_class >= before.fold_of_class)


def _generated_bundle(seed, class_count, alpha):
    config = SyntheticConfig(
        class_count=class_count,
        feature_dim=3,
        n_max=200,
        alpha=alpha,
        n_val_per_class=2,
        n_test_per_class=2,
        noise_scale=1.0,
    )
    return generate_longtailed(config, seed=seed, thresholds=(50, 10))


class TestPartitionProperties:
    @given(st.integers(0, 1000), st.integers(5, 30), st.floats(1.0, 2.2))
    @settings(max_examples=25, deadline=None)
    def test_partition_is_disjoint_and_covers(self, seed, class_count, alpha):
        try:
            bundle = _generated_bundle(seed, class_count, alpha)
        except ValueError:
            return  # profile leaves a fold empty; rejection is its own test
        subsets = partition_subsets(assign_folds(bundle.train, (50, 10)), bundle.train)
        seen = np.concatenate([s.classes for s in subsets])
        assert len(seen) == class_count
        assert set(seen.tolist()) == set(range(class_count))

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_relabel_preserves_samples(self, seed):
        bundle = _generated_bundle(seed, 12, 1.5)
        subsets = partition_subsets(assign_folds(bundle.train, (50, 10)), bundle.train)
        for subset in subsets:
            relabeled = relabel_for_expert(bundle.train, subset)
            assert relabeled.n == bundle.train.n
            assert relabeled.features is bundle.train.features
            # local labels map back to the original global labels
            back = np.where(
                relabeled.labels < subset.size,
                subset.classes[np.minimum(relabeled.labels, subset.size - 1)],
                -1,
            )
            in_subset = relabeled.labels < subset.size
            assert np.array_equal(back[in_subset], bundle.train.labels[in_subset])


class TestFusionProperties:
    @given(
        st.integers(0, 10_000),
        st.integers(4, 10),
        st.integers(1, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_expansion_preserves_mass(self, seed, class_count, subset_size):
        rng = np.random.default_rng(seed)
        classes = rng.choice(class_count, size=subset_size, replace=False)
        subset = SubsetSpec(Fold.MEDIUMSHOT, np.sort(classes))
        probs = rng.dirichlet(np.ones(subset_size + 1), size=5)
        full = expand_partial(probs, subset, class_count)
        assert np.max(np.abs(full.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(full >= 0)

    @given(st.integers(0, 10_000), st.integers(5, 12))
    @settings(max_examples=100, deadline=None)
    def test_soft_vote_outputs_valid_distributions(self, seed, class_count):
        rng = np.random.default_rng(seed)
        cut = sorted(rng.choice(np.arange(1, class_count), size=2, replace=False))
        order = rng.permutation(class_count)
        subsets = [
            SubsetSpec(Fold.MANYSHOT, np.sort(order[: cut[0]])),
            SubsetSpec(Fold.MEDIUMSHOT, np.sort(order[cut[0] : cut[1]])),
            SubsetSpec(Fold.FEWSHOT, np.sort(order[cut[1] :])),
        ]
        partials = [rng.dirichlet(np.ones(s.size + 1), size=6) for s in subsets]
        q = fuse_soft_vote(partials, subsets, class_count)
        assert q.shape == (6, class_count)
        assert np.max(np.abs(q.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(q >= 0)


_SPECIAL_VALUES = st.sampled_from(["0", "-1", "inf", "-inf", "nan"])
_INI_SCALARS = {
    int: _SPECIAL_VALUES | (st.integers(1, 3) | st.integers(1, 300)).map(str),
    float: _SPECIAL_VALUES | st.floats(1e-3, 1e3).map(repr),
}
_NUMERIC_KEYS = [
    (name, f)
    for name, section in (("dataset", DatasetSection), ("training", TrainingSection), ("expert", ExpertSection))
    for f in fields(section)
    if not isinstance(f.default, str)
]


@st.composite
def ini_texts(draw):
    """An INI text that sets up to three numeric keys of [dataset],
    [training] and [expert], each to a positive value or to zero, a
    negative, an infinity or nan; a grid draws its entries from a small
    pool, so repeats are common."""
    sections = {"paths": {"out_dir": "out"}, "dataset": {}, "training": {"seed": "0"}, "expert": {}}
    if draw(st.booleans()):
        sections["dataset"].update(source="load", manifest="bundle.json")
    for name, f in draw(st.lists(st.sampled_from(_NUMERIC_KEYS), min_size=1, max_size=3, unique=True)):
        if isinstance(f.default, tuple):
            pool = draw(st.lists(_INI_SCALARS[type(f.default[0])], min_size=1, max_size=3))
            raw = ",".join(draw(st.lists(st.sampled_from(pool), max_size=4)))
        else:
            raw = draw(_INI_SCALARS[type(f.default)])
        sections[name][f.name] = raw
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        for name, items in sections.items()
    )


_TINY_SPLIT = EmbeddingDataset(np.arange(12.0).reshape(6, 2), np.repeat(np.arange(3), 2), 3)
_TINY_BUNDLE = DatasetBundle(_TINY_SPLIT, _TINY_SPLIT, _TINY_SPLIT)


class TestConfigDriftGuard:
    """A config the parser accepts must build every library object the
    pipeline later builds from it; one it rejects fails as a ConfigError."""

    @given(ini_texts())
    @settings(max_examples=500, deadline=None)
    def test_accepted_config_builds_every_stage(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        t, d = cfg.training, cfg.dataset
        train_config_from(t, seed=t.seed + SEED_BASELINE)
        train_config_from(t, seed=t.seed + SEED_UNIFORM, stage="uniform")
        # numpy takes the seed where the baseline is initialized
        baseline = BaselineModel(init_network([2, *t.hidden_dims, 3], seed=t.seed + SEED_BASELINE))
        subset = SubsetSpec(Fold.MANYSHOT, np.array([0]))
        for fold in Fold:
            expert_cfg = train_config_from(t, seed=seed_for_expert(t.seed, fold), stage="expert")
            tasks = expert_grid_tasks(
                baseline, subset, _TINY_BUNDLE, cfg.expert.rho_grid, cfg.expert.frozen_grid, expert_cfg
            )
            points = [(c.sampler.rho, c.frozen_layers) for _, _, configs in tasks for c in configs]
            assert len(set(points)) == len(cfg.expert.rho_grid) * len(cfg.expert.frozen_grid)
            # every frozen value leaves the expert's head trainable
            assert all(frozen < baseline.params.layer_count for _, frozen in points)
            assert all(math.isfinite(rho) for rho, _ in points)
        FoldAssignment.from_frequencies([1, 50, 500], (d.many_min, d.few_max))
        if d.source == "generate":
            d.synthetic()


class TestGradientProperty:
    @pytest.mark.parametrize("seed", range(20))
    def test_backprop_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        dims = [rng.integers(2, 6), rng.integers(2, 8), rng.integers(2, 5)]
        params = init_network(dims, seed=seed)
        x = rng.normal(size=(4, dims[0]))
        y = rng.integers(0, dims[-1], size=4)
        assert finite_diff_check(params, x, y) < 1e-4
