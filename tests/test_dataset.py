import json

import numpy as np
import pytest

from tailens import DataError
from tailens.dataset import (
    MANIFEST_FORMAT,
    DatasetBundle,
    EmbeddingDataset,
    EmptyFoldError,
    Fold,
    FoldAssignment,
    SamplerMode,
    SubsetSpec,
    SyntheticConfig,
    assign_folds,
    draw_batch,
    generate_longtailed,
    partition_subsets,
    powerlaw_frequencies,
    relabel_for_expert,
    save_bundle,
    load_bundle,
)

from conftest import (
    fold_class_counts,
    imagenet_lt_like_frequencies,
    parse_embeddings,
    places_lt_like_frequencies,
)


def small_config(**overrides) -> SyntheticConfig:
    base = dict(
        class_count=3,
        feature_dim=2,
        n_max=100,
        alpha=1.7,
        n_val_per_class=4,
        n_test_per_class=4,
        noise_scale=0.5,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


class TestPowerlawFrequencies:
    def test_head_and_tail_counts(self):
        freq = powerlaw_frequencies(60, 500, 1.2)
        assert freq[0] == 500
        assert freq[59] == 4  # max(round(500 * 60**-1.2), 1)

    def test_floor_of_one(self):
        freq = powerlaw_frequencies(50, 10, 3.0)
        assert freq.min() == 1


class TestGenerateLongtailed:
    def test_three_class_profile_fills_all_folds(self):
        # alpha=1.7 gives counts (100, 31, 15): one class per fold under
        # thresholds (100, 20)
        bundle = generate_longtailed(small_config(), seed=0)
        assert bundle.train.class_frequency.tolist() == [100, 31, 15]
        counts = fold_class_counts(assign_folds(bundle.train))
        assert counts[Fold.MANYSHOT] >= 1
        assert counts[Fold.MEDIUMSHOT] >= 1

    def test_same_seed_is_bit_identical(self):
        a = generate_longtailed(small_config(), seed=42)
        b = generate_longtailed(small_config(), seed=42)
        for split in ("train", "val", "test"):
            assert np.array_equal(
                getattr(a, split).features, getattr(b, split).features
            )
            assert np.array_equal(getattr(a, split).labels, getattr(b, split).labels)

    def test_different_seeds_differ(self):
        a = generate_longtailed(small_config(), seed=1)
        b = generate_longtailed(small_config(), seed=2)
        assert not np.array_equal(a.train.features, b.train.features)

    def test_rejects_empty_fold_profiles(self):
        # alpha=1.465 gives counts (100, 36, 20): no class below 20, so the
        # fewshot fold would be empty
        with pytest.raises(EmptyFoldError, match="fewshot"):
            generate_longtailed(small_config(alpha=1.465), seed=0)

    def test_balanced_val_and_test(self):
        bundle = generate_longtailed(small_config(), seed=3)
        assert set(bundle.val.class_frequency.tolist()) == {4}
        assert set(bundle.test.class_frequency.tolist()) == {4}


class TestFoldAssignment:
    def test_threshold_boundaries(self):
        freq = [150, 100, 60, 20, 19, 5]
        folds = FoldAssignment.from_frequencies(freq)
        expected = [
            Fold.MANYSHOT,
            Fold.MANYSHOT,
            Fold.MEDIUMSHOT,
            Fold.MEDIUMSHOT,
            Fold.FEWSHOT,
            Fold.FEWSHOT,
        ]
        assert folds.fold_of_class.tolist() == [int(f) for f in expected]

    def test_all_at_many_threshold(self):
        folds = FoldAssignment.from_frequencies([100, 100, 100])
        assert all(f == int(Fold.MANYSHOT) for f in folds.fold_of_class)

    def test_imagenet_lt_shaped_counts(self):
        counts = fold_class_counts(FoldAssignment.from_frequencies(imagenet_lt_like_frequencies()))
        assert counts[Fold.MANYSHOT] == 391
        assert counts[Fold.MEDIUMSHOT] == 473
        assert counts[Fold.FEWSHOT] == 136

    def test_places_lt_shaped_counts(self):
        counts = fold_class_counts(FoldAssignment.from_frequencies(places_lt_like_frequencies()))
        assert counts[Fold.MANYSHOT] == 132
        assert counts[Fold.MEDIUMSHOT] == 162
        assert counts[Fold.FEWSHOT] == 71

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            FoldAssignment.from_frequencies([10, 5], thresholds=(20, 20))

    @pytest.mark.parametrize("folds", [[0, 1, 2, 3], [-1, 0, 1, 2]], ids=["above", "below"])
    def test_fold_ids_outside_fold_are_rejected(self, folds):
        # before, the first left class 3 out of every subset and the second
        # ended in an internal contiguity error
        with pytest.raises(ValueError, match=r"fold ids must lie in \{0, 1, 2\}"):
            FoldAssignment(np.array(folds))

    def test_a_table_that_is_not_1d_is_rejected(self):
        with pytest.raises(ValueError, match="must be 1-d"):
            FoldAssignment(np.array([[0, 1], [1, 2]]))


def _dataset_from_frequencies(freq, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(freq)), freq)
    return EmbeddingDataset(
        features=rng.normal(size=(len(labels), dim)),
        labels=labels,
        class_count=len(freq),
    )


class _CountingGenerator:
    """Generator proxy counting the values ``random`` and ``integers`` return."""

    def __init__(self, rng):
        self._rng = rng
        self.values = 0

    def random(self, *args, **kwargs):
        out = self._rng.random(*args, **kwargs)
        self.values += np.size(out)
        return out

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self.values += np.size(out)
        return out


class TestEmbeddingDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        features = np.array([[0.0, 1.0], [2.0, bad], [3.0, 4.0]])
        with pytest.raises(ValueError, match="feature row 1 is not finite"):
            EmbeddingDataset(features, np.array([0, 1, 1]), class_count=2)


class TestPartitionSubsets:
    def test_six_class_example(self):
        train = _dataset_from_frequencies([150, 100, 60, 20, 19, 5])
        subsets = partition_subsets(assign_folds(train), train)
        assert subsets[0].classes.tolist() == [0, 1]
        assert subsets[1].classes.tolist() == [2, 3]
        assert subsets[2].classes.tolist() == [4, 5]

    def test_frequency_ties_break_by_class_index(self):
        train = _dataset_from_frequencies([150, 60, 100, 60, 19, 5])
        subsets = partition_subsets(assign_folds(train), train)
        # classes 1 and 3 are tied at 60; the smaller index comes first
        assert subsets[1].classes.tolist() == [1, 3]

    def test_imagenet_lt_shaped_sizes(self):
        train = _dataset_from_frequencies(imagenet_lt_like_frequencies(), dim=1)
        subsets = partition_subsets(assign_folds(train), train)
        assert [s.size for s in subsets] == [391, 473, 136]

    def test_empty_fold_is_an_error(self):
        train = _dataset_from_frequencies([150, 100, 60])
        with pytest.raises(EmptyFoldError, match="fewshot"):
            partition_subsets(assign_folds(train), train)

    def test_local_index_follows_sorted_order(self):
        train = _dataset_from_frequencies([150, 100, 60, 20, 19, 5])
        subsets = partition_subsets(assign_folds(train), train)
        columns = subsets[0].columns(6)
        assert columns[0] == 0 and columns[1] == 1
        assert columns[2] == subsets[0].size  # the reject output


class TestRelabelForExpert:
    def test_in_subset_and_reject_labels(self):
        train = _dataset_from_frequencies([150, 100, 60, 20, 19, 5])
        subsets = partition_subsets(assign_folds(train), train)
        relabeled = relabel_for_expert(train, subsets[0])
        assert relabeled.class_count == 3
        expected = np.where(train.labels == 0, 0, np.where(train.labels == 1, 1, 2))
        assert np.array_equal(relabeled.labels, expected)

    def test_full_coverage_still_has_reject_slot(self):
        train = _dataset_from_frequencies([30, 20, 10])
        subset = SubsetSpec(Fold.MANYSHOT, np.array([0, 1, 2]))
        relabeled = relabel_for_expert(train, subset)
        assert relabeled.class_count == 4
        assert relabeled.class_frequency[3] == 0

    def test_features_are_shared_bit_exactly(self):
        train = _dataset_from_frequencies([150, 100, 60, 20, 19, 5])
        subsets = partition_subsets(assign_folds(train), train)
        relabeled = relabel_for_expert(train, subsets[1])
        assert relabeled.features is train.features
        assert relabeled.n == train.n

    def test_imagenet_lt_shaped_reject_count(self):
        train = _dataset_from_frequencies(imagenet_lt_like_frequencies(), dim=1)
        subsets = partition_subsets(assign_folds(train), train)
        relabeled = relabel_for_expert(train, subsets[2])
        reject_count = int(relabeled.class_frequency[relabeled.class_count - 1])
        assert reject_count == 89293 + 24910 == 114203


class TestDrawBatch:
    def test_rho_one_matches_instance_balanced_distribution(self):
        ds = _dataset_from_frequencies([900, 100])
        modes = [SamplerMode.instance_balanced(), SamplerMode.reject_undersampled(1.0)]
        shares = []
        for mode in modes:
            rng = np.random.default_rng(0)
            _, labels = draw_batch(ds, mode, 20_000, rng)
            shares.append(np.mean(labels == 1))
        # acceptance probability 1 leaves the instance distribution untouched
        assert abs(shares[0] - shares[1]) < 0.02
        assert abs(shares[0] - 0.1) < 0.02

    def test_uniform_class_equalizes_rare_class(self):
        ds = _dataset_from_frequencies([1000, 1])
        rng = np.random.default_rng(7)
        _, labels = draw_batch(ds, SamplerMode.uniform_class(), 10_000, rng)
        share = np.mean(labels == 1)
        assert 0.47 <= share <= 0.53

    def test_uniform_class_rejects_empty_class(self):
        ds = EmbeddingDataset(
            features=np.zeros((4, 2)), labels=np.array([0, 0, 2, 2]), class_count=3
        )
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="class 1"):
            draw_batch(ds, SamplerMode.uniform_class(), 8, rng)

    def test_reject_undersampling_share(self):
        # 90% reject at rho=10: expected share 0.09 / 0.19
        ds = _dataset_from_frequencies([100, 900])
        rng = np.random.default_rng(3)
        _, labels = draw_batch(ds, SamplerMode.reject_undersampled(10.0), 10_000, rng)
        share = np.mean(labels == 1)
        assert abs(share - 0.09 / 0.19) < 0.03

    @pytest.mark.parametrize(
        "freq", [(4, 6), (7, 0), (0, 5)], ids=["mixed", "no-reject", "only-reject"]
    )
    def test_reject_undersampled_row_probability_is_exact(self, freq):
        # every row is drawn with probability proportional to 1, or to 1/rho
        # when it carries the reject label (the last class), with one
        # generator value per drawn row whatever rho is
        rho, draws = 3.5, 400_000
        labels = np.repeat([0, 1], freq)
        n = len(labels)
        ds = EmbeddingDataset(np.arange(n, dtype=np.float64)[:, None], labels, 2)
        rng = _CountingGenerator(np.random.default_rng(11))
        x, y = draw_batch(ds, SamplerMode.reject_undersampled(rho), draws, rng)
        assert rng.values == draws
        rows = x[:, 0].astype(np.int64)
        assert np.array_equal(y, labels[rows])
        weight = np.where(labels == 1, 1.0 / rho, 1.0)
        expected = weight / weight.sum()
        observed = np.bincount(rows, minlength=n) / draws
        sigma = np.sqrt(expected * (1.0 - expected) / draws)
        assert np.all(np.abs(observed - expected) <= 5.0 * sigma + 1e-12)

    def test_infinite_rho_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SamplerMode.reject_undersampled(float("inf"))

    def test_deterministic_given_generator_state(self):
        ds = _dataset_from_frequencies([50, 30, 20])
        a = draw_batch(ds, SamplerMode.uniform_class(), 64, np.random.default_rng(5))
        b = draw_batch(ds, SamplerMode.uniform_class(), 64, np.random.default_rng(5))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_rho_below_one_rejected(self):
        with pytest.raises(ValueError):
            SamplerMode.reject_undersampled(0.5)

    def test_uniform_class_draw_matches_the_inline_formula(self):
        # the class order and bounds are cached on the dataset; the draw is
        # the one that rebuilt them on every call
        ds = _dataset_from_frequencies([50, 3, 20, 1])
        shuffled = np.random.default_rng(2).permutation(ds.n)
        ds = EmbeddingDataset(ds.features[shuffled], ds.labels[shuffled], ds.class_count)
        rng = np.random.default_rng(42)
        freq = ds.class_frequency
        order = np.argsort(ds.labels, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(freq)))
        expected = []
        for _ in range(3):
            u = rng.random((64, 2))
            cls = (u[:, 0] * ds.class_count).astype(np.int64)
            within = (u[:, 1] * freq[cls]).astype(np.int64)
            expected.append(order[bounds[cls] + within])
        rng = np.random.default_rng(42)
        for idx in expected:
            x, y = draw_batch(ds, SamplerMode.uniform_class(), 64, rng)
            assert np.array_equal(x, ds.features[idx])
            assert np.array_equal(y, ds.labels[idx])

    @pytest.mark.parametrize(
        "mode",
        [
            SamplerMode.instance_balanced(),
            SamplerMode.uniform_class(),
            SamplerMode.reject_undersampled(3.5),
        ],
        ids=["instance", "uniform", "reject"],
    )
    def test_one_draw_of_k_batches_is_k_draws(self, mode):
        # training draws an epoch of k batches in one call; it must see the
        # rows and leave the generator state of k one-batch draws
        ds = _dataset_from_frequencies([50, 3, 20, 1, 26])
        k, b = 4, 16
        one, many = np.random.default_rng(9), np.random.default_rng(9)
        x, y = draw_batch(ds, mode, k * b, one)
        batches = [draw_batch(ds, mode, b, many) for _ in range(k)]
        assert np.array_equal(x, np.concatenate([bx for bx, _ in batches]))
        assert np.array_equal(y, np.concatenate([by for _, by in batches]))
        assert one.bit_generator.state == many.bit_generator.state

    def test_class_order_is_cached_and_read_only(self):
        ds = _dataset_from_frequencies([5, 2, 3])
        order, bounds = ds.class_order
        assert ds.class_order[0] is order
        assert bounds.tolist() == [0, 5, 7, 10]
        for arr in (order, bounds):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestCsvRoundTrip:
    def test_bundle_round_trip_is_exact(self, tmp_path):
        bundle = generate_longtailed(small_config(), seed=9)
        manifest = save_bundle(bundle, tmp_path / "data")
        loaded = load_bundle(manifest)
        assert np.array_equal(loaded.train.features, bundle.train.features)
        assert np.array_equal(loaded.train.labels, bundle.train.labels)
        assert loaded.class_count == bundle.class_count

    def test_manifest_feature_dim_must_match_the_train_split(self, tmp_path):
        manifest = save_bundle(generate_longtailed(small_config(), seed=9), tmp_path)
        payload = json.loads(manifest.read_text())
        dim = payload["feature_dim"]
        payload["feature_dim"] = 256
        manifest.write_text(json.dumps(payload))
        with pytest.raises(
            DataError, match=f"manifest.json: feature_dim 256, train.csv has {dim} features"
        ):
            load_bundle(manifest)
        del payload["feature_dim"]  # a manifest may leave the key out
        manifest.write_text(json.dumps(payload))
        assert load_bundle(manifest).feature_dim == dim

    def test_frequencies_recomputed_from_rows(self, tmp_path):
        path = tmp_path / "train.csv"
        path.write_text("label,f0,f1\n0,0.5,1.5\n0,0.0,2.0\n1,1.0,1.0\n2,2.0,0.5\n")
        features, labels = parse_embeddings(path, 3)
        ds = EmbeddingDataset(features, labels, class_count=3)
        assert ds.class_frequency.tolist() == [2, 1, 1]

    def test_dimension_mismatch_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0,f1\n0,0.5,1.5\n1,1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_embeddings(path, 2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_the_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"label,f0,f1\n0,0.5,1.5\n1,1.0,{value}\n")
        with pytest.raises(ValueError, match="bad.csv line 3: non-finite"):
            parse_embeddings(path, 2)

    @pytest.mark.parametrize(
        "body, problem",
        [(b"0,0.5,1.5\n1,1.0,x\n", "bad.csv line 3: feature is not a number"),
         (b"0,0.5,1.5\n1,1.0,\xff\n", "bad.csv: not UTF-8 text")],
        ids=["text", "not-utf8"],
    )
    def test_unreadable_value_is_data_error(self, tmp_path, body, problem):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"label,f0,f1\n" + body)
        with pytest.raises(DataError, match=problem):
            parse_embeddings(path, 2)

    def test_label_out_of_declared_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0,0.5\n7,1.0\n")
        with pytest.raises(ValueError, match="out of range"):
            parse_embeddings(path, 3)

    def test_unbalanced_val_warns_with_counts(self, tmp_path):
        for name, rows in {
            "train.csv": ["0,0.0", "1,1.0"],
            "val.csv": ["0,0.1", "0,0.2", "1,0.9"],
            "test.csv": ["0,0.3", "1,0.7"],
        }.items():
            (tmp_path / name).write_text("label,f0\n" + "\n".join(rows) + "\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "format": MANIFEST_FORMAT, "class_count": 2,
            "train": "train.csv", "val": "val.csv", "test": "test.csv",
        }))
        # one warning, naming the split's file, at the line that called
        # load_bundle
        with pytest.warns(UserWarning) as record:
            bundle = load_bundle(manifest)
        assert [str(w.message) for w in record] == [
            "val.csv: val split is not class-balanced; per-class counts: [2, 1]"
        ]
        assert [w.filename for w in record] == [__file__]
        # the warning names the line that builds the bundle, not the
        # dataclass's generated __init__
        with pytest.warns(UserWarning, match=r"per-class counts: \[2, 1\]") as record:
            DatasetBundle(train=bundle.train, val=bundle.val, test=bundle.test)
        assert [w.filename for w in record] == [__file__]

    def test_imagenet_lt_shaped_load(self, tmp_path):
        # one feature per sample keeps the 115,846-row file small
        freq = imagenet_lt_like_frequencies()
        labels = np.repeat(np.arange(1000), freq)
        assert len(labels) == 115_846
        train = EmbeddingDataset(
            features=np.zeros((len(labels), 1)), labels=labels, class_count=1000
        )
        balanced = EmbeddingDataset(
            features=np.zeros((1000, 1)), labels=np.arange(1000), class_count=1000
        )
        manifest = save_bundle(DatasetBundle(train, balanced, balanced), tmp_path)
        bundle = load_bundle(manifest)
        counts = fold_class_counts(assign_folds(bundle.train))
        assert counts[Fold.MANYSHOT] == 391
        assert counts[Fold.MEDIUMSHOT] == 473
        assert counts[Fold.FEWSHOT] == 136
