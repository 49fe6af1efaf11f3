import math

import numpy as np
import pytest

from tailens.dataset import EmbeddingDataset, SamplerMode
from tailens.network import (
    DivergenceError,
    NetworkParams,
    TrainConfig,
    backward_gradients,
    batch_loss,
    cosine_lr,
    cross_entropy_loss,
    finite_diff_check,
    fit_network,
    forward_logits,
    init_network,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
    softmax,
    train_network,
)


def two_blob_dataset(n_per_class=40, separation=6.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal((-separation / 2, 0.0), 0.5, size=(n_per_class, 2))
    b = rng.normal((separation / 2, 0.0), 0.5, size=(n_per_class, 2))
    return EmbeddingDataset(
        features=np.concatenate([a, b]),
        labels=np.repeat([0, 1], n_per_class),
        class_count=2,
    )


class TestForward:
    def test_identity_layer(self):
        params = NetworkParams([(np.eye(2), np.zeros(2))])
        assert np.allclose(forward_logits(params, [1.0, 2.0]), [1.0, 2.0])

    def test_zero_weights_give_bias(self):
        params = NetworkParams([(np.zeros((3, 2)), np.array([0.5, -1.0]))])
        for x in ([0.0, 0.0, 0.0], [3.0, -2.0, 1.0]):
            assert np.allclose(forward_logits(params, x), [0.5, -1.0])

    def test_two_layer_hand_computed(self):
        # x=(1,0): hidden pre-activation (1.5, 1.0), both positive, then the
        # head gives (1.5*1 + 1*2, 1.5*-1 + 1*0 + 0.25) = (3.5, -1.25)
        params = NetworkParams(
            [
                (np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, -1.0])),
                (np.array([[1.0, -1.0], [2.0, 0.0]]), np.array([0.0, 0.25])),
            ]
        )
        z = forward_logits(params, [1.0, 0.0])
        assert np.max(np.abs(z - np.array([3.5, -1.25]))) < 1e-12

    def test_dimension_mismatch(self):
        params = NetworkParams([(np.eye(2), np.zeros(2))])
        with pytest.raises(ValueError, match="dimension"):
            forward_logits(params, [1.0, 2.0, 3.0])


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3)

    def test_no_overflow_on_huge_logits(self):
        p = softmax([1000.0, 0.0])
        assert np.isfinite(p).all()
        assert np.allclose(p, [1.0, 0.0])

    def test_reference_values(self):
        p = softmax([1.0, 2.0, 3.0])
        assert np.max(np.abs(p - [0.09003057, 0.24472847, 0.66524096])) < 1e-5


class TestCrossEntropy:
    def test_certain_prediction(self):
        assert cross_entropy_loss([0.0, 1.0], 1) == 0.0

    def test_uniform_four_way(self):
        assert abs(cross_entropy_loss([0.25] * 4, 2) - math.log(4)) < 1e-12

    def test_zero_probability_clamped(self):
        loss = cross_entropy_loss([1.0, 0.0], 1)
        assert loss <= -math.log(1e-12) + 1e-9
        assert loss > 27.0


class TestGradients:
    def test_last_layer_closed_form(self):
        rng = np.random.default_rng(0)
        params = init_network([3, 4], seed=1)
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 4, size=6)
        (gw, gb), = backward_gradients(params, x, y)
        probs = softmax(forward_logits(params, x))
        probs[np.arange(6), y] -= 1.0
        probs /= 6
        assert np.allclose(gw, x.T @ probs, atol=1e-12)
        assert np.allclose(gb, probs.sum(axis=0), atol=1e-12)

    def test_all_layers_frozen_yields_empty(self):
        params = init_network([3, 5, 4], seed=1)
        grads = backward_gradients(params, np.zeros((2, 3)), [0, 1], frozen_layers=2)
        assert grads == []

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        params = init_network([4, 6, 3], seed=3)
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        assert finite_diff_check(params, x, y) < 1e-4

    def test_zero_network_is_exact(self):
        params = NetworkParams(
            [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((4, 2)), np.zeros(2))]
        )
        err = finite_diff_check(params, np.array([[1.0, -1.0, 2.0]]), [1])
        assert err < 1e-6

    def test_zero_eps_rejected(self):
        params = init_network([2, 2], seed=0)
        with pytest.raises(ValueError):
            finite_diff_check(params, np.zeros((1, 2)), [0], eps=0.0)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0.2, 0, 100) == pytest.approx(0.2)
        assert cosine_lr(0.2, 100, 100) == pytest.approx(0.0, abs=1e-15)
        assert cosine_lr(0.2, 50, 100) == pytest.approx(0.1)

    def test_out_of_range_step(self):
        with pytest.raises(ValueError):
            cosine_lr(0.1, 5, 4)


class TestTraining:
    def test_separable_data_reaches_high_accuracy(self):
        ds = two_blob_dataset()
        params = init_network([2, 8, 2], seed=0)
        config = TrainConfig(lr0=0.3, epochs=40, batch_size=16, seed=1)
        trained, trace = train_network(params, ds, config)
        preds = predict_labels(trained, ds.features)
        assert np.mean(preds == ds.labels) >= 0.99
        assert trace[-1] < trace[0]
        assert len(trace) == 41

    def test_all_frozen_returns_identical_params(self):
        ds = two_blob_dataset()
        params = init_network([2, 4, 2], seed=5)
        config = TrainConfig(lr0=0.5, epochs=3, batch_size=8, seed=1, frozen_layers=2)
        trained, _ = train_network(params, ds, config)
        for (w0, b0), (w1, b1) in zip(params.layers, trained.layers):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)

    def test_frozen_prefix_is_bit_identical(self):
        ds = two_blob_dataset()
        params = init_network([2, 4, 2], seed=5)
        config = TrainConfig(lr0=0.5, epochs=5, batch_size=8, seed=1, frozen_layers=1)
        trained, _ = train_network(params, ds, config)
        assert np.array_equal(params.layers[0][0], trained.layers[0][0])
        assert np.array_equal(params.layers[0][1], trained.layers[0][1])
        assert not np.array_equal(params.layers[1][0], trained.layers[1][0])

    def test_training_is_deterministic(self):
        ds = two_blob_dataset()
        config = TrainConfig(lr0=0.3, epochs=10, batch_size=16, seed=9)
        a, _ = train_network(init_network([2, 8, 2], seed=0), ds, config)
        b, _ = train_network(init_network([2, 8, 2], seed=0), ds, config)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_input_params_not_mutated(self):
        ds = two_blob_dataset()
        params = init_network([2, 4, 2], seed=5)
        snapshot = params.copy()
        train_network(params, ds, TrainConfig(lr0=0.3, epochs=2, batch_size=8, seed=0))
        for (w0, b0), (w1, b1) in zip(params.layers, snapshot.layers):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_guard_reports_epoch(self):
        ds = two_blob_dataset()
        params = init_network([2, 4, 2], seed=5)
        config = TrainConfig(lr0=1e12, epochs=5, batch_size=8, seed=0, weight_decay=0.0)
        with pytest.raises(DivergenceError) as err:
            train_network(params, ds, config)
        assert err.value.epoch is not None

    @pytest.mark.parametrize(
        "sampler, frozen",
        [
            (SamplerMode.instance_balanced(), 0),
            (SamplerMode.uniform_class(), 1),
            (SamplerMode.reject_undersampled(3.5), 0),
            (SamplerMode.reject_undersampled(2.0), 1),
        ],
    )
    def test_fit_network_trains_the_same_bits(self, sampler, frozen):
        ds = two_blob_dataset()
        params = init_network([2, 8, 2], seed=3)
        config = TrainConfig(
            lr0=0.3, epochs=6, batch_size=16, seed=4, sampler=sampler,
            frozen_layers=frozen,
        )
        traced, full = train_network(params, ds, config)
        fitted, batch = fit_network(params, ds, config)
        for (wa, ba), (wb, bb) in zip(traced.layers, fitted.layers):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
        assert len(full) == config.epochs + 1
        assert len(batch) == config.epochs
        assert all(math.isfinite(v) for v in batch)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fit_network_divergence_reports_epoch(self, monkeypatch):
        def no_full_pass(*args):
            raise AssertionError("fit_network evaluated the full dataset")

        monkeypatch.setattr("tailens.network.dataset_loss", no_full_pass)
        ds = two_blob_dataset()
        params = init_network([2, 4, 2], seed=5)
        config = TrainConfig(lr0=1e12, epochs=5, batch_size=8, seed=0, weight_decay=0.0)
        with pytest.raises(DivergenceError) as err:
            fit_network(params, ds, config)
        assert err.value.epoch is not None

    def test_backward_loss_is_batch_loss(self):
        ds = two_blob_dataset()
        params = init_network([2, 8, 2], seed=1)
        loss, grads = backward_gradients(
            params, ds.features, ds.labels, 1, return_loss=True
        )
        assert abs(loss - batch_loss(params, ds.features, ds.labels)) < 1e-12
        plain = backward_gradients(params, ds.features, ds.labels, 1)
        for (ga, gb), (pa, pb) in zip(grads, plain):
            assert np.array_equal(ga, pa) and np.array_equal(gb, pb)

    def test_head_width_must_match_classes(self):
        ds = two_blob_dataset()
        params = init_network([2, 4, 3], seed=0)
        with pytest.raises(ValueError, match="head width"):
            train_network(params, ds, TrainConfig(lr0=0.1, epochs=1, batch_size=8))

    def test_uniform_class_sampler_trains(self):
        ds = two_blob_dataset()
        config = TrainConfig(
            lr0=0.3, epochs=10, batch_size=16, seed=2,
            sampler=SamplerMode.uniform_class(),
        )
        trained, _ = train_network(init_network([2, 8, 2], seed=0), ds, config)
        assert np.mean(predict_labels(trained, ds.features) == ds.labels) > 0.9


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        params = init_network([5, 7, 3], seed=11)
        meta = {"kind": "baseline", "note": "x"}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, meta)
        loaded, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta
        assert loaded.dims == params.dims
        for (w0, b0), (w1, b1) in zip(params.layers, loaded.layers):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)

    def test_rewrite_is_byte_identical(self, tmp_path):
        params = init_network([4, 4], seed=2)
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        save_checkpoint(a, params, {"kind": "baseline"})
        save_checkpoint(b, params, {"kind": "baseline"})
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)
