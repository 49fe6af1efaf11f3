import math
import re
from dataclasses import replace

import numpy as np
import pytest

from tailens import DataError
from tailens.dataset import EmbeddingDataset, SamplerMode, draw_batch
from tailens.network import (
    CHECKPOINT_MAGIC,
    DivergenceError,
    NetworkParams,
    TrainConfig,
    backward_gradients,
    batch_loss,
    cosine_lr,
    fit_networks,
    forward_logits,
    init_network,
    load_checkpoint,
    save_checkpoint,
    softmax,
    train_network,
)

from gradient_checks import finite_diff_check


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
        assert np.allclose(forward_logits(params, [[1.0, 2.0]]), [1.0, 2.0])

    def test_zero_weights_give_bias(self):
        params = NetworkParams([(np.zeros((3, 2)), np.array([0.5, -1.0]))])
        for x in ([[0.0, 0.0, 0.0]], [[3.0, -2.0, 1.0]]):
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
        z = forward_logits(params, [[1.0, 0.0]])
        assert np.max(np.abs(z - np.array([3.5, -1.25]))) < 1e-12

    def test_dimension_mismatch(self):
        params = NetworkParams([(np.eye(2), np.zeros(2))])
        with pytest.raises(ValueError, match="dimension"):
            forward_logits(params, [[1.0, 2.0, 3.0]])


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
        preds = np.argmax(forward_logits(trained, ds.features), axis=1)
        assert np.mean(preds == ds.labels) >= 0.99
        assert trace[-1] < trace[0]
        assert len(trace) == 40

    def test_every_layer_frozen_is_rejected(self):
        ds = two_blob_dataset()
        params = init_network([2, 4, 2], seed=5)
        config = TrainConfig(lr0=0.5, epochs=3, batch_size=8, seed=1, frozen_layers=2)
        with pytest.raises(ValueError, match="frozen_layers 2 leaves none of 2 layers"):
            train_network(params, ds, config)

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

    @pytest.mark.parametrize("frozen", [1, 2])
    def test_returned_frozen_layers_are_copies(self, frozen):
        # every returned array is the result's own: writing into a frozen
        # layer changes neither the input nor another member
        ds = two_blob_dataset()
        params = init_network([2, 4, 4, 2], seed=5)
        snapshot = params.copy()
        config = TrainConfig(lr0=0.3, epochs=2, batch_size=8, seed=0, frozen_layers=frozen)
        trained, _ = train_network(params, ds, config)
        (first, _), (second, _) = fit_networks(params, ds, [config, replace(config, seed=1)])
        for result in (trained, first):
            for w, b in result.layers[:frozen]:
                w += 1.0
                b += 1.0
        assert_same_bits(params, snapshot)
        for (w, b), (w0, b0) in zip(second.layers[:frozen], snapshot.layers):
            assert w.tobytes() == w0.tobytes() and b.tobytes() == b0.tobytes()

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
        traced, trace = train_network(params, ds, config)
        fitted, batch = fit_networks(params, ds, [config])[0]
        assert_same_bits(traced, fitted)
        assert trace == batch
        assert len(trace) == config.epochs
        assert all(math.isfinite(v) for v in trace)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_fit_network_divergence_reports_epoch(self, monkeypatch):
        def no_full_pass(*args):
            raise AssertionError("fit_networks evaluated the full dataset")

        monkeypatch.setattr("tailens.network.dataset_loss", no_full_pass)
        ds = two_blob_dataset()
        params = init_network([2, 4, 2], seed=5)
        config = TrainConfig(lr0=1e12, epochs=5, batch_size=8, seed=0, weight_decay=0.0)
        (outcome,) = fit_networks(params, ds, [config])
        assert isinstance(outcome, DivergenceError)
        assert outcome.epoch is not None

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

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"lr0": math.nan}, "lr0 must be finite and positive, got nan"),
            ({"lr0": math.inf}, "lr0 must be finite and positive, got inf"),
            ({"weight_decay": math.inf}, "weight_decay must be finite and >= 0, got inf"),
            ({"hidden_dims": (8, 0)}, "every width in hidden_dims must be >= 1"),
        ],
        ids=["negative-seed", "nan-lr0", "inf-lr0", "inf-decay", "zero-width"],
    )
    def test_config_out_of_range_rejected(self, setting, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**{"lr0": 0.1, "epochs": 1, "batch_size": 8, **setting})

    def test_layer_width_below_one_rejected(self):
        with pytest.raises(ValueError, match="every layer width must be >= 1"):
            init_network([2, 0, 2], seed=0)

    def test_uniform_class_sampler_trains(self):
        ds = two_blob_dataset()
        config = TrainConfig(
            lr0=0.3, epochs=10, batch_size=16, seed=2,
            sampler=SamplerMode.uniform_class(),
        )
        trained, _ = train_network(init_network([2, 8, 2], seed=0), ds, config)
        assert np.mean(np.argmax(forward_logits(trained, ds.features), axis=1) == ds.labels) > 0.9


def reference_backward(params, x, y, frozen):
    """The textbook backward pass: fresh arrays at every operation."""
    inputs = [x]
    for w, b in params.layers[:-1]:
        inputs.append(np.maximum(inputs[-1] @ w + b, 0.0))
    w, b = params.layers[-1]
    logits = inputs[-1] @ w + b
    rows = np.arange(len(y))
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    delta = e / total
    delta[rows, y] -= 1.0
    delta /= len(y)
    grads = []
    for i in range(params.layer_count - 1, frozen - 1, -1):
        grads.append((inputs[i].T @ delta, delta.sum(axis=0)))
        if i > frozen:
            delta = delta @ params.layers[i][0].T
            delta *= inputs[i] > 0.0
    grads.reverse()
    return float(np.mean(np.log(total[:, 0]) - shifted[rows, y])), grads


def reference_sgd(params, dataset, config):
    """The SGD loop written out plainly: one draw_batch per step over the raw
    features, backward_gradients through every layer, then the update.
    Returns the weights, the batch-mean trace and whether the trained
    weights were finite after each epoch; it runs on through non-finite
    values."""
    params = params.copy()
    rng = np.random.default_rng(config.seed)
    steps = max(1, dataset.n // config.batch_size)
    trained = params.layers[config.frozen_layers :]
    batch, finite = [], []
    for epoch in range(config.epochs):
        lr = cosine_lr(config.lr0, epoch, config.epochs)
        total = 0.0
        for _ in range(steps):
            x, y = draw_batch(dataset, config.sampler, config.batch_size, rng)
            loss, grads = backward_gradients(
                params, x, y, config.frozen_layers, return_loss=True
            )
            total += loss
            for (w, b), (gw, gb) in zip(trained, grads):
                if config.weight_decay:
                    gw = gw + config.weight_decay * w
                w -= lr * gw
                b -= lr * gb
        batch.append(total / steps)
        finite.append(all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in trained))
    return params, batch, finite


def three_class_dataset(seed=0):
    """90 rows, imbalanced 50/28/12, class 2 playing the reject class."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1, 2], [50, 28, 12])
    centers = rng.normal(0.0, 2.0, size=(3, 5))
    features = centers[labels] + rng.normal(0.0, 1.0, size=(90, 5))
    return EmbeddingDataset(features=features, labels=labels, class_count=3)


def assert_same_bits(a, b):
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()


class TestKernelMatchesReference:
    """The training kernel draws each epoch's rows at once, gathers a frozen
    prefix's activations from a table and writes into preallocated buffers;
    none of that may change a bit."""

    @pytest.mark.parametrize("frozen", [0, 1, 2])
    @pytest.mark.parametrize(
        "sampler",
        [
            SamplerMode.instance_balanced(),
            SamplerMode.uniform_class(),
            SamplerMode.reject_undersampled(1.0),
            SamplerMode.reject_undersampled(3.5),
        ],
        ids=["instance", "uniform", "reject-rho1", "reject-rho3.5"],
    )
    def test_weights_and_traces_are_bitwise_the_reference(self, sampler, frozen):
        ds = three_class_dataset()
        # two hidden layers: frozen=1 leaves two trained layers behind the
        # cached prefix, frozen=2 is all but the head
        params = init_network([5, 12, 9, 3], seed=7)
        config = TrainConfig(
            lr0=0.4, epochs=5, batch_size=16, seed=11, sampler=sampler,
            frozen_layers=frozen, weight_decay=1e-3,
        )
        assert ds.n % config.batch_size != 0
        ref, ref_batch, _ = reference_sgd(params, ds, config)
        traced, trace = train_network(params, ds, config)
        fitted, batch = fit_networks(params, ds, [config])[0]
        assert_same_bits(traced, ref)
        assert_same_bits(fitted, ref)
        assert trace == batch == ref_batch

    @pytest.mark.parametrize("batch_size", [1, 90, 200])
    def test_one_row_and_whole_dataset_batches(self, batch_size):
        ds = three_class_dataset(seed=1)
        params = init_network([5, 12, 9, 3], seed=2)
        config = TrainConfig(
            lr0=0.2, epochs=2, batch_size=batch_size, seed=5, frozen_layers=1,
            sampler=SamplerMode.reject_undersampled(2.0),
        )
        ref, ref_batch, _ = reference_sgd(params, ds, config)
        fitted, batch = train_network(params, ds, config)
        assert_same_bits(fitted, ref)
        assert batch == ref_batch

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("frozen", [0, 1, 2])
    @pytest.mark.parametrize(
        "sampler",
        [
            SamplerMode.instance_balanced(),
            SamplerMode.uniform_class(),
            SamplerMode.reject_undersampled(3.5),
        ],
        ids=["instance", "uniform", "reject"],
    )
    def test_divergence_epoch_is_the_reference(self, sampler, frozen):
        ds = three_class_dataset()
        params = init_network([5, 12, 9, 3], seed=7)
        config = TrainConfig(
            lr0=1e12, epochs=4, batch_size=16, seed=11, sampler=sampler,
            frozen_layers=frozen, weight_decay=0.0,
        )
        ref, batch, finite = reference_sgd(params, ds, config)
        # the first epoch that ends with a non-finite batch loss or weight
        epoch = next(
            (e for e, ok in enumerate(finite) if not (ok and math.isfinite(batch[e]))), None
        )
        if epoch is None:
            assert_same_bits(train_network(params, ds, config)[0], ref)
        else:
            with pytest.raises(DivergenceError) as err:
                train_network(params, ds, config)
            assert err.value.epoch == epoch

    @pytest.mark.parametrize("frozen", [0, 1, 2, 3])
    def test_backward_gradients_is_the_textbook_arithmetic(self, frozen):
        rng = np.random.default_rng(frozen)
        params = init_network([5, 12, 9, 3], seed=4)
        x = rng.normal(size=(17, 5))
        y = rng.integers(0, 3, size=17)
        ref_loss, ref_grads = reference_backward(params, x, y, frozen)
        loss, grads = backward_gradients(params, x, y, frozen, return_loss=True)
        assert loss == ref_loss
        assert len(grads) == len(ref_grads) == 3 - frozen
        for (gw, gb), (rw, rb) in zip(grads, ref_grads):
            assert gw.tobytes() == rw.tobytes() and gb.tobytes() == rb.tobytes()


def fit_alone(params, dataset, config):
    """fit_networks' outcome for ``config`` alone: its result, or its
    DivergenceError."""
    return fit_networks(params, dataset, [config])[0]


class TestStackedMembers:
    """fit_networks trains a stack of members in lockstep; each member must
    get the bits it gets when it is trained alone."""

    MEMBERS = [
        (SamplerMode.reject_undersampled(1.0), 11),
        (SamplerMode.reject_undersampled(3.5), 11),
        (SamplerMode.instance_balanced(), 12),
        (SamplerMode.reject_undersampled(2.0), 13),
    ]

    @pytest.mark.parametrize("frozen", [0, 1, 2])
    @pytest.mark.parametrize("with_uniform", [False, True], ids=["per-epoch", "per-step"])
    def test_each_member_is_fit_network_alone(self, frozen, with_uniform):
        ds = three_class_dataset()
        params = init_network([5, 12, 9, 3], seed=7)
        members = self.MEMBERS + ([(SamplerMode.uniform_class(), 14)] if with_uniform else [])
        configs = [
            TrainConfig(
                lr0=0.4, epochs=5, batch_size=16, seed=seed, sampler=sampler,
                frozen_layers=frozen, weight_decay=1e-3,
            )
            for sampler, seed in members
        ]
        results = fit_networks(params, ds, configs)
        assert len(results) == len(configs)
        for config, (fitted, trace) in zip(configs, results):
            alone, alone_trace = train_network(params, ds, config)
            assert_same_bits(fitted, alone)
            assert trace == alone_trace

    @pytest.mark.parametrize("batch_size", [1, 90])
    def test_one_row_and_whole_dataset_batches(self, batch_size):
        ds = three_class_dataset(seed=1)
        params = init_network([5, 12, 9, 3], seed=2)
        configs = [
            TrainConfig(
                lr0=0.2, epochs=2, batch_size=batch_size, seed=seed, frozen_layers=1,
                sampler=sampler,
            )
            for sampler, seed in self.MEMBERS
        ]
        for config, (fitted, trace) in zip(configs, fit_networks(params, ds, configs)):
            alone, alone_trace = train_network(params, ds, config)
            assert_same_bits(fitted, alone)
            assert trace == alone_trace

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lr0", [1e12, 1e8])
    @pytest.mark.parametrize("frozen", [0, 1])
    def test_a_diverged_member_leaves_the_others_as_they_were(self, lr0, frozen):
        # at frozen=0 the rho-3.5 member diverges at epoch 1 and leaves the stack
        ds = three_class_dataset()
        params = init_network([5, 12, 9, 3], seed=7)
        configs = [
            TrainConfig(
                lr0=lr0, epochs=8, batch_size=16, seed=seed, sampler=sampler,
                frozen_layers=frozen, weight_decay=0.0,
            )
            for sampler, seed in self.MEMBERS + [(SamplerMode.uniform_class(), 14)]
        ]
        for config, outcome in zip(configs, fit_networks(params, ds, configs)):
            alone = fit_alone(params, ds, config)
            if isinstance(alone, DivergenceError):
                assert isinstance(outcome, DivergenceError)
                assert str(outcome) == str(alone) and outcome.epoch == alone.epoch
            else:
                assert_same_bits(outcome[0], alone[0])
                assert outcome[1] == alone[1]

    def test_configs_may_differ_only_in_sampler_and_seed(self):
        ds = three_class_dataset()
        params = init_network([5, 4, 3], seed=0)
        base = TrainConfig(lr0=0.1, epochs=1, batch_size=16)
        with pytest.raises(ValueError, match="sampler and seed"):
            fit_networks(params, ds, [base, TrainConfig(lr0=0.2, epochs=1, batch_size=16)])
        with pytest.raises(ValueError, match="at least one"):
            fit_networks(params, ds, [])


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

    @pytest.mark.parametrize(
        "content, problem",
        [
            (b"not a checkpoint", "not a checkpoint file"),
            (CHECKPOINT_MAGIC + b'{"dims": [4, 4\n', "malformed checkpoint header"),
            (CHECKPOINT_MAGIC + b'{"dims": [4, 4]}\n', "malformed checkpoint header"),
            (CHECKPOINT_MAGIC + b'{"arrays": [["w", [4]]], "dims": [4]}\n\0', "truncated array w"),
            # sized before it is read: 32 TiB is never asked for
            (CHECKPOINT_MAGIC + b'{"arrays": [["w", [4398046511104, 1]]], "dims": [4]}\n' +
             bytes(64), "truncated array w"),
            (CHECKPOINT_MAGIC + b'{"arrays": [["w", [-4, -2]]], "dims": [4]}\n' + bytes(64),
             "malformed checkpoint header"),
        ],
        ids=["no-magic", "broken-json", "no-arrays", "truncated", "oversized", "negative"],
    )
    def test_rejects_non_checkpoint(self, tmp_path, content, problem):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(content)
        with pytest.raises(DataError, match=f"junk.ckpt: {problem}"):
            load_checkpoint(path)
