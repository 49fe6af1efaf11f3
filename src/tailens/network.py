"""Minimal feed-forward classifier with hand-written gradients.

A stack of affine layers with rectifier activations and a linear logit head,
trained by plain SGD under a cosine learning-rate schedule. Layer freezing
excludes a leading prefix of layers from updates, which is how experts reuse
a shared backbone. Forward evaluation, losses, and gradients are pure
functions; training copies its input parameters and returns a new set.

Training runs one kernel, :func:`fit_networks`; :func:`train_network` is
its one-member form. It trains a stack of G members that share the start,
the dataset and every setting but the sampler and the seed: the trained
weights are ``(G, fan_in, fan_out)`` arrays, each member has its own
generator, and every step runs through ``_Step`` over the whole stack,
whose buffers are allocated once. It draws an epoch's rows in one sampler
call per member, which leaves each generator's stream as per-step draws
would (see :class:`~tailens.dataset.SamplerMode`), and computes a frozen
prefix's activations over the whole dataset once and gathers batches from
that table. Every member's trace is the mean mini-batch loss of each
epoch. A member whose loss or weights go non-finite at the end of an epoch
gets a :class:`DivergenceError` and is ignored from then on; the others go
on. ``_Step`` is also what :func:`backward_gradients` runs, so the gradient
checks cover the training arithmetic. Each member's weights, trace and
divergence epoch are bitwise those of a plain loop that trains it alone,
drawing a batch, calling :func:`backward_gradients` and updating once per
step; the tests keep that loop as the reference.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._io import DataError, atomic_write_bytes
from .dataset import EmbeddingDataset, SamplerMode, draw_batch

CHECKPOINT_MAGIC = b"tailens-ckpt-v1\n"


class DivergenceError(RuntimeError):
    """Training or optimization produced a non-finite objective."""

    def __init__(self, message: str, epoch: int | None = None):
        self.epoch = epoch
        super().__init__(message)


@dataclass(eq=False)
class NetworkParams:
    """Ordered (weight, bias) pairs; weights are (fan_in, fan_out)."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for i, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i} has inconsistent shapes")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i} contains non-finite entries")
        for i in range(len(self.layers) - 1):
            if self.layers[i][0].shape[1] != self.layers[i + 1][0].shape[0]:
                raise ValueError(f"layer {i} output does not match layer {i + 1} input")

    @property
    def dims(self) -> list[int]:
        return [self.layers[0][0].shape[0]] + [w.shape[1] for w, _ in self.layers]

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    def copy(self) -> "NetworkParams":
        return NetworkParams([(w.copy(), b.copy()) for w, b in self.layers])


def init_network(dims, seed: int) -> NetworkParams:
    """Seeded Gaussian weights with std 1/sqrt(fan_in); zero biases."""
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise ValueError("dims must list input and output widths")
    if min(dims) < 1:
        raise ValueError(f"every layer width must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return NetworkParams(layers)


def forward_logits(params: NetworkParams, x) -> np.ndarray:
    """Logits for an (n, d) batch."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected an (n, d) feature table, got ndim={a.ndim}")
    if a.shape[1] != params.dims[0]:
        raise ValueError(
            f"input has dimension {a.shape[1]}, network expects {params.dims[0]}"
        )
    for w, b in params.layers[:-1]:
        a = a @ w
        a += b
        np.maximum(a, 0.0, out=a)
    w, b = params.layers[-1]
    z = a @ w
    z += b
    return z


def softmax(z) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety, normalized
    in place on the shifted copy."""
    z = np.asarray(z, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def log_softmax(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def batch_loss(params: NetworkParams, features, labels) -> float:
    """Mean cross-entropy of the batch, via log-softmax (smooth, unclamped)."""
    logp = log_softmax(forward_logits(params, features))
    labels = np.asarray(labels, dtype=np.int64)
    return float(-logp[np.arange(len(labels)), labels].mean())


class _Step:
    """One forward and backward pass over a stack of batches, into buffers
    made once.

    ``layers[i]`` for ``i >= start`` is a stacked pair of shapes
    ``(G, fan_in, fan_out)`` and ``(G, 1, fan_out)``, one slice per member;
    the layers before ``start`` are a frozen prefix whose activations the
    caller supplies. Built for ``(G, rows, ...)`` batches, with gradients for
    ``layers[frozen:]``, ``frozen >= start``. The layer arrays are read at
    every call, so in-place updates are seen.

    Every value of a member is bitwise the one the plain expressions give
    for its slice alone, because each is computed by the same operation in
    the same order, only with ``out=`` and over the stack (``np.matmul``
    runs the same gemm per slice): ``z = a @ W + b`` per layer with ``relu``
    between, ``e = exp(z - max z)`` and its row sum ``s``,
    ``delta = (e / s - onehot) / rows``, then per trained layer
    ``dW = a.T @ delta``, ``db = delta.sum(0)`` and
    ``delta = (delta @ W.T) * (a > 0)``. The one exception is the row max,
    taken down the columns of a transposed copy of ``z``; a maximum does
    not depend on the order it is taken in, and a row-wise reduction over
    a few dozen classes is the slowest operation of the step.
    """

    def __init__(self, layers, rows: int, start: int, frozen: int):
        self.layers = layers
        self.start = start
        self.frozen = frozen
        members = layers[-1][0].shape[0]
        widths = [w.shape[-1] for w, _ in layers]
        last = len(layers) - 1

        def buffer(width, dtype=np.float64):
            return np.empty((members, rows, width), dtype=dtype)

        # acts[i] is the activation entering layer i; deltas[i] and masks[i]
        # carry the gradient back through it
        self.acts = {i: buffer(widths[i - 1]) for i in range(start + 1, last + 1)}
        self.deltas = {i: buffer(widths[i - 1]) for i in range(frozen + 1, last + 1)}
        self.masks = {i: buffer(widths[i - 1], bool) for i in range(frozen + 1, last + 1)}
        classes = widths[-1]
        self.logits = buffer(classes)
        self.logits_t = np.empty((members, classes, rows))
        self.row_max = buffer(1)
        self.shifted = buffer(classes)
        self.delta = buffer(classes)
        # flat index of each row
        self.row_start = np.arange(members * rows).reshape(members, rows) * classes
        self.at_label = np.empty((members, rows), dtype=np.int64)
        self.grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers[frozen:]]

    def __call__(self, x, y, row_sum: np.ndarray, label_logit: np.ndarray):
        """The stacked (dW, db) pairs of the trained layers for the batches
        ``x`` of shape ``(G, rows, width)`` and labels ``y`` of shape
        ``(G, rows)``, in buffers the next call overwrites. Also writes each row's
        ``sum(exp(z - max z))`` into ``row_sum`` and its label's
        ``z - max z`` into ``label_logit``, both ``(G, rows)``; the row's
        cross-entropy is ``log(row_sum) - label_logit``."""
        layers, last, rows = self.layers, len(self.layers) - 1, y.shape[1]
        a = x
        for i in range(self.start, last):
            w, b = layers[i]
            h = self.acts[i + 1]
            np.matmul(a, w, out=h)
            np.add(h, b, out=h)
            np.maximum(h, 0.0, out=h)
            a = h
        w, b = layers[last]
        z, shifted, delta = self.logits, self.shifted, self.delta
        np.matmul(a, w, out=z)
        np.add(z, b, out=z)

        np.copyto(self.logits_t, z.transpose(0, 2, 1))
        np.maximum.reduce(self.logits_t, axis=1, out=self.row_max[..., 0])
        np.subtract(z, self.row_max, out=shifted)
        np.exp(shifted, out=delta)
        np.add.reduce(delta, axis=2, out=row_sum)
        at = np.add(self.row_start, y, out=self.at_label)
        shifted.reshape(-1).take(at, out=label_logit, mode="clip")  # clip: unbuffered
        np.divide(delta, row_sum[..., None], out=delta)
        delta.reshape(-1)[at] -= 1.0
        np.divide(delta, rows, out=delta)

        for i in range(last, self.frozen - 1, -1):
            a = x if i == self.start else self.acts[i]
            gw, gb = self.grads[i - self.frozen]
            np.matmul(a.transpose(0, 2, 1), delta, out=gw)
            np.add.reduce(delta, axis=1, keepdims=True, out=gb)
            if i > self.frozen:
                back, mask = self.deltas[i], self.masks[i]
                np.matmul(delta, layers[i][0].transpose(0, 2, 1), out=back)
                np.greater(a, 0.0, out=mask)
                np.multiply(back, mask, out=back)
                delta = back
        return self.grads


def backward_gradients(
    params: NetworkParams,
    features,
    labels,
    frozen_layers: int = 0,
    *,
    return_loss: bool = False,
):
    """Mean-over-batch cross-entropy gradients for the unfrozen layers.

    Returns one (dW, db) pair per layer starting at ``frozen_layers``; an
    empty list when every layer is frozen. With ``return_loss`` the result
    is ``(loss, grads)``, where ``loss`` is the batch's mean cross-entropy
    (log-sum-exp minus the label logit) from the same forward pass. This is
    the arithmetic of every SGD step in :func:`fit_networks`.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2:
        raise ValueError(f"expected an (n, d) feature table, got ndim={features.ndim}")
    if len(features) == 0:
        raise ValueError("batch must be nonempty")
    n_layers = params.layer_count
    if not 0 <= frozen_layers <= n_layers:
        raise ValueError(f"frozen_layers must lie in [0, {n_layers}]")
    if features.shape[1] != params.dims[0]:
        raise ValueError(
            f"input has dimension {features.shape[1]}, network expects {params.dims[0]}"
        )
    if labels.shape != (len(features),):
        raise ValueError("need one label per feature row")
    if labels.min() < 0 or labels.max() >= params.dims[-1]:
        raise ValueError(f"labels must lie in [0, {params.dims[-1]})")

    one = [(w[None], b[None, None]) for w, b in params.layers]  # a stack of one member
    step = _Step(one, len(labels), 0, frozen_layers)
    row_sum, label_logit = np.empty((1, len(labels))), np.empty((1, len(labels)))
    stacked = step(features[None], labels[None], row_sum, label_logit)
    grads = [(gw[0], gb[0, 0]) for gw, gb in stacked]
    if return_loss:
        return float(np.mean(np.log(row_sum[0]) - label_logit[0])), grads
    return grads


def cosine_lr(lr0: float, t: int, total: int) -> float:
    """Cosine-annealed learning rate: 0.5 * lr0 * (1 + cos(pi * t / total))."""
    if not 0 <= t <= total:
        raise ValueError(f"step {t} outside [0, {total}]")
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * t / total))


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings. ``hidden_dims`` sizes the backbone when a model is built
    from scratch; ``frozen_layers`` counts leading layers left untouched."""

    lr0: float
    epochs: int
    batch_size: int
    frozen_layers: int = 0
    sampler: SamplerMode = field(default_factory=SamplerMode.instance_balanced)
    seed: int = 0
    weight_decay: float = 1e-4
    hidden_dims: tuple[int, ...] = (64,)

    def __post_init__(self):
        if not 0 < self.lr0 < math.inf:
            raise ValueError(f"lr0 must be finite and positive, got {self.lr0}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.frozen_layers < 0:
            raise ValueError("frozen_layers must be >= 0")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if any(width < 1 for width in self.hidden_dims):
            raise ValueError("every width in hidden_dims must be >= 1")


def dataset_loss(params: NetworkParams, dataset: EmbeddingDataset) -> float:
    return batch_loss(params, dataset.features, dataset.labels)


def fit_networks(params: NetworkParams, dataset: EmbeddingDataset, configs) -> list:
    """SGD with a per-epoch cosine schedule and weight decay on weights, from
    one start for several configs at once.

    The configs may differ only in their sampler and seed. The members train
    in lockstep, one stacked step per batch, and each gets bitwise the
    parameters and trace it gets trained alone. Each member's trace has
    ``epochs`` entries: the mean mini-batch loss of each epoch, each batch
    scored before its own update. Divergence is detected from those batch
    losses and from non-finite weights at the end of an epoch. Returns one
    outcome per config, in order: new parameters (the input set is
    untouched) and the trace, or a :class:`DivergenceError` with the epoch.
    A diverged member keeps its slice of the stack but is ignored from the
    end of its epoch on; the others go on. ``frozen_layers`` must leave at
    least one layer to train.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one config")
    config = configs[0]
    for other in configs[1:]:
        if replace(other, sampler=config.sampler, seed=config.seed) != config:
            raise ValueError("stacked configs may differ only in sampler and seed")
    if dataset.class_count != params.dims[-1]:
        raise ValueError(
            f"dataset has {dataset.class_count} classes, head width is {params.dims[-1]}"
        )
    n_layers = params.layer_count
    frozen = config.frozen_layers
    if frozen >= n_layers:
        raise ValueError(f"frozen_layers {frozen} leaves none of {n_layers} layers to train")

    # The frozen prefix never changes, so batches gather its activations
    # from one table over the dataset. A row of the table is bitwise the
    # batch's own activation because BLAS gemm rounds each output row alike
    # whatever the row count; a single row goes through gemv instead, which
    # rounds differently, so one-row batches and datasets keep the prefix.
    rows, count = config.batch_size, len(configs)
    steps_per_epoch = max(1, dataset.n // rows)
    start = frozen if min(rows, dataset.n) > 1 else 0
    source = dataset
    if start:
        table = dataset.features
        for w, b in params.layers[:start]:
            table = np.maximum(table @ w + b, 0.0)
        source = dataset.with_features(table)

    trained = [  # stacked copies of the trained layers, one slice per member
        (np.repeat(w[None], count, axis=0), np.repeat(b[None, None], count, axis=0))
        for w, b in params.layers[frozen:]
    ]
    fixed = [
        (np.broadcast_to(w, (count, *w.shape)), np.broadcast_to(b, (count, 1, len(b))))
        for w, b in params.layers[start:frozen]
    ]
    step = _Step(params.layers[:start] + fixed + trained, rows, start, frozen)
    scratch = [(np.empty_like(w), np.empty_like(b)) for w, b in trained]
    # per step, member and row: sum_c exp(z - max z) and the label's z - max z
    row_sums = np.empty((steps_per_epoch, count, rows))
    label_logits = np.empty((steps_per_epoch, count, rows))
    xs = np.empty((steps_per_epoch, count, rows, source.feature_dim))
    ys = np.empty((steps_per_epoch, count, rows), dtype=np.int64)

    rngs = [np.random.default_rng(c.seed) for c in configs]
    traces = [[] for _ in configs]
    diverged: list = [None] * count  # each member's DivergenceError, once it has one
    for epoch in range(config.epochs):
        lr = cosine_lr(config.lr0, epoch, config.epochs)
        for m, c in enumerate(configs):
            if diverged[m] is None:
                x, y = draw_batch(source, c.sampler, steps_per_epoch * rows, rngs[m])
                xs[:, m] = x.reshape(steps_per_epoch, rows, -1)
                ys[:, m] = y.reshape(steps_per_epoch, rows)
        for s in range(steps_per_epoch):
            grads = step(xs[s], ys[s], row_sums[s], label_logits[s])
            for (w, b), (gw, gb), (tw, tb) in zip(trained, grads, scratch):
                if config.weight_decay:
                    np.multiply(w, config.weight_decay, out=tw)
                    np.add(gw, tw, out=gw)
                np.multiply(gw, lr, out=tw)
                np.subtract(w, tw, out=w)
                np.multiply(gb, lr, out=tb)
                np.subtract(b, tb, out=b)

        for m in range(count):
            if diverged[m] is not None:
                continue
            loss = math.nan
            if all(np.isfinite(w[m]).all() and np.isfinite(b[m]).all() for w, b in trained):
                # each batch's mean cross-entropy, summed in step order: the
                # float a running sum of per-batch np.mean would give
                batch_losses = np.log(row_sums[:, m]) - label_logits[:, m]
                loss = 0.0
                for mean in (np.add.reduce(batch_losses, axis=1) / rows).tolist():
                    loss += mean
                loss /= steps_per_epoch
            if math.isfinite(loss):
                traces[m].append(loss)
            else:
                diverged[m] = DivergenceError(
                    f"loss became non-finite at epoch {epoch}", epoch=epoch
                )
        if all(diverged):
            break

    return [
        error or (
            NetworkParams(
                [(w.copy(), b.copy()) for w, b in params.layers[:frozen]]
                + [(w[m].copy(), b[m, 0].copy()) for w, b in trained]
            ),
            traces[m],
        )
        for m, error in enumerate(diverged)
    ]


def train_network(
    params: NetworkParams, dataset: EmbeddingDataset, config: TrainConfig
) -> tuple[NetworkParams, list[float]]:
    """:func:`fit_networks` on one config: the new parameters and the
    ``epochs``-entry trace of mean mini-batch losses, or the
    :class:`DivergenceError` that reports the epoch, raised."""
    (outcome,) = fit_networks(params, dataset, [config])
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


def save_checkpoint(path, params: NetworkParams, meta: dict | None = None) -> None:
    """Versioned binary serialization; round-trips parameters bit-exactly."""
    entries = []
    buffers = []
    for i, (w, b) in enumerate(params.layers):
        entries.append([f"layers.{i}.weight", list(w.shape)])
        buffers.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        entries.append([f"layers.{i}.bias", list(b.shape)])
        buffers.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    header = {
        "dims": params.dims,
        "arrays": entries,
        "meta": meta or {},
    }
    payload = (
        CHECKPOINT_MAGIC
        + json.dumps(header, sort_keys=True).encode("utf-8")
        + b"\n"
        + b"".join(buffers)
    )
    atomic_write_bytes(path, payload)


def load_checkpoint(path) -> tuple[NetworkParams, dict]:
    """Inverse of :func:`save_checkpoint`. Content that does not form a
    valid network (bad magic or header, a truncated or missing array,
    inconsistent shapes, non-finite weights, a ``meta`` that is not a JSON
    object) raises a :class:`DataError` naming the file."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path.name}: not a checkpoint file")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
            entries = [(name, [int(n) for n in shape]) for name, shape in header["arrays"]]
            layer_count = len(header["dims"]) - 1
            meta = header.get("meta", {})
        except (ValueError, KeyError, TypeError):
            raise DataError(f"{path.name}: malformed checkpoint header") from None
        if not isinstance(meta, dict):
            raise DataError(f"{path.name}: checkpoint meta is not a JSON object")
        if any(n < 0 for _, shape in entries for n in shape):
            raise DataError(f"{path.name}: malformed checkpoint header")
        arrays = {}
        size = os.fstat(fh.fileno()).st_size
        for name, shape in entries:
            count = math.prod(shape)
            # sized against the file first, so a huge declared shape asks for no memory
            buf = fh.read(count * 8) if size - fh.tell() >= count * 8 else b""
            if len(buf) != count * 8:
                raise DataError(f"{path.name}: truncated array {name}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    try:
        layers = [
            (arrays[f"layers.{i}.weight"], arrays[f"layers.{i}.bias"])
            for i in range(layer_count)
        ]
        params = NetworkParams(layers)
    except KeyError as exc:
        raise DataError(f"{path.name}: checkpoint has no array {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path.name}: {exc}") from None
    return params, meta
