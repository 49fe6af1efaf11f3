"""In-memory spans around the calls into each ``tailens`` layer.

Every span has a name, a start, an end and the span that caused it. Spans
live in memory while the workload runs and are written out once at the end.
The program itself is not edited: :func:`instrument` replaces a public
function at *every* module attribute that holds it, so a caller that did
``from .dataset import draw_batch`` reaches the wrapper too.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from the thread that made it and from worker threads.

    A span opened on a worker thread with no open span of its own is parented
    to the span the creating thread has open at that moment, the call that
    handed the work to the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        record = Span(name, time.perf_counter(), parent)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def write(self, path: Path) -> None:
        """Columnar JSON: one name table, then [name, parent, start, end, attrs]."""
        names: dict[str, int] = {}
        rows = []
        t0 = self.spans[0].start if self.spans else 0.0
        for s in self.spans:
            key = names.setdefault(s.name, len(names))
            attrs = {k: v for k, v in (s.attrs or {}).items() if k != "trace"}
            rows.append([key, s.parent, round(s.start - t0, 7), round(s.end - t0, 7), attrs or None])
        path.write_text(json.dumps({"names": list(names), "spans": rows}))


class CountingGenerator:
    """Delegates to a numpy Generator and counts the integers it hands out.

    The wrapped generator's stream is consumed exactly as without the proxy,
    so the draws, and everything trained from them, are unchanged.
    """

    def __init__(self, rng):
        self._rng = rng
        self.drawn = 0

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self.drawn += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _rebind(original, replacement) -> int:
    """Point every ``tailens`` module attribute holding ``original`` at
    ``replacement``; returns how many bindings changed."""
    count = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "tailens" or mod_name.startswith("tailens.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def _bundle_bytes(manifest_path) -> int:
    """Size of a bundle on disk: its manifest plus the three split CSVs."""
    manifest_path = Path(manifest_path)
    names = json.loads(manifest_path.read_text(encoding="utf-8"))
    files = [manifest_path] + [manifest_path.parent / names[s] for s in ("train", "val", "test")]
    return sum(p.stat().st_size for p in files)


def instrument(tracer: Tracer) -> None:
    """Install spans around the public functions each layer metric needs."""
    import tailens.cli  # noqa: F401  (loads every module so all bindings exist)
    from tailens import _io, config, dataset, evaluation, experts, fusion, network, pipeline

    def plain(module, func_name, on_result=None):
        original = getattr(module, func_name)
        span_name = f"{module.__name__.rsplit('.', 1)[-1]}.{func_name}"

        def wrapper(*args, **kwargs):
            with tracer.span(span_name) as sp:
                result = original(*args, **kwargs)
            if on_result is not None:
                sp.attrs = on_result(args, kwargs, result)
            return result

        if _rebind(original, wrapper) == 0:
            raise RuntimeError(f"no binding of {span_name} found")

    for module, names in (
        (dataset, ("generate_longtailed",)),
        (network, ("backward_gradients", "dataset_loss", "forward_logits",
                   "save_checkpoint", "load_checkpoint")),
        (experts, ("train_baseline", "finetune_uniform_classifier", "train_expert",
                   "expert_partial_posterior")),
        (fusion, ("fuse_soft_vote", "fuse_by_selection", "fuse_by_stacking",
                  "fuse_calibrated", "train_expert_selector", "train_stacker",
                  "ingest_external_posteriors", "write_posterior_csv")),
        (evaluation, ("fourfold_accuracy", "oracle_evaluate", "expert_confusion_matrix",
                      "msp_histogram", "take_one_out_ablation")),
        (pipeline, ("train_all", "train_fusion", "fused_posteriors")),
        (config, ("load_config",)),
    ):
        for name in names:
            plain(module, name)

    plain(network, "train_network", lambda a, k, r: {"trace": tuple(r[1])})
    plain(fusion, "fuse_kl_min", lambda a, k, r: {
        "steps": int(r.steps_taken), "objective_mean": float(np.mean(r.objective))
    })
    plain(fusion, "train_joint_calibration", lambda a, k, r: {"objective_final": float(min(r[1]))})
    plain(_io, "atomic_write_bytes", lambda a, k, r: {"bytes": len(a[1] if len(a) > 1 else k["data"])})
    plain(dataset, "load_bundle", lambda a, k, r: {"bytes": _bundle_bytes(a[0] if a else k["manifest_path"])})
    plain(dataset, "save_bundle", lambda a, k, r: {"bytes": _bundle_bytes(r)})

    original_draw = dataset.draw_batch

    def draw_batch(dataset, mode, batch_size, rng):
        if mode.kind == "reject_undersampled":
            counting = CountingGenerator(rng)
            with tracer.span("dataset.draw_batch.reject_undersampled") as sp:
                result = original_draw(dataset, mode, batch_size, counting)
            sp.attrs = {"rows": batch_size, "drawn": counting.drawn}
            return result
        with tracer.span(f"dataset.draw_batch.{mode.kind}") as sp:
            result = original_draw(dataset, mode, batch_size, rng)
        sp.attrs = {"rows": batch_size}
        return result

    _rebind(original_draw, draw_batch)

    original_select = experts.select_expert_hyperparams

    def select_expert_hyperparams(baseline, subset, *args, **kwargs):
        with tracer.span(f"experts.select_expert_hyperparams.{subset.expert_id.label}"):
            return original_select(baseline, subset, *args, **kwargs)

    _rebind(original_select, select_expert_hyperparams)
