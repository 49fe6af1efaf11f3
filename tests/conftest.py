"""Shared fixtures: the 5-seed benchmark run and long-tail frequency profiles."""

from __future__ import annotations

import os

# BLAS thread pools are pinned to one thread before numpy loads, as the
# benchmark pins them, unless the environment sets them: on a two-CPU host
# the two forked workers of each seed fixture spun a two-thread pool against
# the other's, which made the certified stacker's fits and the 256-d
# training slower, and the whole suite 57-60 s instead of 46 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import multiprocessing
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

import tailens as t
from tailens.evaluation import (
    EvalReport,
    expert_confusion_matrix,
    fourfold_accuracy,
    oracle_evaluate,
    take_one_out_ablation,
)
from tailens.fusion import expand_partial, fuse_soft_vote
from tailens.network import forward_logits, softmax
from tailens.pipeline import fused_posteriors, model_posterior_tables, train_fusion

BENCHMARK_SEEDS = (0, 1, 2, 3, 4)


def imagenet_lt_like_frequencies() -> np.ndarray:
    """A 1,000-class frequency profile with the published long-tail shape:
    391/473/136 classes and 89,293/24,910/1,643 samples per fold, max 1,280
    and min 5 samples per class."""
    many = [1280] * 42 + [733] + [100] * 348
    medium = [99] * 195 + [65] + [20] * 277
    few = [19] * 68 + [16] + [5] * 67
    return np.asarray(many + medium + few, dtype=np.int64)


def places_lt_like_frequencies() -> np.ndarray:
    """A 365-class profile: 132/162/71 classes and 52,862/8,834/804 samples
    per fold, max 4,980 and min 5 samples per class."""
    many = [4980] * 8 + [722] + [100] * 123
    medium = [99] * 70 + [84] + [20] * 91
    few = [19] * 32 + [6] + [5] * 38
    return np.asarray(many + medium + few, dtype=np.int64)


@dataclass(frozen=True)
class SeedRun:
    """Everything the directional tests need from one benchmark seed."""

    seed: int
    cfg: t.RunConfig
    bundle: t.DatasetBundle
    ensemble: t.TrainedEnsemble
    baseline_report: EvalReport
    uniform_report: EvalReport
    oracle_report: EvalReport
    softvote_report: EvalReport
    calibrate_report: EvalReport
    stack_report: EvalReport
    select_report: EvalReport
    single_expert_reports: tuple[EvalReport, ...]
    diag_softvote: float
    diag_calibrate: float
    ablation: dict[str, EvalReport]
    member_tables: dict[str, np.ndarray]


def _run_seed(seed: int) -> SeedRun:
    cfg = t.synth60_config(seed=seed)
    bundle = t.prepare_bundle(cfg)
    ens = t.train_all(bundle, cfg)
    folds = ens.folds
    test = bundle.test

    def report(probs) -> EvalReport:
        preds = np.argmax(np.atleast_2d(probs), axis=1)
        return fourfold_accuracy(preds, test.labels, folds)

    partials = ens.partials("test")
    subsets = ens.subset_list()
    class_count = bundle.class_count

    sv = fuse_soft_vote(partials, subsets, class_count)
    cal = fused_posteriors(ens, train_fusion(ens, cfg, "calibrate"), cfg, "test")
    stack = fused_posteriors(ens, train_fusion(ens, cfg, "stack"), cfg, "test")
    select = fused_posteriors(ens, train_fusion(ens, cfg, "select"), cfg, "test")

    conf_sv = expert_confusion_matrix(
        partials, subsets, test.labels, folds, fused_probabilities=sv
    )
    conf_cal = expert_confusion_matrix(
        partials, subsets, test.labels, folds, fused_probabilities=cal
    )

    tables = model_posterior_tables(ens, "test")
    ablation = take_one_out_ablation(tables, test.labels, folds)

    return SeedRun(
        seed=seed,
        cfg=cfg,
        bundle=bundle,
        ensemble=ens,
        baseline_report=report(
            softmax(forward_logits(ens.baseline, test.features))
        ),
        uniform_report=report(
            softmax(forward_logits(ens.uniform, test.features))
        ),
        oracle_report=oracle_evaluate(ens.experts, test, folds),
        softvote_report=report(sv),
        calibrate_report=report(cal),
        stack_report=report(stack),
        select_report=report(select),
        single_expert_reports=tuple(
            report(expand_partial(p.probabilities, s, class_count))
            for p, s in zip(partials, subsets)
        ),
        diag_softvote=conf_sv.diagonal_mass(),
        diag_calibrate=conf_cal.diagonal_mass(),
        ablation=ablation,
        member_tables=tables,
    )


def on_two_forked_workers(fn, seeds) -> list:
    """``fn`` on each seed, two at a time in forked worker processes, which
    end with the ``with`` block. Each seed derives every generator from its
    own root seed, so the values are those of a serial run."""
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, seeds))


@pytest.fixture(scope="session")
def benchmark_runs() -> tuple[list[SeedRun], float]:
    """Train the full pipeline on the pinned benchmark for five seeds, on
    :func:`on_two_forked_workers`.

    Returns the per-seed artifacts and the wall-clock seconds spent
    building them (counted against the benchmark runtime budget).
    """
    start = time.perf_counter()
    runs = on_two_forked_workers(_run_seed, BENCHMARK_SEEDS)
    return runs, time.perf_counter() - start


def traced_peak(fn, *args, **kwargs):
    """Call ``fn`` and return its result with the most bytes that the call
    held allocated at once, as tracemalloc counts them (numpy reports its
    arrays to it); what the call returns counts, its arguments do not."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def majority(flags) -> bool:
    """At least 4 of 5 seeds show the direction."""
    flags = list(flags)
    return sum(flags) >= len(flags) - 1


def tiny_run_config(out_dir: str, seed: int = 0) -> t.RunConfig:
    """A seconds-scale pipeline configuration for CLI-level tests."""
    from tailens.config import (
        DatasetSection,
        ExpertSection,
        FusionSection,
        PathsSection,
        TrainingSection,
    )

    return t.RunConfig(
        dataset=DatasetSection(
            source="generate",
            class_count=6,
            feature_dim=4,
            n_max=40,
            alpha=1.6,
            n_val_per_class=6,
            n_test_per_class=6,
            noise_scale=0.5,
            many_min=20,
            few_max=5,
        ),
        training=TrainingSection(
            lr0=0.3,
            epochs=8,
            batch_size=32,
            weight_decay=1e-4,
            seed=seed,
            hidden_dims=(12,),
            expert_epochs=12,
        ),
        expert=ExpertSection(rho_grid=(1.0, 4.0), frozen_grid=(0, 1)),
        fusion=FusionSection(),
        paths=PathsSection(out_dir=out_dir),
    )


def write_config_file(directory, cfg: t.RunConfig):
    from pathlib import Path

    from tailens.config import serialize_config

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "run.ini"
    path.write_text(serialize_config(cfg))
    return path


def write_load_config(directory, manifest, out_dir):
    """:func:`tiny_run_config` loading the bundle of ``manifest`` into
    ``out_dir``, written under ``directory``; returns its path."""
    from dataclasses import replace

    cfg = tiny_run_config(str(out_dir))
    cfg = replace(cfg, dataset=replace(cfg.dataset, source="load", manifest=str(manifest)))
    return write_config_file(directory, cfg)


def run_cli_pipeline(config_path, threads: int = 1) -> None:
    """Drive every subcommand of the pipeline; assert all exit zero."""
    from tailens.cli import main

    steps = [
        ("gen-data",),
        ("train-baseline",),
        ("train-experts", "--threads", str(threads)),
        ("dump-posteriors", "--model", "baseline", "--split", "test"),
        ("dump-posteriors", "--model", "uniform", "--split", "test"),
        ("dump-posteriors", "--model", "experts", "--split", "test"),
        ("dump-posteriors", "--model", "fewshot", "--split", "test"),
        ("train-fusion", "--strategy", "calibrate"),
        ("train-fusion", "--strategy", "stack"),
        ("train-fusion", "--strategy", "select"),
        ("train-fusion", "--strategy", "softvote"),
        ("evaluate", "--strategy", "calibrate"),
        ("evaluate", "--strategy", "softvote"),
        ("evaluate", "--strategy", "kl"),
        ("evaluate", "--strategy", "stack"),
        ("evaluate", "--strategy", "select"),
        ("oracle",),
        ("report",),
    ]
    for step in steps:
        code = main([step[0], str(config_path), *step[1:]])
        assert code == 0, f"step {step} exited {code}"


def snapshot_tree(root) -> dict[str, bytes]:
    from pathlib import Path

    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def read_partial_dump(path):
    """A partial posterior dump and its sidecar as ``(header, sample ids,
    expert ids, probabilities, sidecar)``, read with the ``csv`` and
    ``json`` modules: the package writes the format for outside readers
    and reads none of it back."""
    import csv
    import json
    from pathlib import Path

    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    ids = np.array([int(row[0]) for row in rows], dtype=np.int64)
    expert_ids = np.array([int(row[1]) for row in rows], dtype=np.int64)
    probs = np.array([[float(v) for v in row[2:]] for row in rows], dtype=np.float64)
    sidecar = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    return header, ids, expert_ids, probs, sidecar


def parse_embeddings(path, class_count: int):
    """One embedding CSV's read-only (features, labels), parsed as
    ``load_bundle`` parses each split."""
    from pathlib import Path

    return t.dataset._parse_embeddings(Path(path), class_count)


def fold_class_counts(assignment: t.FoldAssignment) -> dict[t.Fold, int]:
    """The number of classes in each fold of ``assignment``."""
    return {f: int(np.sum(assignment.fold_of_class == int(f))) for f in t.Fold}


def one_file_manifest(csv_path, class_count: int):
    """A bundle manifest beside ``csv_path`` that names it as all three
    splits, so that ``load_bundle`` reads that one file; returns its path."""
    import json
    from pathlib import Path

    csv_path = Path(csv_path)
    manifest = csv_path.with_name(f"{csv_path.stem}.manifest.json")
    splits = {split: csv_path.name for split in ("train", "val", "test")}
    manifest.write_text(json.dumps(
        {"format": t.dataset.MANIFEST_FORMAT, "class_count": class_count, **splits}
    ))
    return manifest
