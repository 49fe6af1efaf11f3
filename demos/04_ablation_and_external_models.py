"""Walkthrough: diverse ensembles, posterior dumps, and take-one-out.

Any model that can emit a full-width posterior per sample can join the
ensemble through a CSV table, including models produced elsewhere. This
script dumps posterior tables for the baseline, the uniform finetune, and
the soft-voted experts, fuses them, and measures what each member
contributes by taking it out.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import tailens as t
from tailens.evaluation import take_one_out_ablation
from tailens.fusion import (
    fuse_soft_vote,
    ingest_external_posteriors,
    write_posterior_csv,
)
from tailens.pipeline import model_posterior_tables

# a smaller world than the pinned benchmark, same training recipe
cfg = t.synth60_config(seed=7)
cfg = replace(
    cfg,
    dataset=replace(
        cfg.dataset,
        class_count=24,
        feature_dim=8,
        n_max=200,
        alpha=1.4,
        n_val_per_class=10,
        n_test_per_class=20,
        noise_scale=0.6,
    ),
    training=replace(cfg.training, epochs=15, expert_epochs=80, hidden_dims=(32,)),
    expert=replace(cfg.expert, rho_grid=(1.0, 2.0, 4.0), frozen_grid=(0, 1)),
)
bundle = t.prepare_bundle(cfg)
ensemble = t.train_all(bundle, cfg)

tables = model_posterior_tables(ensemble, "test")

# round-trip the tables through the dump format, as an external model would
workdir = Path(tempfile.mkdtemp(prefix="tailens-demo-"))
loaded = {}
for name, probs in tables.items():
    path = workdir / f"{name}.csv"
    write_posterior_csv(path, np.arange(len(probs)), probs)
    loaded[name] = ingest_external_posteriors(path, bundle.class_count)
print(f"dumped and re-ingested {len(loaded)} posterior tables under {workdir}")

# full-width members carry no reject entry, so each joins with subset None
fused = fuse_soft_vote(
    [table.probabilities for table in loaded.values()], [None] * len(loaded), bundle.class_count
)
print(f"soft-voted ensemble rows normalize to {fused.sum(axis=1).mean():.6f}")

reports = take_one_out_ablation(
    {name: table.probabilities for name, table in loaded.items()},
    bundle.test.labels,
    ensemble.folds,
)
print("\ntake-one-out (four-fold accuracy %):")
print(f"  {'ensemble':<20} {'many':>6} {'medium':>7} {'few':>6} {'all':>6}")
for name, rep in reports.items():
    print(
        f"  {name:<20} {100 * rep.many:6.1f} {100 * rep.medium:7.1f} "
        f"{100 * rep.few:6.1f} {100 * rep.all:6.1f}"
    )
print(
    "\ntaking a member out shifts the balance: dropping the experts or the"
    "\nuniform finetune costs fewshot accuracy, while dropping the baseline"
    "\ntilts the vote toward the tail."
)
