"""Walkthrough: the five posterior-fusion strategies side by side.

Each expert emits a partial posterior (its classes plus reject). Fusion
turns the three partials into one distribution over all classes:
soft-voting, KL minimization, expert selection, stacking, and joint
calibration. The learned strategies fit their parameters on the balanced
validation split only.
"""

import numpy as np

import tailens as t
from tailens.evaluation import fourfold_accuracy
from tailens.fusion import (
    fuse_by_selection,
    fuse_by_stacking,
    fuse_calibrated,
    fuse_kl_min,
    fuse_soft_vote,
    train_expert_selector,
    train_joint_calibration,
    train_stacker,
)

config = t.SyntheticConfig(
    class_count=24,
    feature_dim=8,
    n_max=200,
    alpha=1.4,
    n_val_per_class=10,
    n_test_per_class=20,
    noise_scale=0.6,
)
bundle = t.generate_longtailed(config, seed=7)
folds = t.assign_folds(bundle.train)
subsets = t.partition_subsets(folds, bundle.train)
C = bundle.class_count

baseline, _ = t.train_baseline(
    bundle, t.TrainConfig(lr0=0.2, epochs=15, batch_size=64, seed=1, hidden_dims=(32,))
)
expert_cfg = t.TrainConfig(lr0=0.2, epochs=80, batch_size=64, seed=2, hidden_dims=(32,))
experts = [
    t.train_expert(baseline, s, bundle, rho=2.0, frozen_layers=0, config=expert_cfg)[0]
    for s in subsets
]

val_partials = [t.expert_partial_posterior(e, bundle.val.features) for e in experts]
test_partials = [t.expert_partial_posterior(e, bundle.test.features) for e in experts]

# fit what needs fitting, on validation only
selector = train_expert_selector(val_partials, folds.fold_of_samples(bundle.val.labels))
stacker = train_stacker(val_partials, bundle.val.labels, C)
calibration, _ = train_joint_calibration(
    [p.logits for p in val_partials], subsets, bundle.val.labels, C
)
# each fit stops at a certificate, the penalized gradient's largest entry,
# and hands it over with its parameters
for name, model in (
    ("joint calibration", calibration), ("expert selector", selector), ("stacker", stacker)
):
    print(f"{name}: {model.steps} Newton steps, final gradient norm {model.gradient_norm:.1e}")

fused = {
    "soft-voting": fuse_soft_vote(test_partials, subsets, C),
    "kl minimization": fuse_kl_min(test_partials, subsets, C).probabilities,
    "expert selection": fuse_by_selection(test_partials, selector, subsets, C),
    "stacking": fuse_by_stacking(test_partials, stacker),
    "joint calibration": fuse_calibrated(
        [p.logits for p in test_partials], calibration, subsets, C
    ),
}

print("\nfour-fold top-1 accuracy (%) per fusion strategy:")
print(f"  {'strategy':<20} {'many':>6} {'medium':>7} {'few':>6} {'all':>6}")
for name, q in fused.items():
    rep = fourfold_accuracy(np.argmax(q, axis=1), bundle.test.labels, folds)
    print(
        f"  {name:<20} {100 * rep.many:6.1f} {100 * rep.medium:7.1f} "
        f"{100 * rep.few:6.1f} {100 * rep.all:6.1f}"
    )
