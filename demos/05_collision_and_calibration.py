"""Walkthrough: expert collision and what joint calibration does to it.

When experts' confidence scales disagree, the fused argmax credits the
wrong expert: a sample's winning class belongs to an expert other than the
one owning its true class. The expert confusion matrix makes this visible;
confidence histograms show the underlying maximum-softmax-probability
structure. Joint calibration aligns the experts' scales.
"""

from dataclasses import replace

import numpy as np

import tailens as t
from tailens.evaluation import expert_confusion_matrix, msp_histogram
from tailens.fusion import fuse_calibrated, fuse_soft_vote, train_joint_calibration

cfg = t.synth60_config(seed=3)
cfg = replace(cfg, dataset=replace(cfg.dataset, noise_scale=0.6))
bundle = t.prepare_bundle(cfg)
ensemble = t.train_all(bundle, cfg)
folds, subsets = ensemble.folds, ensemble.subset_list()
C = bundle.class_count

test_partials = ensemble.partials("test")
val_partials = ensemble.partials("val")

sv = fuse_soft_vote(test_partials, subsets, C)
calibration, _ = train_joint_calibration(
    [p.logits for p in val_partials], subsets, bundle.val.labels, C
)
cal = fuse_calibrated([p.logits for p in test_partials], calibration, subsets, C)


def show_matrix(title, conf):
    print(f"\n{title} (rows: true fold, columns: winning expert, %):")
    print("             many  medium     few")
    for fold in t.Fold:
        row = conf.matrix[int(fold)]
        print(f"  {fold.label:>10} {row[0]:6.1f} {row[1]:7.1f} {row[2]:7.1f}")
    print(f"  diagonal mass {conf.diagonal_mass():.1f} / 300")


show_matrix(
    "soft-voting",
    expert_confusion_matrix(test_partials, subsets, bundle.test.labels, folds, sv),
)
show_matrix(
    "joint calibration",
    expert_confusion_matrix(test_partials, subsets, bundle.test.labels, folds, cal),
)

# confidence structure: the manyshot expert on manyshot samples it gets
# right, versus the fewshot expert on those same samples
many_expert, few_expert = ensemble.experts[0], ensemble.experts[2]
local = many_expert.subset.columns(C)[bundle.test.labels]
mask = local < many_expert.subset.size  # the rest read the reject output
partial = t.expert_partial_posterior(many_expert, bundle.test.features[mask])
correct = np.argmax(partial.probabilities, axis=1) == local[mask]
population = bundle.test.features[mask][correct]

many_hist = msp_histogram(many_expert, population, class_count=C, population="correct manyshot")
few_hist = msp_histogram(few_expert, population, class_count=C, population="same samples")
print(
    f"\nconfidence on correctly-classified manyshot samples:"
    f"\n  manyshot expert mean MSP {many_hist.mean_confidence():.3f}"
    f"\n  fewshot expert mean MSP  {few_hist.mean_confidence():.3f}"
    f"\nthe gap is what keeps the vote from crediting the wrong expert."
)
