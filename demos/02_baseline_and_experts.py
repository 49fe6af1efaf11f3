"""Walkthrough: the imbalance problem and the oracle upper bound.

Trains the plain baseline on long-tailed data, then the three class-balanced
experts (baseline-initialized, reject class, undersampling), and compares
four-fold accuracy. The oracle routes each test sample to the expert that
owns its true class, which upper-bounds any automatic fusion and shows that
the fewshot deficit is a bias problem, not a data-information problem.
"""

import numpy as np

import tailens as t
from tailens.evaluation import fourfold_accuracy, oracle_evaluate
from tailens.network import forward_logits, softmax

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


def show(name, report):
    def fmt(v):
        return " n/a " if v is None else f"{100 * v:5.1f}"

    print(
        f"  {name:<22} many {fmt(report.many)}  medium {fmt(report.medium)}  "
        f"few {fmt(report.few)}  all {fmt(report.all)}"
    )


base_cfg = t.TrainConfig(lr0=0.2, epochs=15, batch_size=64, seed=1, hidden_dims=(32,))
baseline, trace = t.train_baseline(bundle, base_cfg)
print(f"baseline loss {trace[0]:.3f} -> {trace[-1]:.3f}")

preds = np.argmax(softmax(forward_logits(baseline, bundle.test.features)), axis=1)
print("\nfour-fold top-1 accuracy (%):")
show("baseline", fourfold_accuracy(preds, bundle.test.labels, folds))

# uniform class sampling finetune: freeze the backbone, refit the classifier
uniform, _ = t.finetune_uniform_classifier(baseline, bundle, base_cfg)
preds = np.argmax(softmax(forward_logits(uniform, bundle.test.features)), axis=1)
show("uniform finetune", fourfold_accuracy(preds, bundle.test.labels, folds))

# one expert per subset, hyperparameters picked on the validation split
expert_cfg = t.TrainConfig(lr0=0.2, epochs=80, batch_size=64, seed=2, hidden_dims=(32,))
experts = []
for subset in subsets:
    selection = t.select_expert_hyperparams(
        baseline, subset, bundle, rho_grid=(1.0, 2.0, 4.0), frozen_grid=(0, 1),
        config=expert_cfg,
    )
    expert = selection.expert
    experts.append(expert)
    best = max(p.val_accuracy for p in selection.table)
    print(
        f"{subset.expert_id.label:>10} expert: rho={expert.rho} "
        f"frozen_layers={expert.frozen_layers} (val accuracy {best:.3f})"
    )

show("experts (oracle)", oracle_evaluate(experts, bundle.test, folds))
print(
    "\nthe oracle's fewshot accuracy approaches its manyshot accuracy: with"
    "\nideal routing, the experts recover what the biased baseline loses."
)
