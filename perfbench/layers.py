"""Per-layer metrics from the spans of one traced repetition.

Only spans inside the repetition's ``phase.total`` count, so the reads the
benchmark makes to check outputs stay out; ``dataset.generate_longtailed``
is the exception, taken from a traced run of the untimed input set-up.
``s`` is busy time summed over calls (worker threads add up), ``self_s`` is
busy time minus the part of it that child spans cover. A layer a workload
never reaches reports 0.

Names follow ``<module>.<function>[.<detail>].<stat>``; the list of names is
``BENCHMARK.json``'s ``per_layer``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

MB = 1e6
STRATEGY_FIT = {
    "select": "fusion.train_expert_selector",
    "stack": "fusion.train_stacker",
    "calibrate": "fusion.train_joint_calibration",
}
STRATEGY_APPLY = {
    "softvote": "fusion.fuse_soft_vote",
    "kl": "fusion.fuse_kl_min",
    "select": "fusion.fuse_by_selection",
    "stack": "fusion.fuse_by_stacking",
    "calibrate": "fusion.fuse_calibrated",
}
SAMPLERS = ("instance_balanced", "uniform_class", "reject_undersampled")
GRID_SUBSETS = ("manyshot", "mediumshot", "fewshot")
CLI_COMMANDS = (
    "gen-data", "train-baseline", "train-experts", "dump-posteriors",
    "train-fusion", "evaluate", "oracle", "ablate", "report",
)


class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s.name].append(i)
            if s.parent is not None:
                self.children[s.parent].append(i)

    def ancestors(self, i):
        p = self.spans[i].parent
        while p is not None:
            yield p
            p = self.spans[p].parent

    def restrict_to(self, root: int) -> "SpanIndex":
        """The spans at or below ``root``, re-indexed."""
        keep = [root]
        for i in keep:
            keep.extend(self.children[i])
        keep.sort()
        renumber = {old: new for new, old in enumerate(keep)}
        sub = []
        for old in keep:
            s = self.spans[old]
            copy = type(s)(s.name, s.start, renumber.get(s.parent))
            copy.end, copy.attrs = s.end, s.attrs
            sub.append(copy)
        return SpanIndex(sub)

    def of(self, name):
        return [self.spans[i] for i in self.by_name.get(name, ())]

    def calls(self, name) -> int:
        return len(self.by_name.get(name, ()))

    def seconds(self, name) -> float:
        return sum(s.seconds for s in self.of(name))

    def attr_sum(self, name, key) -> float:
        return sum(s.attrs[key] for s in self.of(name))

    def self_seconds(self, name) -> float:
        total = 0.0
        for i in self.by_name.get(name, ()):
            span = self.spans[i]
            covered, reach = 0.0, span.start
            for c in sorted(self.children[i], key=lambda c: self.spans[c].start):
                lo = max(self.spans[c].start, reach)
                hi = min(self.spans[c].end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += span.seconds - covered
        return total

    def percentile_us(self, name, q) -> float:
        durations = [s.seconds for s in self.of(name)]
        return float(np.percentile(durations, q)) * 1e6 if durations else 0.0

    def top_level_seconds(self, name, under: str) -> float:
        """Busy time of ``name`` spans below an ``under`` span with no other
        fusion span between them (so KL's internal soft-vote is not counted)."""
        total = 0.0
        for i in self.by_name.get(name, ()):
            for a in self.ancestors(i):
                if self.spans[a].name == under:
                    total += self.spans[i].seconds
                    break
                if self.spans[a].name.startswith("fusion."):
                    break
        return total


def per_layer_metrics(
    index: SpanIndex, setup: SpanIndex, rep, overhead_s: float
) -> dict[str, float]:
    """``index`` holds the traced repetition's timed phase, ``setup`` a traced
    run of the workload's input set-up, ``rep`` what the repetition returned."""
    m: dict[str, float] = {}

    for kind in SAMPLERS:
        name = f"dataset.draw_batch.{kind}"
        m[f"{name}.calls"] = index.calls(name)
        m[f"{name}.s"] = index.seconds(name)
        m[f"{name}.p50_us"] = index.percentile_us(name, 50)
        if kind != "uniform_class":  # too few calls for ten samples beyond p99
            m[f"{name}.p99_us"] = index.percentile_us(name, 99)
    reject = "dataset.draw_batch.reject_undersampled"
    rows = index.attr_sum(reject, "rows")
    m[f"{reject}.draws_per_row"] = index.attr_sum(reject, "drawn") / rows if rows else 0.0
    m["dataset.generate_longtailed.s"] = setup.seconds("dataset.generate_longtailed")
    m["dataset.load_bundle.calls"] = index.calls("dataset.load_bundle")
    m["dataset.load_bundle.s"] = index.seconds("dataset.load_bundle")
    m["dataset.load_bundle.mb"] = index.attr_sum("dataset.load_bundle", "bytes") / MB
    m["dataset.save_bundle.s"] = index.seconds("dataset.save_bundle")
    m["dataset.save_bundle.mb"] = index.attr_sum("dataset.save_bundle", "bytes") / MB

    name = "network.backward_gradients"
    m[f"{name}.calls"] = index.calls(name)
    m[f"{name}.s"] = index.seconds(name)
    m[f"{name}.p50_us"] = index.percentile_us(name, 50)
    m[f"{name}.p99_us"] = index.percentile_us(name, 99)
    m["network.dataset_loss.calls"] = index.calls("network.dataset_loss")
    m["network.dataset_loss.s"] = index.seconds("network.dataset_loss")
    m["network.dataset_loss.discarded_share"] = _discarded_share(index, rep.kept_traces)
    m["network.train_network.calls"] = index.calls("network.train_network")
    m["network.train_network.self_s"] = index.self_seconds("network.train_network")
    m["network.forward_logits.calls"] = index.calls("network.forward_logits")
    m["network.forward_logits.s"] = index.seconds("network.forward_logits")
    m["network.save_checkpoint.s"] = index.seconds("network.save_checkpoint")
    m["network.load_checkpoint.s"] = index.seconds("network.load_checkpoint")

    m["experts.train_baseline.s"] = index.seconds("experts.train_baseline")
    m["experts.finetune_uniform_classifier.s"] = index.seconds(
        "experts.finetune_uniform_classifier"
    )
    m["experts.train_expert.calls"] = index.calls("experts.train_expert")
    m["experts.train_expert.s"] = index.seconds("experts.train_expert")
    for subset in GRID_SUBSETS:
        name = f"experts.select_expert_hyperparams.{subset}"
        m[f"{name}.s"] = index.seconds(name)
    m["experts.expert_partial_posterior.calls"] = index.calls("experts.expert_partial_posterior")
    m["experts.expert_partial_posterior.s"] = index.seconds("experts.expert_partial_posterior")

    for strategy, apply_name in STRATEGY_APPLY.items():
        fit_name = STRATEGY_FIT.get(strategy)
        m[f"fusion.{strategy}.fit_s"] = (
            index.top_level_seconds(fit_name, "phase.fuse") if fit_name else 0.0
        )
        m[f"fusion.{strategy}.apply_s"] = index.top_level_seconds(apply_name, "phase.fuse")
        m[f"fusion.{strategy}.acc_all"] = rep.fusion_acc.get(strategy, (0.0, 0.0))[0]
    kl = index.of("fusion.fuse_kl_min")
    m["fusion.kl.steps"] = sum(s.attrs["steps"] for s in kl)
    m["fusion.kl.objective_mean"] = (
        sum(s.attrs["objective_mean"] for s in kl) / len(kl) if kl else 0.0
    )
    calib = index.of("fusion.train_joint_calibration")
    m["fusion.calibrate.objective_final"] = calib[-1].attrs["objective_final"] if calib else 0.0
    m["fusion.ingest_external_posteriors.s"] = index.seconds("fusion.ingest_external_posteriors")
    m["fusion.write_posterior_csv.s"] = index.seconds("fusion.write_posterior_csv")

    for name in ("fourfold_accuracy", "oracle_evaluate", "expert_confusion_matrix",
                 "msp_histogram", "take_one_out_ablation"):
        m[f"evaluation.{name}.s"] = index.seconds(f"evaluation.{name}")
    m["evaluation.oracle.acc_all"] = rep.oracle_acc

    for name in ("train_all", "train_fusion", "fused_posteriors"):
        m[f"pipeline.{name}.s"] = index.seconds(f"pipeline.{name}")

    m["config.load_config.calls"] = index.calls("config.load_config")
    m["config.load_config.s"] = index.seconds("config.load_config")
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = index.seconds(f"cli.{command}")
    m["cli.train-experts.parallel_efficiency"] = _parallel_efficiency(index)
    # Metric names start with a letter, so ``tailens._io`` reports as ``io``.
    m["io.atomic_write_bytes.calls"] = index.calls("_io.atomic_write_bytes")
    m["io.atomic_write_bytes.s"] = index.seconds("_io.atomic_write_bytes")
    m["io.atomic_write_bytes.mb"] = index.attr_sum("_io.atomic_write_bytes", "bytes") / MB

    m["trace.total_s"] = rep.total_s
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = len(index.spans)
    return m


def _discarded_share(index: SpanIndex, kept_traces) -> float:
    """Share of per-epoch full-dataset losses that land in a loss trace the
    workload throws away (every trace but those it keeps)."""
    losses = index.by_name.get("network.dataset_loss", ())
    discarded = 0
    for i in losses:
        owner = next(
            (a for a in index.ancestors(i) if index.spans[a].name == "network.train_network"),
            None,
        )
        if owner is None or index.spans[owner].attrs["trace"] not in kept_traces:
            discarded += 1
    return discarded / len(losses) if losses else 0.0


def _parallel_efficiency(index: SpanIndex) -> float:
    """Summed per-subset grid-search time over the wall time from the first
    task's start to the last one's end, inside ``tailens train-experts``."""
    tasks = [
        s
        for subset in GRID_SUBSETS
        for i in index.by_name.get(f"experts.select_expert_hyperparams.{subset}", ())
        if any(index.spans[a].name == "cli.train-experts" for a in index.ancestors(i))
        for s in [index.spans[i]]
    ]
    if not tasks:
        return 0.0
    wall = max(s.end for s in tasks) - min(s.start for s in tasks)
    return sum(s.seconds for s in tasks) / wall


# Unit of each per-layer metric, by its last name component.
_UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "fit_s": "s",
    "apply_s": "s",
    "total_s": "s",
    "overhead_s": "s",
    "p50_us": "us",
    "p99_us": "us",
    "mb": "MB",
    "draws_per_row": "ratio",
    "discarded_share": "ratio",
    "parallel_efficiency": "ratio",
    "acc_all": "ratio",
    "steps": "count",
    "spans": "count",
    "objective_mean": "nats",
    "objective_final": "nats",
}


def unit_of(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[-1]]
