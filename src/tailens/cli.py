"""Command-line surface for the long-tailed ensemble pipeline.

Training and strategy dispatch live in :mod:`tailens.pipeline`; this module
parses arguments, maps artifacts to paths and errors to exit codes. One INI
config drives every subcommand; artifacts live under the config's
``paths.out_dir``. Outputs are written atomically (temp name, then rename)
and are byte-identical across reruns with the same config and inputs.
Exit codes: 0 success, 2 config or usage error, 3 data error, 4 numeric
divergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._dumps import ingest_external_posteriors, write_partial_posterior_csv, write_posterior_csv
from ._io import DataError, atomic_write_json, atomic_write_text
from .config import ConfigError, FUSION_STRATEGIES, RunConfig, load_config
from .dataset import EmptyFoldError, Fold, SubsetSpec, copy_bundle, partition_subsets, save_bundle
from .evaluation import (
    expert_confusion_matrix,
    fourfold_accuracy,
    msp_histogram,
    oracle_evaluate,
    take_one_out_ablation,
)
from .experts import (
    ExpertModel,
    expert_partial_posterior,
    load_baseline_checkpoint,
    load_expert_checkpoint,
    save_baseline_checkpoint,
    save_expert_checkpoint,
)
from .network import DivergenceError, NetworkParams
from .pipeline import (
    FUSIONS,
    ExpertEnsemble,
    FittedFusion,
    frequency_folds,
    full_posterior_table,
    fused_posteriors,
    load_fusion,
    prepare_bundle,
    save_fusion,
    select_experts,
    train_baselines,
    train_fusion,
)

EXPERT_NAMES = tuple(fold.label for fold in Fold)
MODEL_NAMES = ("baseline", "uniform", "experts") + EXPERT_NAMES


def _out_dir(cfg: RunConfig) -> Path:
    return Path(cfg.paths.out_dir)


def _ckpt_path(cfg: RunConfig, name: str) -> Path:
    return _out_dir(cfg) / "checkpoints" / f"{name}.ckpt"


def _fusion_path(cfg: RunConfig, strategy: str) -> Path:
    return _out_dir(cfg) / "fusion" / f"{strategy}.params"


def _reports_dir(cfg: RunConfig) -> Path:
    return _out_dir(cfg) / "reports"


def _require_file(path: Path, hint: str) -> Path:
    if not path.is_file():
        raise FileNotFoundError(f"{path} is missing; run `{hint}` first")
    return path


def _load_baseline(cfg: RunConfig, name: str) -> NetworkParams:
    """The ``baseline`` or ``uniform`` checkpoint of ``train-baseline``."""
    return load_baseline_checkpoint(_require_file(_ckpt_path(cfg, name), "tailens train-baseline"))


def _load_expert(cfg: RunConfig, bundle, subset: SubsetSpec) -> ExpertModel:
    """The checkpoint of the expert for ``subset``, one of the config's
    folds, checked against the bundle it will read: its subset classes lie
    in [0, class_count) (``SubsetSpec`` already rejects repeated and
    negative classes), its input width is the bundle's, and its subset is
    ``subset``."""
    name = subset.expert_id.label
    path = _require_file(_ckpt_path(cfg, f"expert_{name}"), "tailens train-experts")
    expert = load_expert_checkpoint(path)
    top = int(expert.subset.classes.max())
    if top >= bundle.class_count:
        raise DataError(
            f"{path}: subset class {top} is outside the bundle's {bundle.class_count} classes"
        )
    if expert.params.dims[0] != bundle.feature_dim:
        raise DataError(
            f"{path}: expert reads {expert.params.dims[0]} features, "
            f"the bundle has {bundle.feature_dim}"
        )
    if expert.subset.expert_id != subset.expert_id or not np.array_equal(
        expert.subset.classes, subset.classes
    ):
        raise DataError(
            f"{path}: subset is not the config's {name} fold; re-run `tailens train-experts`"
        )
    return expert


def _load_ensemble(cfg: RunConfig, bundle=None) -> ExpertEnsemble:
    """The three expert checkpoints over ``bundle`` (by default the
    config's), each checked by :func:`_load_expert`."""
    bundle = prepare_bundle(cfg) if bundle is None else bundle
    folds = frequency_folds(bundle, cfg)
    subsets = partition_subsets(folds, bundle.train)
    return ExpertEnsemble(bundle, folds, tuple(_load_expert(cfg, bundle, s) for s in subsets))


def _load_fusion(cfg: RunConfig, strategy: str, ensemble: ExpertEnsemble) -> FittedFusion:
    """The strategy with the parameters ``train-fusion`` saved for it."""
    if FUSIONS[strategy].fit is None:
        return FittedFusion(strategy)
    path = _require_file(_fusion_path(cfg, strategy), f"tailens train-fusion --strategy {strategy}")
    return load_fusion(path, strategy, ensemble)


def cmd_gen_data(cfg: RunConfig, args) -> None:
    bundle = prepare_bundle(cfg)
    data = _out_dir(cfg) / "data"
    if cfg.dataset.source == "load":
        # the input files were checked by loading them; copy their bytes
        manifest = copy_bundle(cfg.dataset.manifest, bundle, data)
    else:
        manifest = save_bundle(bundle, data)
    print(f"wrote bundle to {manifest.parent}")


def cmd_train_baseline(cfg: RunConfig, args) -> None:
    (baseline, trace), (uniform, uniform_trace) = train_baselines(prepare_bundle(cfg), cfg)
    save_baseline_checkpoint(_ckpt_path(cfg, "baseline"), baseline)
    save_baseline_checkpoint(_ckpt_path(cfg, "uniform"), uniform)
    atomic_write_json(
        _out_dir(cfg) / "checkpoints" / "train_traces.json",
        {"baseline": list(trace), "uniform": list(uniform_trace)},
    )
    print(f"baseline final loss {trace[-1]:.6f}")


def cmd_train_experts(cfg: RunConfig, args) -> None:
    bundle = prepare_bundle(cfg)
    baseline = _load_baseline(cfg, "baseline")
    tables = []
    for sel in select_experts(baseline, bundle, cfg, args.threads):
        expert = sel.expert
        name = expert.subset.expert_id.label
        save_expert_checkpoint(_ckpt_path(cfg, f"expert_{name}"), expert)
        tables.append(
            {
                "expert": name,
                "rho": expert.rho,
                "frozen_layers": expert.frozen_layers,
                "table": [asdict(p) for p in sel.table],
            }
        )
    atomic_write_json(_out_dir(cfg) / "checkpoints" / "selection_tables.json", tables)
    chosen = ", ".join(f"{t['expert']}: rho={t['rho']}" for t in tables)
    print(f"experts trained ({chosen})")


def cmd_dump_posteriors(cfg: RunConfig, args) -> None:
    bundle = prepare_bundle(cfg)
    split = getattr(bundle, args.split)
    ids = np.arange(split.n)
    out = (
        Path(args.out)
        if args.out
        else _out_dir(cfg) / "dumps" / f"{args.model}_{args.split}.csv"
    )

    if args.model in ("baseline", "uniform"):
        model = _load_baseline(cfg, args.model)
        write_posterior_csv(out, ids, full_posterior_table(model, split.features))
    elif args.model == "experts":
        ensemble = _load_ensemble(cfg, bundle)
        fused = fused_posteriors(ensemble, FittedFusion("softvote"), cfg, args.split)
        write_posterior_csv(out, ids, fused)
    else:
        subsets = partition_subsets(frequency_folds(bundle, cfg), bundle.train)
        expert = _load_expert(cfg, bundle, subsets[EXPERT_NAMES.index(args.model)])
        partial = expert_partial_posterior(expert, split.features)
        write_partial_posterior_csv(out, ids, partial, expert.subset, rho=expert.rho)
    print(f"wrote {out}")


def cmd_train_fusion(cfg: RunConfig, args) -> None:
    path = _fusion_path(cfg, args.strategy)
    if FUSIONS[args.strategy].fit is None:
        atomic_write_json(path, {"strategy": args.strategy, "parameters": None})
        print(f"{args.strategy} needs no learned parameters; wrote marker {path}")
        return
    save_fusion(path, train_fusion(_load_ensemble(cfg), cfg, args.strategy))
    print(f"wrote {path}")


def _write_report(cfg: RunConfig, name: str, report) -> None:
    """Write ``report`` as ``reports/<name>.json`` and ``.txt``; print it."""
    base = _reports_dir(cfg) / name
    atomic_write_json(base.with_suffix(".json"), report.to_json_dict())
    atomic_write_text(base.with_suffix(".txt"), report.to_text())
    print(report.to_text(), end="")


def cmd_evaluate(cfg: RunConfig, args) -> None:
    ensemble = _load_ensemble(cfg)
    fused = fused_posteriors(ensemble, _load_fusion(cfg, args.strategy, ensemble), cfg)
    report = fourfold_accuracy(
        np.argmax(fused, axis=1), ensemble.bundle.test.labels, ensemble.folds
    )
    _write_report(cfg, f"eval_{args.strategy}", report)


def cmd_oracle(cfg: RunConfig, args) -> None:
    ensemble = _load_ensemble(cfg)
    report = oracle_evaluate(ensemble.experts, ensemble.bundle.test, ensemble.folds)
    _write_report(cfg, "oracle", report)


def cmd_ablate(cfg: RunConfig, args) -> None:
    bundle = prepare_bundle(cfg)
    folds = frequency_folds(bundle, cfg)
    n = bundle.test.n
    tables, paths = {}, {}
    for path in args.models:
        table = ingest_external_posteriors(path, bundle.class_count)
        if not np.array_equal(table.sample_ids, np.arange(n)):
            raise DataError(f"{path}: sample ids do not cover the test split")
        if table.name in paths:
            raise DataError(
                f"{paths[table.name]} and {path} are both model {table.name!r}; "
                "ablate names each dump by its file stem"
            )
        tables[table.name], paths[table.name] = table.probabilities, path
    reports = take_one_out_ablation(tables, bundle.test.labels, folds)
    payload = {name: rep.to_json_dict() for name, rep in reports.items()}
    out = _reports_dir(cfg) / "ablation.json"
    atomic_write_json(out, payload)
    for name, rep in reports.items():
        line = ", ".join(
            f"{k}={'n/a' if v is None else f'{100 * v:.1f}'}"
            for k, v in (
                ("many", rep.many),
                ("medium", rep.medium),
                ("few", rep.few),
                ("all", rep.all),
            )
        )
        print(f"{name}: {line}")


def cmd_report(cfg: RunConfig, args) -> None:
    ensemble = _load_ensemble(cfg)
    bundle, folds = ensemble.bundle, ensemble.folds
    partials = ensemble.partials("test")
    subsets = ensemble.subset_list()
    reports = _reports_dir(cfg)

    confusion = expert_confusion_matrix(partials, subsets, bundle.test.labels, folds)
    atomic_write_text(reports / "confusion_softvote.csv", confusion.to_csv())
    if _fusion_path(cfg, "calibrate").is_file():
        fused = fused_posteriors(ensemble, _load_fusion(cfg, "calibrate", ensemble), cfg)
        calibrated = expert_confusion_matrix(
            partials, subsets, bundle.test.labels, folds, fused_probabilities=fused
        )
        atomic_write_text(reports / "confusion_calibrate.csv", calibrated.to_csv())

    for expert in ensemble.experts:
        hist = msp_histogram(
            expert,
            bundle.test.features,
            class_count=bundle.class_count,
            population="test",
        )
        name = expert.subset.expert_id.label
        atomic_write_text(reports / f"msp_{name}.csv", hist.to_csv())
    print(f"wrote analysis CSVs to {reports}")


def positive_int(text: str) -> int:
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailens",
        description="Class-balanced expert ensembles for long-tailed classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="run configuration (INI)")
        p.set_defaults(fn=fn)
        return p

    add("gen-data", cmd_gen_data, "write bundle CSVs and manifest")
    add("train-baseline", cmd_train_baseline, "train baseline and uniform finetune")
    p = add("train-experts", cmd_train_experts, "grid-search and train the three experts")
    p.add_argument("--threads", type=positive_int, default=1, help="worker threads (>= 1)")

    p = add("dump-posteriors", cmd_dump_posteriors, "write a posterior dump CSV")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--split", default="test", choices=("val", "test"))
    p.add_argument("--out", default=None)

    p = add("train-fusion", cmd_train_fusion, "fit fusion parameters on validation")
    p.add_argument("--strategy", required=True, choices=FUSION_STRATEGIES)

    p = add("evaluate", cmd_evaluate, "four-fold accuracy of a fusion strategy")
    p.add_argument("--strategy", required=True, choices=FUSION_STRATEGIES)

    add("oracle", cmd_oracle, "upper bound with ground-truth expert routing")

    p = add("ablate", cmd_ablate, "take-one-out table over posterior dumps")
    p.add_argument("--models", nargs="+", required=True)

    add("report", cmd_report, "expert confusion matrix and MSP histograms")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "ablate" and len(args.models) < 2:
        print("error: usage: ablate needs at least two posterior dumps", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
        args.fn(cfg, args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: divergence: {exc}", file=sys.stderr)
        return 4
    except (DataError, EmptyFoldError, OSError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
