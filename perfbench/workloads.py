"""The benchmark's two workloads.

Each workload derives its inputs from the seed in an untimed ``setup`` and
then runs timed repetitions with ``run``. A repetition times its phases
(train, fuse, analyze and, for the CLI, data and dump) once each as spans of
the tracer it is given, checks every output after the clock stops, and
returns a :class:`Rep`. ``total_s`` is the sum of the phase times.

* ``synth60``: one seed of the pinned synth-60 benchmark through
  ``train_all`` (the full grid), all five fusion strategies and every
  analysis. Training (the sampler and SGD hot path) and fusion (KL by far
  the largest part) each take about half of the time, so each of
  ``train_s`` and ``fuse_s`` is a long, steady figure for its own layer.
* ``cli-embed256``: the whole subcommand chain through ``tailens.cli.main`` on
  a 256-d CSV bundle (9 MB, read back by each of 15 commands). It crosses
  the file boundary (bundle parsing and atomic writes), the config loader
  and the training thread pool, with BLAS rather than Python overhead
  bounding the network layer, and it runs no KL fusion. Timed repetitions
  train on one thread, since a two-thread pool on a two-CPU share times the
  host's scheduler; the traced run trains on two, so that the pool's
  efficiency is measured.

Program functions are always reached through their module attribute
(``pipeline.train_all``, not a local binding), so the traced run's wrappers
see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tailens import cli, config, dataset, evaluation, experts, pipeline

ROW_SUM_TOL = 1e-9
HEADLINE = "calibrate"


class Failed(Exception):
    """A program operation raised; the repetition cannot go on."""


class Ops:
    """Operations attempted and failed: exceptions, CLI exit codes, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, what, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            raise Failed(what) from exc

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")


@dataclass
class Rep:
    """What one timed repetition measured and produced."""

    total_s: float
    train_s: float
    fuse_s: float
    rows: int
    fusion_acc: dict[str, tuple[float, float]]  # strategy -> (all, few)
    oracle_acc: float
    kept_traces: set  # loss traces the workload keeps; every other one is discarded

    @property
    def headline(self) -> tuple[float, float]:
        return self.fusion_acc[HEADLINE]


def sgd_rows(cfg, n_train: int) -> int:
    """Rows drawn by every SGD step of the ensemble: epochs x steps x batch,
    summed over the baseline, the uniform finetune and every grid point."""
    tr = cfg.training
    per_epoch = max(1, n_train // tr.batch_size) * tr.batch_size
    grid = len(cfg.expert.rho_grid) * len(cfg.expert.frozen_grid)
    return per_epoch * (
        tr.epochs
        + (tr.uniform_epochs or tr.epochs)
        + 3 * grid * (tr.expert_epochs or tr.epochs)
    )


def check_posterior(ops: Ops, q, n: int, class_count: int, what: str) -> None:
    q = np.asarray(q)
    ops.check(
        q.shape == (n, class_count)
        and bool(np.all(np.isfinite(q)))
        and float(np.max(np.abs(q.sum(axis=1) - 1.0))) <= ROW_SUM_TOL,
        f"{what}: posterior is not a finite {n}x{class_count} table with unit rows",
    )


def check_report(ops: Ops, report, n: int, what: str) -> None:
    ops.check(report.total == n, f"{what}: report total {report.total} != test size {n}")


def check_experts(ops: Ops, models) -> None:
    ops.check(
        len(models) == 3
        and all(e.params.dims[-1] == e.subset.size + 1 for e in models),
        "ensemble must hold three experts with head width subset size + 1",
    )


class Phases:
    """Times the phases of one repetition as ``phase.<name>`` spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}

    def run(self, name: str, body):
        with self.tracer.span(f"phase.{name}") as span:
            result = body()
        self.seconds[name] = span.seconds
        return result

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())


class Synth60:
    """``train_all`` on synth-60, then fusion and analysis in-process."""

    strategies = config.FUSION_STRATEGIES

    def setup(self, seed: int, workdir: Path):
        cfg = pipeline.synth60_config(seed)
        return cfg, pipeline.prepare_bundle(cfg)

    def run(self, state, tracer, ops: Ops, rep_dir: Path, timed: bool) -> Rep:
        cfg, bundle = state
        test = bundle.test
        phases = Phases(tracer)

        def train():
            return ops.call("train_all", pipeline.train_all, bundle, cfg, threads=1)

        def fuse():
            fused, reports = {}, {}
            for s in self.strategies:
                art = ops.call(f"train_fusion {s}", pipeline.train_fusion, ens, cfg, s)
                fused[s] = ops.call(
                    f"fused_posteriors {s}", pipeline.fused_posteriors, ens, art, cfg, "test"
                )
                reports[s] = ops.call(
                    f"fourfold {s}",
                    evaluation.fourfold_accuracy,
                    np.argmax(fused[s], axis=1),
                    test.labels,
                    ens.folds,
                )
            return fused, reports

        with tracer.span("phase.total"):
            ens = phases.run("train", train)
            fused, reports = phases.run("fuse", fuse)
            analysis = phases.run("analyze", lambda: self._analyze(ens, fused, ops))

        n, c = test.n, bundle.class_count
        check_experts(ops, ens.experts)
        for s in self.strategies:
            check_posterior(ops, fused[s], n, c, f"fusion {s}")
            check_report(ops, reports[s], n, f"fusion {s}")
        oracle, confusions, hists, tables, ablation = analysis
        check_report(ops, oracle, n, "oracle")
        for cm in confusions:
            ops.check(int(cm.row_counts.sum()) == n, "confusion matrix must count every test row")
        for h in hists:
            ops.check(h.size == n, "MSP histogram must count every test row")
        for name, table in tables.items():
            check_posterior(ops, table, n, c, f"member {name}")
        for name, rep in ablation.items():
            check_report(ops, rep, n, f"ablation {name}")
        return Rep(
            total_s=phases.total_s,
            train_s=phases.seconds["train"],
            fuse_s=phases.seconds["fuse"],
            rows=sgd_rows(cfg, bundle.train.n),
            fusion_acc={s: (r.all, r.few) for s, r in reports.items()},
            oracle_acc=oracle.all,
            kept_traces={tuple(ens.baseline_trace)},
        )

    def _analyze(self, ens, fused, ops: Ops):
        test = ens.bundle.test
        oracle = ops.call("oracle", evaluation.oracle_evaluate, ens.experts, test, ens.folds)
        partials = ens.partials("test")
        subsets = ens.subset_list()
        confusions = [
            ops.call(
                "confusion", evaluation.expert_confusion_matrix,
                partials, subsets, test.labels, ens.folds,
            ),
            ops.call(
                "confusion calibrate", evaluation.expert_confusion_matrix,
                partials, subsets, test.labels, ens.folds,
                fused_probabilities=fused[HEADLINE],
            ),
        ]
        hists = [
            ops.call(
                "msp", evaluation.msp_histogram, e, test.features,
                class_count=ens.bundle.class_count, population="test",
            )
            for e in ens.experts
        ]
        tables = ops.call("member tables", pipeline.model_posterior_tables, ens, "test")
        ablation = ops.call(
            "ablation", evaluation.take_one_out_ablation, tables, test.labels, ens.folds
        )
        return oracle, confusions, hists, tables, ablation


class CliEmbed256:
    """The subcommand chain in-process on a ``source = load`` CSV bundle."""

    data = dataset.SyntheticConfig(
        class_count=60, feature_dim=256, n_max=200, alpha=1.2,
        n_val_per_class=10, n_test_per_class=10,
        noise_scale=1.0,  # keeps calibrated accuracy near 0.96, below 1.0
    )
    strategies = ("select", "stack", "calibrate")
    members = ("baseline", "uniform", "experts")

    def setup(self, seed: int, workdir: Path):
        bundle = dataset.generate_longtailed(self.data, seed)
        manifest = dataset.save_bundle(bundle, workdir / "inputs")
        return seed, manifest.resolve(), bundle.train.n, bundle.test.n

    def _config_text(self, seed: int, manifest: Path, out_dir: Path) -> str:
        return (
            f"[dataset]\nsource = load\nmanifest = {manifest}\n\n"
            f"[training]\nlr0 = 0.2\nepochs = 20\nbatch_size = 128\nseed = {seed}\n"
            "hidden_dims = 64\nexpert_epochs = 20\n\n"
            "[expert]\nrho_grid = 2.0,8.0\nfrozen_grid = 0,1\n\n"
            "[fusion]\nstrategy = calibrate\n\n"
            f"[paths]\nout_dir = {out_dir}\n"
        )

    def run(self, state, tracer, ops: Ops, rep_dir: Path, timed: bool) -> Rep:
        seed, manifest, n_train, n_test = state
        out = (rep_dir / "out").resolve()
        ini = rep_dir / "run.ini"
        rep_dir.mkdir(parents=True, exist_ok=True)
        ini.write_text(self._config_text(seed, manifest, out), encoding="utf-8")
        cfg = config.parse_config(ini.read_text(encoding="utf-8"))
        dumps = [out / "dumps" / f"{m}_test.csv" for m in self.members]
        ckpt, reports = out / "checkpoints", out / "reports"
        phases = Phases(tracer)
        threads = "1" if timed else "2"

        def tailens(command, *rest, promises=()):
            with tracer.span(f"cli.{command}"):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = ops.call(command, cli.main, [command, str(ini), *rest])
            ops.check(code == 0, f"tailens {command} {' '.join(rest)} exited {code}")
            for path in promises:
                ops.check(path.is_file(), f"tailens {command} did not write {path.name}")

        def data():
            tailens("gen-data", promises=[
                out / "data" / f for f in ("train.csv", "val.csv", "test.csv", "manifest.json")])

        def train():
            tailens("train-baseline", promises=[
                ckpt / "baseline.ckpt", ckpt / "uniform.ckpt", ckpt / "train_traces.json"])
            tailens("train-experts", "--threads", threads, promises=[
                *(ckpt / f"expert_{n}.ckpt" for n in cli.EXPERT_NAMES),
                ckpt / "selection_tables.json"])

        def dump():
            for model, path in zip(self.members, dumps):
                tailens("dump-posteriors", "--model", model, "--split", "test", promises=[path])

        def fuse():
            for s in self.strategies:
                tailens("train-fusion", "--strategy", s, promises=[out / "fusion" / f"{s}.params"])
                tailens("evaluate", "--strategy", s, promises=[
                    reports / f"eval_{s}.json", reports / f"eval_{s}.txt"])

        def analyze():
            tailens("oracle", promises=[reports / "oracle.json", reports / "oracle.txt"])
            tailens("ablate", "--models", *map(str, dumps), promises=[reports / "ablation.json"])
            tailens("report", promises=[
                reports / "confusion_softvote.csv", reports / "confusion_calibrate.csv",
                *(reports / f"msp_{n}.csv" for n in cli.EXPERT_NAMES)])

        with tracer.span("phase.total"):
            phases.run("data", data)
            phases.run("train", train)
            phases.run("dump", dump)
            phases.run("fuse", fuse)
            phases.run("analyze", analyze)

        return Rep(
            total_s=phases.total_s,
            train_s=phases.seconds["train"],
            fuse_s=phases.seconds["fuse"],
            rows=sgd_rows(cfg, n_train),
            **ops.call("read back outputs", self._check_outputs, ops, out, dumps, n_test),
        )

    def _check_outputs(self, ops: Ops, out: Path, dumps, n: int) -> dict:
        """Read back what the chain wrote; returns the Rep fields it yields."""
        c = self.data.class_count
        reports = out / "reports"

        def report(name):
            payload = json.loads((reports / f"{name}.json").read_text(encoding="utf-8"))
            ops.check(payload["total"] == n, f"{name}: report total {payload['total']} != {n}")
            return payload

        fusion_acc = {}
        for s in self.strategies:
            payload = report(f"eval_{s}")
            fusion_acc[s] = (payload["all"], payload["few"])
        oracle = report("oracle")
        for name, payload in json.loads((reports / "ablation.json").read_text()).items():
            ops.check(payload["total"] == n, f"ablation {name}: report total != {n}")
        for path in dumps:
            table = np.loadtxt(path, delimiter=",", skiprows=1)
            ops.check(np.array_equal(table[:, 0], np.arange(n)), f"{path.name}: sample ids")
            check_posterior(ops, table[:, 1:], n, c, path.name)
        check_experts(ops, [
            experts.load_expert_checkpoint(out / "checkpoints" / f"expert_{name}.ckpt")
            for name in cli.EXPERT_NAMES
        ])
        traces = json.loads((out / "checkpoints" / "train_traces.json").read_text())
        return dict(
            fusion_acc=fusion_acc,
            oracle_acc=oracle["all"],
            kept_traces={tuple(traces["baseline"]), tuple(traces["uniform"])},
        )


WORKLOADS = {
    "synth60": Synth60(),
    "cli-embed256": CliEmbed256(),
}
