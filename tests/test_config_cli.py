import json
import re
import shutil
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from tailens import DataError
from tailens.cli import main
from tailens.config import (
    FUSION_STRATEGIES,
    ConfigError,
    load_config,
    parse_config,
    serialize_config,
)
from tailens.dataset import DatasetBundle, EmbeddingDataset
from tailens.evaluation import fourfold_accuracy
from tailens._newton import CERTIFICATE_TOL
from tailens import network, pipeline
from tailens.experts import (
    expert_partial_posterior,
    load_baseline_checkpoint,
    load_expert_checkpoint,
    save_expert_checkpoint,
)
from tailens.pipeline import (
    FUSIONS,
    ExpertEnsemble,
    fused_posteriors,
    load_fusion,
    prepare_bundle,
    train_all,
    train_fusion,
)

from conftest import (
    run_cli_pipeline,
    snapshot_tree,
    tiny_run_config,
    write_config_file,
)


REMOVED_FUSION_KEYS = (
    "kl_steps",
    "kl_tol",
    "calibration_steps",
    "calibration_lr",
    "meta_epochs",
    "meta_lr0",
    "meta_batch_size",
)


def write_config(tmp_path: Path, out_dir: str, seed: int = 0) -> Path:
    return write_config_file(tmp_path, tiny_run_config(out_dir, seed))


def config_with(tmp_path: Path, section: str, key: str, raw: str) -> str:
    """A minimal INI text with ``section.key = raw`` set."""
    sections = {"training": {"seed": "0"}, "paths": {"out_dir": str(tmp_path / "out")}}
    sections.setdefault(section, {})[key] = raw
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        for name, items in sections.items()
    )


class TestConfigRoundTrip:
    def test_parse_serialize_parse_is_identity(self, tmp_path):
        cfg = tiny_run_config(str(tmp_path / "out"))
        text = serialize_config(cfg)
        parsed = parse_config(text)
        assert parsed == cfg
        assert parse_config(serialize_config(parsed)) == parsed

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[training]\nseed = 0\nturbo = yes\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config sections"):
            parse_config("[training]\nseed = 0\n[magic]\nx = 1\n")

    def test_seed_is_mandatory(self):
        with pytest.raises(ConfigError, match="training.seed"):
            parse_config("[dataset]\nclass_count = 10\n")

    def test_empty_grid_rejected(self):
        text = "[training]\nseed = 0\n[expert]\nrho_grid = \n"
        with pytest.raises(ConfigError, match="expert: rho_grid must be nonempty"):
            parse_config(text)

    @pytest.mark.parametrize(
        "key, raw, value",
        [("rho_grid", "2.0,2.0", "2.0"), ("rho_grid", "1,2,2.0", "2.0"), ("frozen_grid", "0,0", "0")],
    )
    def test_repeated_grid_value_is_config_error(self, tmp_path, capsys, key, raw, value):
        # a repeat would train a bitwise-identical expert twice
        text = config_with(tmp_path, "expert", key, raw)
        message = f"expert: {key} repeats the value {value}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert run_cli("train-experts", path) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"

    def test_bad_strategy_rejected(self):
        text = "[training]\nseed = 0\n[fusion]\nstrategy = psychic\n"
        with pytest.raises(ConfigError, match="strategy"):
            parse_config(text)

    @pytest.mark.parametrize("key", REMOVED_FUSION_KEYS)
    def test_fusion_solver_keys_are_unknown(self, key):
        # the fusion solvers and meta-models run at their functions' defaults
        with pytest.raises(ConfigError, match=f"unknown key fusion.{key}"):
            parse_config(f"[training]\nseed = 0\n[fusion]\n{key} = 1\n")

    @pytest.mark.parametrize(
        "section, key, raw",
        [
            ("dataset", "class_count", "6.5"),
            ("training", "lr0", "fast"),
            ("training", "hidden_dims", "64,x"),
            ("expert", "rho_grid", "1.0,x"),
        ],
        ids=["int", "float", "int-tuple", "float-tuple"],
    )
    def test_malformed_value_is_config_error(self, tmp_path, capsys, section, key, raw):
        text = config_with(tmp_path, section, key, raw)
        message = f"could not parse {section}.{key} = {raw!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert run_cli("oracle", path) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"

    @pytest.mark.parametrize(
        "section, key, raw, message",
        [
            ("dataset", "class_count", "2", "dataset: need at least 3 classes"),
            ("dataset", "noise_scale", "0", "dataset: noise_scale must be finite and positive"),
            ("training", "weight_decay", "-1", "training: weight_decay must be finite and >= 0, got -1.0"),
            ("training", "hidden_dims", "0", "training: every width in hidden_dims must be >= 1"),
        ],
        ids=["two-classes", "no-noise", "negative-decay", "zero-width"],
    )
    def test_value_the_library_rejects_is_config_error(
        self, tmp_path, capsys, section, key, raw, message
    ):
        text = config_with(tmp_path, section, key, raw)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert run_cli("train-baseline", path) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"

    @pytest.mark.parametrize(
        "section, key, raw, message",
        [
            ("expert", "rho_grid", "inf", "expert: undersampling ratio must be finite and >= 1, got inf"),
            ("expert", "rho_grid", "nan", "expert: undersampling ratio must be finite and >= 1, got nan"),
            ("training", "lr0", "nan", "training: lr0 must be finite and positive, got nan"),
            ("training", "lr0", "inf", "training: lr0 must be finite and positive, got inf"),
            ("training", "weight_decay", "nan", "training: weight_decay must be finite and >= 0, got nan"),
            ("training", "weight_decay", "inf", "training: weight_decay must be finite and >= 0, got inf"),
            ("dataset", "alpha", "nan", "dataset: n_max must be >= 1 and alpha finite and > 0"),
            ("dataset", "alpha", "inf", "dataset: n_max must be >= 1 and alpha finite and > 0"),
            ("dataset", "noise_scale", "inf", "dataset: noise_scale must be finite and positive"),
            ("training", "seed", "-1", "training: seed must be >= 0, got -1"),
        ],
        ids=[
            "inf-rho", "nan-rho", "nan-lr0", "inf-lr0", "nan-decay",
            "inf-decay", "nan-alpha", "inf-alpha", "inf-noise", "negative-seed",
        ],
    )
    def test_non_finite_or_negative_seed_is_config_error(
        self, tmp_path, capsys, section, key, raw, message
    ):
        # each of these once got past the config and ended in a traceback,
        # a divergence or an empty fold; the library types now reject them
        text = config_with(tmp_path, section, key, raw)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert run_cli("gen-data", path) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "hidden, grid, bad",
        [("", "0,1", 1), ("64", "0,2", 2), ("64,32", "3", 3)],
        ids=["no-hidden-layer", "one-hidden-layer", "two-hidden-layers"],
    )
    def test_frozen_grid_may_not_freeze_the_expert_head(
        self, tmp_path, capsys, hidden, grid, bad
    ):
        # an expert has len(hidden_dims) backbone layers under its new head;
        # freezing more trains nothing
        out = tmp_path / "out"
        text = (
            f"[training]\nseed = 0\nhidden_dims = {hidden}\n"
            f"[expert]\nfrozen_grid = {grid}\n[paths]\nout_dir = {out}\n"
        )
        message = (
            f"expert: frozen_grid value {bad} is outside [0, {bad - 1}], "
            f"the backbone depth under the expert's new head"
        )
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert run_cli("train-experts", path) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"
        head_only = text.replace(f"frozen_grid = {grid}", f"frozen_grid = {bad - 1}")
        assert parse_config(head_only).expert.frozen_grid == (bad - 1,)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_stage_epochs_inherit_when_zero(self):
        from tailens.pipeline import train_config_from

        training = tiny_run_config("x").training  # epochs=8, expert_epochs=12
        assert train_config_from(training, seed=0).epochs == 8
        assert train_config_from(training, seed=0, stage="expert").epochs == 12
        assert train_config_from(training, seed=0, stage="uniform").epochs == 8


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


run_pipeline = run_cli_pipeline
snapshot = snapshot_tree


class TestCliPipeline:
    def test_full_pipeline_and_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, str(out))
        run_pipeline(config)

        oracle = json.loads((out / "reports" / "oracle.json").read_text())
        assert set(oracle) >= {"many", "medium", "few", "all"}
        for key in ("many", "medium", "few", "all"):
            assert oracle[key] is None or 0.0 <= oracle[key] <= 1.0

        ablate_code = run_cli(
            "ablate",
            config,
            "--models",
            out / "dumps" / "baseline_test.csv",
            out / "dumps" / "uniform_test.csv",
            out / "dumps" / "experts_test.csv",
        )
        assert ablate_code == 0
        ablation = json.loads((out / "reports" / "ablation.json").read_text())
        assert len(ablation) == 4

        assert (out / "reports" / "confusion_softvote.csv").is_file()
        assert (out / "reports" / "confusion_calibrate.csv").is_file()
        assert (out / "reports" / "msp_fewshot.csv").is_file()
        assert (out / "data" / "manifest.json").is_file()

        sidecar = json.loads((out / "dumps" / "fewshot_test.json").read_text())
        assert sidecar["expert"] == "fewshot"
        assert isinstance(sidecar["classes"], list)

    def test_reruns_are_byte_identical_and_thread_independent(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_c = tmp_path / "c"
        run_pipeline(write_config(tmp_path / "ca", str(out_a)))
        run_pipeline(write_config(tmp_path / "cb", str(out_b)))
        run_pipeline(write_config(tmp_path / "cc", str(out_c)), threads=3)

        snap_a, snap_b, snap_c = snapshot(out_a), snapshot(out_b), snapshot(out_c)
        assert snap_a.keys() == snap_b.keys() == snap_c.keys()
        for name in snap_a:
            assert snap_a[name] == snap_b[name], f"{name} differs between reruns"
            assert snap_a[name] == snap_c[name], f"{name} differs across threads"

    def test_subcommands_do_not_mutate_inputs(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, str(out))
        before = config.read_bytes()
        assert run_cli("gen-data", config) == 0
        assert run_cli("train-baseline", config) == 0
        data_before = snapshot(out / "data")
        assert run_cli("train-experts", config) == 0
        assert run_cli("evaluate", config, "--strategy", "softvote") == 0
        assert config.read_bytes() == before
        assert snapshot(out / "data") == data_before

    def test_changing_seed_changes_results(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out, seed in ((out_a, 0), (out_b, 7)):
            config = write_config(tmp_path / f"c{seed}", str(out), seed=seed)
            assert run_cli("gen-data", config) == 0
        a = (out_a / "data" / "train.csv").read_bytes()
        b = (out_b / "data" / "train.csv").read_bytes()
        assert a != b

    def test_ablate_reads_an_out_of_order_dump_as_its_sorted_rows(self, tmp_path):
        from tailens._dumps import write_posterior_csv

        out = tmp_path / "out"
        config = write_config(tmp_path, str(out))
        assert run_cli("gen-data", config) == 0
        bundle = prepare_bundle(load_config(config))
        shuffled = np.random.default_rng(5).permutation(bundle.test.n)
        ablations = []
        for order in (np.arange(bundle.test.n), shuffled):
            models = []
            for seed, name in enumerate(("first", "second")):
                probs = np.random.default_rng(seed).dirichlet(
                    np.ones(bundle.class_count), size=bundle.test.n
                )
                # the same rows under the same names, written in id order
                # and then shuffled
                models.append(tmp_path / f"{len(ablations)}" / f"{name}.csv")
                write_posterior_csv(models[-1], order, probs[order])
            assert run_cli("ablate", config, "--models", *models) == 0
            ablations.append((out / "reports" / "ablation.json").read_bytes())
        assert ablations[0] == ablations[1]


def _bitwise_fields(fit) -> dict:
    """A fitted fusion's fields with every array and float as its bytes,
    so that ``==`` compares them bitwise."""

    def raw(value):
        if isinstance(value, network.NetworkParams):
            return [raw(a) for layer in value.layers for a in layer]
        if isinstance(value, tuple):
            return [raw(v) for v in value]
        if isinstance(value, (np.ndarray, float)):
            return (np.shape(value), np.asarray(value, dtype=np.float64).tobytes())
        return value

    return {f.name: raw(getattr(fit, f.name)) for f in fields(fit)}


@pytest.fixture(scope="module")
def cli_and_library_runs(tmp_path_factory):
    """The same tiny config through every CLI subcommand and through
    ``train_all``."""
    tmp = tmp_path_factory.mktemp("equivalence")
    cfg = tiny_run_config(str(tmp / "out"))
    run_pipeline(write_config_file(tmp, cfg))
    return cfg, tmp / "out", train_all(prepare_bundle(cfg), cfg)


def test_train_all_and_every_fusion_run_without_a_warning(tmp_path):
    # every warning is an error here, so a path that warns and carries on in
    # training or in any fusion's fit or apply fails this test
    cfg = tiny_run_config(str(tmp_path / "out"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = train_all(prepare_bundle(cfg), cfg)
        for strategy in FUSION_STRATEGIES:
            fused = fused_posteriors(ens, train_fusion(ens, cfg, strategy), cfg)
            assert fused.shape == (len(ens.bundle.test.labels), ens.bundle.class_count)


class TestCliMatchesPipeline:
    @pytest.mark.parametrize("strategy", FUSION_STRATEGIES)
    def test_evaluate_report_matches_library_fusion(self, cli_and_library_runs, strategy):
        cfg, out, ens = cli_and_library_runs
        fused = fused_posteriors(ens, train_fusion(ens, cfg, strategy), cfg)
        expected = fourfold_accuracy(
            np.argmax(fused, axis=1), ens.bundle.test.labels, ens.folds
        ).to_json_dict()
        written = json.loads((out / "reports" / f"eval_{strategy}.json").read_text())
        assert written == expected

    @pytest.mark.parametrize("strategy", ["select", "stack", "calibrate"])
    def test_selector_certificate_round_trips(self, cli_and_library_runs, strategy):
        # every fitted fusion reads back bitwise, the certificate of its fit included
        cfg, out, ens = cli_and_library_runs
        fitted = train_fusion(ens, cfg, strategy)
        loaded = load_fusion(out / "fusion" / f"{strategy}.params", strategy, ens)
        assert loaded.strategy == strategy
        assert type(loaded.params) is type(fitted.params)
        assert _bitwise_fields(loaded.params) == _bitwise_fields(fitted.params)
        assert type(loaded.params.steps) is int and loaded.params.steps > 0
        assert loaded.params.gradient_norm <= CERTIFICATE_TOL

    def test_fusion_draws_no_random_numbers(self, cli_and_library_runs, monkeypatch):
        cfg, _, ens = cli_and_library_runs

        def no_generator(*args, **kwargs):
            raise AssertionError("fusion asked for a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        for strategy in FUSION_STRATEGIES:
            fused_posteriors(ens, train_fusion(ens, cfg, strategy), cfg)
        first, second = (train_fusion(ens, cfg, "stack").params for _ in range(2))
        assert (first.steps, first.gradient_norm) == (second.steps, second.gradient_norm)
        for a, b in zip(first.params.layers[0], second.params.layers[0]):
            assert a.tobytes() == b.tobytes()

    def test_selection_tables_match_library_selections(self, cli_and_library_runs):
        _, out, ens = cli_and_library_runs
        tables = json.loads((out / "checkpoints" / "selection_tables.json").read_text())
        assert [(t["rho"], t["frozen_layers"]) for t in tables] == [
            (sel.expert.rho, sel.expert.frozen_layers) for sel in ens.selections
        ]


    def test_library_uniform_is_the_cli_uniform_without_its_trace(
        self, cli_and_library_runs, monkeypatch
    ):
        # no model computes a full-dataset loss: every trace, the uniform
        # one that train_all does not keep included, is one batch-mean loss
        # per epoch
        cfg, out, ens = cli_and_library_runs
        uniform = load_baseline_checkpoint(out / "checkpoints" / "uniform.ckpt")
        for (wa, ba), (wb, bb) in zip(uniform.layers, ens.uniform.layers):
            assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()
        traces = json.loads((out / "checkpoints" / "train_traces.json").read_text())
        assert len(traces["uniform"]) == cfg.training.epochs

        calls = []
        dataset_loss = network.dataset_loss

        def counting(params, dataset):
            calls.append(params.dims[-1])
            return dataset_loss(params, dataset)

        monkeypatch.setattr(network, "dataset_loss", counting)
        again = train_all(prepare_bundle(cfg), cfg)
        assert calls == []
        assert len(traces["baseline"]) == cfg.training.epochs
        assert list(again.baseline_trace) == traces["baseline"]
        for (wa, ba), (wb, bb) in zip(again.uniform.layers, ens.uniform.layers):
            assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()


class TestEnsemblePartials:
    def test_each_split_is_computed_once_and_fusion_is_unchanged(
        self, cli_and_library_runs, monkeypatch
    ):
        cfg, _, trained = cli_and_library_runs
        ens = ExpertEnsemble(trained.bundle, trained.folds, trained.experts)
        calls = []

        def counting(expert, features):
            calls.append(expert.subset.expert_id)
            return expert_partial_posterior(expert, features)

        monkeypatch.setattr(pipeline, "expert_partial_posterior", counting)
        fused = {
            s: fused_posteriors(ens, train_fusion(ens, cfg, s), cfg)
            for s in FUSION_STRATEGIES
        }
        assert len(calls) == 2 * len(ens.experts)  # val and test, once each

        def fresh(split):
            features = getattr(ens.bundle, split).features
            return [expert_partial_posterior(e, features) for e in ens.experts]

        for s, probs in fused.items():
            record = FUSIONS[s]
            params = None if record.fit is None else train_fusion(ens, cfg, s).params
            expected = record.apply(
                fresh("test"), ens.subset_list(), ens.bundle.class_count, params
            )
            assert probs.tobytes() == expected.tobytes(), s
        assert len(calls) == 2 * len(ens.experts)

    def test_shared_partials_are_read_only(self, cli_and_library_runs):
        _, _, trained = cli_and_library_runs
        ens = ExpertEnsemble(trained.bundle, trained.folds, trained.experts)
        first = ens.partials("val")
        first.clear()
        again = ens.partials("val")
        assert len(again) == len(ens.experts)
        for p in again:
            with pytest.raises(ValueError):
                p.probabilities[0, 0] = 0.0
            with pytest.raises(ValueError):
                p.logits += 1.0


class TestCliErrors:
    def test_missing_config_is_config_error(self, tmp_path):
        assert run_cli("oracle", tmp_path / "nope.ini") == 2

    def test_malformed_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[training]\nseed = 0\n[fusion]\nstrategy = psychic\n")
        assert run_cli("oracle", path) == 2

    def test_removed_fusion_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "old.ini"
        path.write_text(
            f"[training]\nseed = 0\n[fusion]\nkl_steps = 300\n[paths]\nout_dir = {tmp_path}\n"
        )
        assert run_cli("train-fusion", path, "--strategy", "kl") == 2
        assert "unknown key fusion.kl_steps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "train-baseline", "oracle", "report"])
    def test_threads_belongs_to_train_experts_only(self, tmp_path, command, capsys):
        config = write_config(tmp_path, str(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            run_cli(command, config, "--threads", "2")
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, tmp_path, threads, capsys):
        config = write_config(tmp_path, str(tmp_path / "out"))
        with pytest.raises(SystemExit) as exc:
            run_cli("train-experts", config, "--threads", threads)
        assert exc.value.code == 2
        assert f"argument --threads: must be >= 1, got {threads}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path):
        out = tmp_path / "out"
        cfg = tiny_run_config(str(out))
        from dataclasses import replace

        cfg = replace(cfg, training=replace(cfg.training, lr0=1e12, weight_decay=0.0))
        path = tmp_path / "explode.ini"
        path.write_text(serialize_config(cfg))
        assert run_cli("train-baseline", path) == 4

    def test_ablate_with_non_finite_model_is_data_error(self, tmp_path, capsys):
        from tailens._dumps import write_posterior_csv

        out = tmp_path / "out"
        config = write_config(tmp_path, str(out))
        assert run_cli("gen-data", config) == 0
        bundle = prepare_bundle(load_config(config))
        probs = np.full((bundle.test.n, bundle.class_count), 1.0 / bundle.class_count)
        probs[3, 1] = np.nan
        bad = tmp_path / "nan_model.csv"
        write_posterior_csv(bad, np.arange(bundle.test.n), probs)
        capsys.readouterr()
        assert run_cli("ablate", config, "--models", bad, bad) == 3
        assert "nan_model.csv line 5" in capsys.readouterr().err

    def test_loaded_bundle_with_nan_feature_is_data_error(self, tmp_path, capsys):
        from dataclasses import replace

        out = tmp_path / "out"
        cfg = tiny_run_config(str(out))
        assert run_cli("gen-data", write_config_file(tmp_path, cfg)) == 0
        train = out / "data" / "train.csv"
        lines = train.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-1] + ["nan"])
        train.write_text("\n".join(lines) + "\n")
        cfg = replace(
            cfg,
            dataset=replace(
                cfg.dataset, source="load", manifest=str(out / "data" / "manifest.json")
            ),
        )
        capsys.readouterr()
        assert run_cli("train-baseline", write_config_file(tmp_path / "load", cfg)) == 3
        assert "train.csv line 3: non-finite feature" in capsys.readouterr().err

    def test_ablate_with_wrong_ids_is_data_error(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path, str(out))
        assert run_cli("gen-data", config) == 0
        bad = tmp_path / "bad_model.csv"
        bad.write_text("sample_id,p0,p1,p2,p3,p4,p5\n0,1.0,0,0,0,0,0\n")
        assert run_cli("ablate", config, "--models", bad, bad) == 3

    @pytest.mark.parametrize(
        "edit, message",
        [({"test": None}, "manifest.json: missing key 'test'"),
         ({"feature_dim": 256}, "manifest.json: feature_dim 256, train.csv has 4 features")],
        ids=["without-a-split", "feature-dim-of-other-csvs"],
    )
    def test_bad_manifest_is_data_error(self, tmp_path, capsys, edit, message):
        from dataclasses import replace

        out = tmp_path / "out"
        cfg = tiny_run_config(str(out))
        assert run_cli("gen-data", write_config_file(tmp_path, cfg)) == 0
        manifest = out / "data" / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload.update(edit)
        manifest.write_text(json.dumps({k: v for k, v in payload.items() if v is not None}))
        cfg = replace(cfg, dataset=replace(cfg.dataset, source="load", manifest=str(manifest)))
        capsys.readouterr()
        assert run_cli("train-baseline", write_config_file(tmp_path / "load", cfg)) == 3
        assert message in capsys.readouterr().err

    def test_non_numeric_posterior_entry_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path, str(tmp_path / "out"))
        bad = tmp_path / "text_model.csv"
        bad.write_text("sample_id,p0,p1,p2,p3,p4,p5\n0,1.0,0,0,0,0,0\n1,one,0,0,0,0,0\n")
        capsys.readouterr()
        assert run_cli("ablate", config, "--models", bad, bad) == 3
        assert "text_model.csv line 3: probability is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("bug", [ValueError, KeyError])
    def test_internal_error_is_not_reported_as_data_error(self, tmp_path, monkeypatch, bug):
        from tailens import cli

        def broken(cfg, args):
            raise bug("internal")

        monkeypatch.setattr(cli, "cmd_oracle", broken)
        with pytest.raises(bug):
            run_cli("oracle", write_config(tmp_path, str(tmp_path / "out")))

    def test_experts_trained_under_other_folds_are_data_error(
        self, cli_and_library_runs, tmp_path, capsys
    ):
        # trained with few_max = 5 (class frequencies 40, 13, 7, 4, 3, 2);
        # at few_max = 8, class 2 leaves the mediumshot fold for the fewshot one
        cfg, trained_out, _ = cli_and_library_runs
        out = tmp_path / "out"
        shutil.copytree(trained_out, out)
        (out / "fusion" / "select.params").unlink()
        moved = replace(
            cfg, dataset=replace(cfg.dataset, few_max=8), paths=replace(cfg.paths, out_dir=str(out))
        )
        config = write_config_file(tmp_path, moved)
        capsys.readouterr()
        assert run_cli("train-fusion", config, "--strategy", "select") == 3
        err = capsys.readouterr().err
        assert err == (
            f"error: data: {out / 'checkpoints' / 'expert_mediumshot.ckpt'}: subset is not "
            "the config's mediumshot fold; re-run `tailens train-experts`\n"
        )
        assert not (out / "fusion" / "select.params").exists()

    @pytest.mark.filterwarnings("ignore:val.csv. val split is not class-balanced")
    @pytest.mark.parametrize(
        "command", [("train-experts",), ("train-fusion", "--strategy", "select")]
    )
    def test_val_split_without_a_fold_is_data_error(
        self, cli_and_library_runs, tmp_path, capsys, command
    ):
        # the fewshot classes are 3, 4 and 5; the loaded val split keeps none
        cfg, trained_out, _ = cli_and_library_runs
        out = tmp_path / "out"
        shutil.copytree(trained_out, out)
        val = out / "data" / "val.csv"
        lines = val.read_text().splitlines()
        val.write_text("\n".join(l for l in lines if l.split(",")[0] not in ("3", "4", "5")) + "\n")
        dataset = replace(cfg.dataset, source="load", manifest=str(out / "data" / "manifest.json"))
        loaded = replace(cfg, dataset=dataset, paths=replace(cfg.paths, out_dir=str(out)))
        capsys.readouterr()
        assert run_cli(command[0], write_config_file(tmp_path, loaded), *command[1:]) == 3
        err = capsys.readouterr().err
        assert err == "error: data: the val split holds no fewshot sample; every fold needs one\n"

    @pytest.mark.filterwarnings("ignore:val split is not class-balanced")
    @pytest.mark.parametrize("stage", ["train_all", "train_fusion"])
    def test_library_val_split_without_a_fold_is_data_error(self, cli_and_library_runs, stage):
        # the fewshot classes are 3, 4 and 5; the val split keeps none
        cfg, _, trained = cli_and_library_runs
        val = trained.bundle.val
        kept = val.labels < 3
        bundle = DatasetBundle(
            trained.bundle.train,
            EmbeddingDataset(val.features[kept], val.labels[kept], val.class_count),
            trained.bundle.test,
        )
        message = "the val split holds no fewshot sample; every fold needs one"
        with pytest.raises(DataError, match=message):
            if stage == "train_all":
                train_all(bundle, cfg)
            else:
                train_fusion(ExpertEnsemble(bundle, trained.folds, trained.experts), cfg, "select")


def _edit_record(**edit):
    """Rewrite a fusion's JSON record with each named entry edited."""

    def corrupt(path):
        payload = json.loads(path.read_text())
        for key, value in edit.items():
            payload[key] = value(payload[key])
        path.write_text(json.dumps(payload))  # writes NaN, which json.loads accepts

    return corrupt


def _drop_certificate(path):
    payload = json.loads(path.read_text())
    kept = ("strategy", "scales", "shifts", "weight", "bias")
    path.write_text(json.dumps({key: payload[key] for key in kept if key in payload}))


def _set_first(value):
    return lambda vectors: [[value] + vectors[0][1:]] + vectors[1:]


def _checkpoint_header_replace(old: bytes, new: bytes):
    def corrupt(path):
        data = path.read_bytes()
        end = data.index(b"\n", len(network.CHECKPOINT_MAGIC))
        path.write_bytes(data[:end].replace(old, new) + data[end:])

    return corrupt


def _checkpoint_header(edit):
    """Rewrite a checkpoint's header with ``edit`` applied to it."""

    def corrupt(path):
        data = path.read_bytes()
        start = len(network.CHECKPOINT_MAGIC)
        end = data.index(b"\n", start)
        header = edit(json.loads(data[start:end]))
        path.write_bytes(data[:start] + json.dumps(header).encode() + data[end:])

    return corrupt


def _checkpoint_meta(edit):
    """Rewrite a checkpoint's header with ``edit`` applied to its meta."""
    return _checkpoint_header(lambda header: {**header, "meta": edit(header["meta"])})


def _last_class_99(meta):
    return {**meta, "subset_classes": meta["subset_classes"][:-1] + [99]}


def _wider_input_expert(path):
    expert = load_expert_checkpoint(path)
    dims = list(expert.params.dims)
    dims[0] += 1
    save_expert_checkpoint(path, replace(expert, params=network.init_network(dims, seed=0)))


@pytest.mark.parametrize(
    "strategy, name, corrupt, problem",
    [
        ("calibrate", "fusion/calibrate.params", _edit_record(scales=_set_first(float("nan"))),
         "not a calibrate parameter file"),
        ("calibrate", "fusion/calibrate.params", _edit_record(scales=_set_first("a")),
         "not a calibrate parameter file"),
        ("calibrate", "fusion/calibrate.params",
         _edit_record(scales=lambda v: [[1.0]] * len(v), shifts=lambda v: [[0.0]] * len(v)),
         "calibrate widths \\[1, 1, 1\\] do not match the experts' \\[2, 3, 4\\]"),
        ("calibrate", "fusion/calibrate.params", _edit_record(gradient_norm=lambda v: "1e-12"),
         "calibrate certificate is malformed"),
        ("calibrate", "fusion/calibrate.params",
         _edit_record(gradient_norm=lambda v: float("nan")),
         "calibrate certificate is malformed"),
        ("calibrate", "fusion/calibrate.params", _edit_record(steps=lambda v: -1),
         "calibrate certificate is malformed"),
        ("calibrate", "fusion/calibrate.params", _edit_record(steps=lambda v: True),
         "calibrate certificate is malformed"),
        ("calibrate", "fusion/calibrate.params", _edit_record(objective_final=str),
         "calibrate certificate is malformed"),
        ("calibrate", "fusion/calibrate.params", _drop_certificate,
         "calibrate certificate is malformed"),
        ("select", "fusion/select.params", _edit_record(weight=_set_first(float("nan"))),
         "not a select parameter file"),
        ("select", "fusion/select.params", _edit_record(strategy=lambda v: "stack"),
         "not a select parameter file"),
        ("select", "fusion/select.params", _edit_record(weight=lambda v: v[:2]),
         "select widths \\[2, 3\\] do not match the experts' \\[9, 3\\]"),
        ("select", "fusion/select.params", _edit_record(gradient_norm=lambda v: "1e-12"),
         "select certificate is malformed"),
        ("select", "fusion/select.params", _edit_record(steps=lambda v: -1),
         "select certificate is malformed"),
        ("select", "fusion/select.params", _drop_certificate,
         "select certificate is malformed"),
        ("calibrate", "fusion/calibrate.params", _edit_record(shifts=_set_first(True)),
         "not a calibrate parameter file; re-run `tailens train-fusion --strategy calibrate`"),
        ("select", "fusion/select.params", _edit_record(weight=_set_first(True)),
         "not a select parameter file; re-run `tailens train-fusion --strategy select`"),
        ("stack", "fusion/stack.params", _edit_record(bias=lambda v: ["1.5"] + v[1:]),
         "not a stack parameter file; re-run `tailens train-fusion --strategy stack`"),
        ("stack", "fusion/stack.params", _edit_record(bias=lambda v: v[:-1]),
         "not a stack parameter file"),
        ("stack", "fusion/stack.params", _edit_record(gradient_norm=lambda v: "1e-12"),
         "stack certificate is malformed"),
        ("stack", "fusion/stack.params", _edit_record(steps=lambda v: -1),
         "stack certificate is malformed"),
        ("stack", "fusion/stack.params", _drop_certificate,
         "stack certificate is malformed"),
        ("softvote", "checkpoints/expert_fewshot.ckpt",
         _checkpoint_header_replace(b'"layers.', b'"tensor.'),
         "checkpoint has no array 'layers.0.weight'"),
        ("softvote", "checkpoints/expert_fewshot.ckpt",
         _checkpoint_header_replace(b'"rho"', b'"rh0"'),
         "malformed expert checkpoint .*'rho'"),
        ("softvote", "checkpoints/expert_fewshot.ckpt",
         _checkpoint_meta(lambda meta: list(meta.values())),
         "checkpoint meta is not a JSON object"),
        ("softvote", "checkpoints/expert_fewshot.ckpt", _checkpoint_meta(_last_class_99),
         "subset class 99 is outside the bundle's 6 classes"),
        ("softvote", "checkpoints/expert_mediumshot.ckpt", _wider_input_expert,
         "expert reads 5 features, the bundle has 4"),
        ("softvote", "checkpoints/expert_fewshot.ckpt",
         _checkpoint_meta(lambda meta: {**meta, "subset_classes": meta["subset_classes"][::-1]}),
         "subset is not the config's fewshot fold; re-run `tailens train-experts`"),
    ],
    ids=["calibrate-nan", "calibrate-text", "calibrate-width", "calibrate-norm-text",
         "calibrate-norm-nan", "calibrate-steps-negative", "calibrate-steps-bool",
         "calibrate-objective-text", "calibrate-no-certificate", "select-nan", "select-tag",
         "select-width", "select-norm-text", "select-steps-negative", "select-no-certificate",
         "calibrate-bool", "select-bool", "stack-numeric-text", "stack-bias-width",
         "stack-norm-text", "stack-steps-negative", "stack-no-certificate",
         "checkpoint-array-names", "expert-meta", "expert-meta-list", "expert-class-99",
         "expert-feature-width", "expert-subset-order"],
)
def test_corrupt_fusion_input_is_data_error(
    cli_and_library_runs, tmp_path, capsys, strategy, name, corrupt, problem
):
    _, trained_out, _ = cli_and_library_runs
    out = tmp_path / "out"
    shutil.copytree(trained_out, out)
    config = write_config(tmp_path, str(out))
    corrupt(out / name)
    capsys.readouterr()
    assert run_cli("evaluate", config, "--strategy", strategy) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data:") and Path(name).name in err
    assert re.search(problem, err), err


@pytest.mark.parametrize(
    "shape, problem",
    [([1 << 42, 1], "truncated array layers.0.weight"), ([-4, -2], "malformed checkpoint header")],
    ids=["oversized", "negative"],
)
def test_corrupt_baseline_array_shape_is_data_error(
    cli_and_library_runs, tmp_path, capsys, shape, problem
):
    _, trained_out, _ = cli_and_library_runs
    out = tmp_path / "out"
    shutil.copytree(trained_out, out)
    config = write_config(tmp_path, str(out))
    _checkpoint_header(
        lambda header: {**header, "arrays": [[header["arrays"][0][0], shape], *header["arrays"][1:]]}
    )(out / "checkpoints" / "baseline.ckpt")
    capsys.readouterr()
    assert run_cli("dump-posteriors", config, "--model", "baseline") == 3
    assert capsys.readouterr().err == f"error: data: baseline.ckpt: {problem}\n"


def _other_baseline_dump(out):
    """A copy of the baseline dump in another directory, under its stem."""
    other = out.parent / "other" / "baseline_test.csv"
    other.parent.mkdir(exist_ok=True)
    return shutil.copy(out / "dumps" / "baseline_test.csv", other)


def _without(name, *argv):
    """``argv`` run after ``name`` is deleted from the out_dir."""

    def prepare(out):
        (out / name).unlink()
        return list(argv)

    return prepare


def _written(name, text, *argv):
    """``argv`` run after ``name`` is overwritten with ``text``."""

    def prepare(out):
        (out / name).write_text(text)
        return list(argv)

    return prepare


def _baseline_of(name, dims, *argv):
    """``argv`` run after the ``name`` checkpoint of ``train-baseline`` is
    replaced by a network of ``dims``, trained for another bundle."""

    def prepare(out):
        network.save_checkpoint(
            out / "checkpoints" / f"{name}.ckpt", network.init_network(dims, seed=0),
            {"kind": "baseline"},
        )
        return list(argv)

    return prepare


def _checkpoint_format(strategy, kind):
    """``evaluate`` of a select or stack fit in the network-checkpoint
    format that ``train-fusion`` wrote before its one JSON record."""

    def prepare(out):
        path = out / "fusion" / f"{strategy}.params"
        record = json.loads(path.read_text())
        layer = tuple(np.asarray(record[key]) for key in ("weight", "bias"))
        meta = {"kind": kind, "steps": record["steps"], "gradient_norm": record["gradient_norm"]}
        network.save_checkpoint(path, network.NetworkParams([layer]), meta)
        return ["evaluate", "--strategy", strategy]

    return prepare


@pytest.mark.parametrize(
    "prepare, code, message",
    [
        (lambda out: ["ablate", "--models", out / "dumps" / "baseline_test.csv",
                      _other_baseline_dump(out), out / "dumps" / "uniform_test.csv"],
         3, "error: data: .*/out/dumps/baseline_test.csv and .*/other/baseline_test.csv are "
            "both model 'baseline_test'; ablate names each dump by its file stem"),
        (lambda out: ["ablate", "--models", out / "dumps" / "baseline_test.csv"],
         2, "error: usage: ablate needs at least two posterior dumps"),
        (lambda out: ["ablate", "--models", out / "dumps" / "baseline_test.csv",
                      _other_baseline_dump(out)],
         3, "error: data: .* are both model 'baseline_test'"),
        (_without("checkpoints/expert_fewshot.ckpt", "oracle"),
         3, "error: data: .*expert_fewshot.ckpt is missing; run `tailens train-experts` first"),
        (_written("fusion/calibrate.params", '{"strategy": "calibrate", "scales": [',
                  "evaluate", "--strategy", "calibrate"),
         3, "error: data: .*calibrate.params: not a calibrate parameter file; "
            "re-run `tailens train-fusion --strategy calibrate`"),
        (_checkpoint_format("select", "selector"),
         3, "error: data: .*select.params: not a select parameter file; "
            "re-run `tailens train-fusion --strategy select`"),
        (_checkpoint_format("stack", "stacker"),
         3, "error: data: .*stack.params: not a stack parameter file; "
            "re-run `tailens train-fusion --strategy stack`"),
        (_baseline_of("baseline", [8, 6], "dump-posteriors", "--model", "baseline"),
         3, "error: data: .*baseline.ckpt: baseline maps 8 features to 6 classes, the bundle "
            "has 4 and 6; re-run `tailens train-baseline`"),
        (_baseline_of("uniform", [8, 5, 6], "dump-posteriors", "--model", "uniform"),
         3, "error: data: .*uniform.ckpt: uniform maps 8 features to 6 classes"),
        (_baseline_of("baseline", [8, 5, 6], "train-experts"),
         3, "error: data: .*baseline.ckpt: baseline maps 8 features to 6 classes"),
        (_baseline_of("baseline", [4, 5, 4], "dump-posteriors", "--model", "baseline"),
         3, "error: data: .*baseline.ckpt: baseline maps 4 features to 4 classes, the bundle "
            "has 4 and 6; re-run `tailens train-baseline`"),
    ],
    ids=["ablate-repeated-stem", "ablate-one-dump", "ablate-two-dumps-one-stem",
         "missing-checkpoint", "corrupt-calibrate-params", "checkpoint-format-select",
         "checkpoint-format-stack", "baseline-feature-width", "uniform-feature-width",
         "train-experts-baseline-feature-width", "baseline-class-count"],
)
def test_cli_misuse_exit_code(cli_and_library_runs, tmp_path, capsys, prepare, code, message):
    # main returns the code and prints one error line; any exception that
    # escaped it would fail this test
    _, trained_out, _ = cli_and_library_runs
    out = tmp_path / "out"
    shutil.copytree(trained_out, out)
    config = write_config(tmp_path, str(out))
    command, *rest = prepare(out)
    capsys.readouterr()
    assert run_cli(command, config, *rest) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert re.match(message, err), err
