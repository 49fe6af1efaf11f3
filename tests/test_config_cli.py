import json
import re
import shutil
from dataclasses import replace
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


@pytest.fixture(scope="module")
def cli_and_library_runs(tmp_path_factory):
    """The same tiny config through every CLI subcommand and through
    ``train_all``."""
    tmp = tmp_path_factory.mktemp("equivalence")
    cfg = tiny_run_config(str(tmp / "out"))
    run_pipeline(write_config_file(tmp, cfg))
    return cfg, tmp / "out", train_all(prepare_bundle(cfg), cfg)


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

    @pytest.mark.parametrize("strategy", ["select", "stack"])
    def test_selector_certificate_round_trips(self, cli_and_library_runs, strategy):
        cfg, out, ens = cli_and_library_runs
        fitted = train_fusion(ens, cfg, strategy).params
        loaded = FUSIONS[strategy].load(out / "fusion" / f"{strategy}.params", ens)
        assert type(loaded) is type(fitted)
        assert (loaded.steps, loaded.gradient_norm) == (fitted.steps, fitted.gradient_norm)
        assert loaded.gradient_norm <= CERTIFICATE_TOL and loaded.steps > 0
        for a, b in zip(loaded.params.layers[0], fitted.params.layers[0]):
            assert a.tobytes() == b.tobytes()

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
            (sel.rho, sel.frozen_layers) for sel in ens.selections
        ]


    def test_library_uniform_is_the_cli_uniform_without_its_trace(
        self, cli_and_library_runs, monkeypatch
    ):
        # no model computes a full-dataset loss: every trace, the uniform
        # one that train_all does not keep included, is one batch-mean loss
        # per epoch
        cfg, out, ens = cli_and_library_runs
        uniform = load_baseline_checkpoint(out / "checkpoints" / "uniform.ckpt")
        for (wa, ba), (wb, bb) in zip(uniform.params.layers, ens.uniform.params.layers):
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
        for (wa, ba), (wb, bb) in zip(again.uniform.params.layers, ens.uniform.params.layers):
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

    def test_missing_checkpoints_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path, str(tmp_path / "out"))
        assert run_cli("oracle", config) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data:")
        assert "\n" not in err.strip()

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

    def test_manifest_without_a_split_is_data_error(self, tmp_path, capsys):
        from dataclasses import replace

        out = tmp_path / "out"
        cfg = tiny_run_config(str(out))
        assert run_cli("gen-data", write_config_file(tmp_path, cfg)) == 0
        manifest = out / "data" / "manifest.json"
        payload = json.loads(manifest.read_text())
        del payload["test"]
        manifest.write_text(json.dumps(payload))
        cfg = replace(cfg, dataset=replace(cfg.dataset, source="load", manifest=str(manifest)))
        capsys.readouterr()
        assert run_cli("train-baseline", write_config_file(tmp_path / "load", cfg)) == 3
        assert "manifest.json: missing key 'test'" in capsys.readouterr().err

    def test_non_numeric_posterior_entry_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path, str(tmp_path / "out"))
        bad = tmp_path / "text_model.csv"
        bad.write_text("sample_id,p0,p1,p2,p3,p4,p5\n0,1.0,0,0,0,0,0\n1,one,0,0,0,0,0\n")
        capsys.readouterr()
        assert run_cli("ablate", config, "--models", bad, bad) == 3
        assert "text_model.csv line 3: not a number" in capsys.readouterr().err

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

    @pytest.mark.filterwarnings("ignore:val split is not class-balanced")
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

    def test_corrupt_calibration_file_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, str(out))
        for step in (("gen-data",), ("train-baseline",), ("train-experts",)):
            assert run_cli(step[0], config, *step[1:]) == 0
        params = out / "fusion" / "calibrate.params"
        params.parent.mkdir(parents=True)
        params.write_text('{"strategy": "calibrate", "scales": [')
        capsys.readouterr()
        assert run_cli("evaluate", config, "--strategy", "calibrate") == 3
        assert "calibrate.params is not a calibrate parameter file" in capsys.readouterr().err


def _edit_calibration(**edit):
    def corrupt(path):
        payload = json.loads(path.read_text())
        for key, value in edit.items():
            payload[key] = value(payload[key])
        path.write_text(json.dumps(payload))  # writes NaN, which json.loads accepts

    return corrupt


def _drop_calibration_certificate(path):
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({key: payload[key] for key in ("strategy", "scales", "shifts")}))


def _set_first(value):
    return lambda vectors: [[value] + vectors[0][1:]] + vectors[1:]


def _checkpoint_header_replace(old: bytes, new: bytes):
    def corrupt(path):
        data = path.read_bytes()
        end = data.index(b"\n", len(network.CHECKPOINT_MAGIC))
        path.write_bytes(data[:end].replace(old, new) + data[end:])

    return corrupt


def _checkpoint_first_weight_nan(path):
    data = path.read_bytes()
    start = data.index(b"\n", len(network.CHECKPOINT_MAGIC)) + 1
    path.write_bytes(data[:start] + np.float64(np.nan).tobytes() + data[start + 8 :])


def _wrong_width_selector(path):
    network.save_checkpoint(path, network.init_network([2, 3], seed=0), {"kind": "selector"})


def _checkpoint_meta(edit):
    """Rewrite a checkpoint's header with ``edit`` applied to its meta."""

    def corrupt(path):
        data = path.read_bytes()
        start = len(network.CHECKPOINT_MAGIC)
        end = data.index(b"\n", start)
        header = json.loads(data[start:end])
        header["meta"] = edit(header["meta"])
        path.write_bytes(data[:start] + json.dumps(header).encode() + data[end:])

    return corrupt


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
        ("calibrate", "fusion/calibrate.params", _edit_calibration(scales=_set_first(float("nan"))),
         "not a calibrate parameter file"),
        ("calibrate", "fusion/calibrate.params", _edit_calibration(scales=_set_first("a")),
         "not a calibrate parameter file"),
        ("calibrate", "fusion/calibrate.params",
         _edit_calibration(scales=lambda v: [[1.0]] * len(v), shifts=lambda v: [[0.0]] * len(v)),
         "calibration widths \\[1, 1, 1\\] do not match the experts' head widths"),
        ("calibrate", "fusion/calibrate.params", _edit_calibration(gradient_norm=lambda v: "1e-12"),
         "calibrate certificate is malformed"),
        ("calibrate", "fusion/calibrate.params",
         _edit_calibration(gradient_norm=lambda v: float("nan")),
         "calibrate certificate is malformed"),
        ("calibrate", "fusion/calibrate.params", _edit_calibration(steps=lambda v: -1),
         "calibrate certificate is malformed"),
        ("calibrate", "fusion/calibrate.params", _edit_calibration(steps=lambda v: True),
         "calibrate certificate is malformed"),
        ("calibrate", "fusion/calibrate.params", _edit_calibration(objective_final=str),
         "calibrate certificate is malformed"),
        ("calibrate", "fusion/calibrate.params", _drop_calibration_certificate,
         "calibrate certificate is malformed"),
        ("select", "fusion/select.params", _checkpoint_first_weight_nan,
         "layer 0 contains non-finite entries"),
        ("select", "fusion/select.params", _wrong_width_selector, "selector maps 2 -> 3"),
        ("select", "fusion/select.params",
         _checkpoint_meta(lambda meta: {**meta, "gradient_norm": "1e-12"}),
         "selector certificate is malformed"),
        ("select", "fusion/select.params",
         _checkpoint_meta(lambda meta: {**meta, "steps": -1}),
         "selector certificate is malformed"),
        ("select", "fusion/select.params",
         _checkpoint_meta(lambda meta: {"kind": meta["kind"]}),
         "selector certificate is malformed"),
        ("stack", "fusion/stack.params",
         _checkpoint_meta(lambda meta: {**meta, "gradient_norm": "1e-12"}),
         "stacker certificate is malformed"),
        ("stack", "fusion/stack.params",
         _checkpoint_meta(lambda meta: {**meta, "steps": -1}),
         "stacker certificate is malformed"),
        ("stack", "fusion/stack.params",
         _checkpoint_meta(lambda meta: {"kind": meta["kind"]}),
         "stacker certificate is malformed"),
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
         "calibrate-objective-text", "calibrate-no-certificate", "select-nan", "select-width",
         "select-norm-text", "select-steps-negative", "select-no-certificate",
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
