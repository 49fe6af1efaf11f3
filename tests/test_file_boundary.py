"""The file boundary streams its text tables in row blocks and reads its
binary arrays in place.

Every writer is checked byte for byte against a whole-file formula: one
``format_float`` join per row for the CSVs, which the block writers
replaced, and ``np.save`` of the features then of the labels for each split
of a data snapshot; those formulas are kept here as the references. The
readers are checked against the arrays and the errors of the files they
read, and every bulk read and write is bounded, traced by tracemalloc, by a
multiple of the arrays it makes or reads.
"""

import io
import json
import os
import re
import shutil
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    one_file_manifest,
    parse_embeddings,
    read_partial_dump,
    tiny_run_config,
    traced_peak,
    write_config_file,
    write_load_config,
)
from tailens import DataError, _io, cli, dataset
from tailens._dumps import (
    ingest_external_posteriors,
    write_partial_posterior_csv,
    write_posterior_csv,
)
from tailens.dataset import (
    SNAPSHOT,
    EmbeddingDataset,
    SyntheticConfig,
    generate_longtailed,
    load_bundle,
    read_snapshot,
    save_bundle,
    write_embeddings_csv,
    write_snapshot,
)
from tailens.experts import PartialPosterior

SPLITS = ("train", "val", "test")
# the class profile of the benchmark's CLI bundle (1789 rows) at 16 features,
# several row blocks per split; the peaks are traced at 64 features, where
# the arrays are 0.9 MB
CLI_CFG = SyntheticConfig(
    class_count=60, feature_dim=16, n_max=200, alpha=1.2,
    n_val_per_class=10, n_test_per_class=10, noise_scale=1.0,
)
PEAK_CFG = replace(CLI_CFG, feature_dim=64)


def format_float(value) -> str:
    return repr(float(value))


def reference_csv(header, keys, table, tag="") -> bytes:
    """A float CSV as the writers built it before: the whole text at once."""
    lines = [header]
    for key, row in zip(keys, table):
        lines.append(str(int(key)) + tag + "," + ",".join(format_float(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def reference_entry(features, labels) -> bytes:
    """One split of a snapshot: one np.save of the features, then one of
    the labels."""
    buf = io.BytesIO()
    np.save(buf, features)
    np.save(buf, labels)
    return buf.getvalue()


def awkward_table(rows, cols, seed=0):
    """Floats whose shortest text takes every form repr gives."""
    rng = np.random.default_rng(seed)
    table = rng.normal(0.0, 1.0, size=(rows, cols)) * 10.0 ** rng.integers(-30, 30, (rows, cols))
    specials = [0.0, -0.0, 1.0, -3.0, 0.1, 1e16, 1e-5, 5e-324, 1.7976931348623157e308, 2.0**53 + 2]
    table.flat[: len(specials)] = specials
    return table


def bundle_arrays_nbytes(bundle) -> int:
    splits = [getattr(bundle, s) for s in SPLITS]
    return sum(ds.features.nbytes + ds.labels.nbytes for ds in splits)


@pytest.fixture(params=[None, 1, 7], ids=["default-blocks", "row-blocks", "7-value-blocks"])
def block_values(request, monkeypatch):
    """The writers' and readers' block size: the default, one row per
    block, and blocks that split no row but end mid-table."""
    if request.param is not None:
        monkeypatch.setattr(_io, "ROW_BLOCK_VALUES", request.param)
    return request.param


class TestWritersMatchTheWholeFileFormulas:
    def test_embeddings_csv(self, tmp_path, block_values):
        features = awkward_table(23, 5)
        labels = np.arange(23) % 4
        write_embeddings_csv(tmp_path / "x.csv", EmbeddingDataset(features, labels, 4))
        header = "label," + ",".join(f"f{j}" for j in range(5))
        assert (tmp_path / "x.csv").read_bytes() == reference_csv(header, labels, features)

    def test_saved_bundle(self, tmp_path, block_values):
        bundle = generate_longtailed(CLI_CFG, seed=4)
        save_bundle(bundle, tmp_path)
        header = "label," + ",".join(f"f{j}" for j in range(CLI_CFG.feature_dim))
        for split in SPLITS:
            ds = getattr(bundle, split)
            assert (tmp_path / f"{split}.csv").read_bytes() == reference_csv(
                header, ds.labels, ds.features
            )

    @pytest.mark.parametrize("rows", [17, 1, 0])
    def test_posterior_dump(self, tmp_path, block_values, rows):
        probs = awkward_table(max(rows, 1), 6)[:rows]
        ids = np.arange(rows)[::-1] * 3
        write_posterior_csv(tmp_path / "p.csv", ids, probs)
        header = "sample_id," + ",".join(f"p{j}" for j in range(6))
        assert (tmp_path / "p.csv").read_bytes() == reference_csv(header, ids, probs)

    def test_one_row_posterior_dump(self, tmp_path):
        probs = np.array([[0.25, 0.75]])
        write_posterior_csv(tmp_path / "p.csv", [5], probs)
        assert (tmp_path / "p.csv").read_bytes() == b"sample_id,p0,p1\n5,0.25,0.75\n"

    def test_partial_posterior_dump(self, tmp_path, block_values):
        probs = np.abs(awkward_table(13, 4))
        subset = dataset.SubsetSpec(dataset.Fold.FEWSHOT, np.array([4, 1, 2]))
        partial = PartialPosterior(np.zeros_like(probs), probs)
        ids = np.arange(13) + 100
        write_partial_posterior_csv(tmp_path / "e.csv", ids, partial, subset, rho=2.0)
        header = "sample_id,expert_id,p0,p1,p2,preject"
        assert (tmp_path / "e.csv").read_bytes() == reference_csv(header, ids, probs, ",2")
        # nothing in the package reads a partial dump back, so the sidecar
        # is checked here
        sidecar = json.loads((tmp_path / "e.json").read_text())
        assert sidecar == {"expert_id": 2, "expert": "fewshot", "classes": [4, 1, 2], "rho": 2.0}

    def test_a_key_per_row_is_required(self, tmp_path):
        with pytest.raises(ValueError, match="need one key per row"):
            write_posterior_csv(tmp_path / "p.csv", np.arange(3), np.ones((4, 2)) / 2)
        assert not (tmp_path / "p.csv").exists()

    def test_snapshot(self, tmp_path, block_values):
        bundle = generate_longtailed(CLI_CFG, seed=4)
        path = write_snapshot(bundle, tmp_path)
        assert path == tmp_path / SNAPSHOT
        assert path.read_bytes() == b"".join(
            reference_entry(getattr(bundle, s).features, getattr(bundle, s).labels)
            for s in SPLITS
        )


class TestReaders:
    def test_arrays_are_read_only(self, tmp_path):
        (tmp_path / "x.csv").write_text("label,f0\n0,1.5\n1,2.5\n")
        features, labels = parse_embeddings(tmp_path / "x.csv", 2)
        for arr in (features, labels):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_blank_lines_and_line_ends_give_the_same_arrays(
        self, tmp_path, block_values, newline
    ):
        features, labels = awkward_table(9, 3), np.arange(9) % 3
        write_embeddings_csv(tmp_path / "plain.csv", EmbeddingDataset(features, labels, 3))
        lines = (tmp_path / "plain.csv").read_text().splitlines()
        spaced = [lines[0], ""] + [x for line in lines[1:] for x in (line, "  ")] + ["", ""]
        (tmp_path / "spaced.csv").write_bytes(newline.join(spaced).encode())
        got_f, got_l = parse_embeddings(tmp_path / "spaced.csv", 3)
        assert got_f.tobytes() == features.tobytes() and got_l.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("via", ["load_bundle", "gen-data"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "bad, problem",
        [("7,nan,1.0", "non-finite feature"), ("7,1.0", "expected 2 features, got 1"),
         ("x,1.0,2.0", "label 'x' is not an integer"),
         ("8,1.0,2.0", r"label 8 out of range \[0, 8\)"), ("-1,1.0,2.0", "negative label -1"),
         (f"{1 << 64},1.0,2.0", f"label {1 << 64} out of range")],
        ids=["non-finite", "short-row", "bad-label", "large-label", "negative-label",
             "beyond-int64-label"],
    )
    def test_errors_name_the_same_line(
        self, tmp_path, capsys, block_values, newline, via, bad, problem
    ):
        # lines: 1 header, 2 blank, 3-5 rows, 6 blank, 7 whitespace, 8 bad, 9 row
        lines = ["label,f0,f1", "", "0,1.0,2.0", "1,1.5,2.5", "2,3.0,0.0", "", " \t",
                 bad, "1,0.0,0.0"]
        (tmp_path / "bad.csv").write_bytes((newline.join(lines) + newline).encode())
        manifest = one_file_manifest(tmp_path / "bad.csv", 8)
        if via == "load_bundle":
            with pytest.raises(DataError, match=f"bad.csv line 8: {problem}"):
                load_bundle(manifest)
        else:
            config = write_load_config(tmp_path, manifest, tmp_path / "out")
            assert cli.main(["gen-data", str(config)]) == 3
            assert re.match(f"error: data: bad.csv line 8: {problem}\n", capsys.readouterr().err)

    def test_a_row_that_does_not_parse_comes_before_an_earlier_label_out_of_range(
        self, tmp_path
    ):
        (tmp_path / "bad.csv").write_text("label,f0\n0,1.5\n5,2.5\n1,x\n")
        with pytest.raises(DataError, match=r"bad\.csv line 4: feature is not a number"):
            parse_embeddings(tmp_path / "bad.csv", 2)

    def test_the_first_non_finite_row_is_named_after_every_row_is_parsed(
        self, tmp_path, block_values
    ):
        rows = [f"{i % 3},{i}.5,1.0" for i in range(20)]
        rows[6] = "0,-inf,1.0"
        rows[15] = "1,nan,1.0"
        (tmp_path / "bad.csv").write_text("label,f0,f1\n\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"bad\.csv line 9: non-finite feature"):
            parse_embeddings(tmp_path / "bad.csv", 3)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_posterior_dump_with_blank_lines_and_line_ends(self, tmp_path, block_values, newline):
        probs = np.random.default_rng(1).dirichlet(np.ones(3), size=7)
        write_posterior_csv(tmp_path / "p.csv", np.arange(7), probs)
        lines = (tmp_path / "p.csv").read_text().splitlines()
        spaced = [lines[0]] + [x for line in lines[1:] for x in ("", line)] + [""]
        (tmp_path / "p.csv").write_bytes(newline.join(spaced).encode())
        table = ingest_external_posteriors(tmp_path / "p.csv", 3)
        assert table.probabilities.tobytes() == probs.tobytes()
        assert table.sample_ids.tolist() == list(range(7))
        # the zero-mass row is line 1 + 2 * 7 + 2: after its blank line
        spaced[-1:] = ["", "7,0.0,0.0,0.0", "", "3,0.5,0.5,0.0"]
        (tmp_path / "p.csv").write_bytes(newline.join(spaced).encode())
        # the repeated id is reported before the zero mass, as before
        with pytest.raises(DataError, match=r"p\.csv line 19: repeated sample id"):
            ingest_external_posteriors(tmp_path / "p.csv", 3)
        spaced[-1] = "8,0.5,0.5,0.0"
        (tmp_path / "p.csv").write_bytes(newline.join(spaced).encode())
        with pytest.raises(DataError, match=r"p\.csv line 17: probabilities sum to zero"):
            ingest_external_posteriors(tmp_path / "p.csv", 3)

    def test_a_file_that_grew_after_its_rows_were_counted_is_a_data_error(
        self, tmp_path, monkeypatch
    ):
        (tmp_path / "x.csv").write_text("label,f0\n0,1.5\n1,2.5\n")
        write_posterior_csv(tmp_path / "p.csv", [0, 1], np.full((2, 2), 0.5))
        monkeypatch.setattr(_io, "count_rows", lambda path: 1)
        with pytest.raises(DataError, match=r"x\.csv: changed while it was read"):
            parse_embeddings(tmp_path / "x.csv", 2)
        with pytest.raises(DataError, match=r"p\.csv: changed while it was read"):
            ingest_external_posteriors(tmp_path / "p.csv", 2)


    @pytest.mark.parametrize(
        "bad, problem",
        [("7,nan,1.0", "non-finite probability"), ("7,-0.5,1.5", "negative probability"),
         ("7,0.0,0.0", "probabilities sum to zero"),
         ("7,1.0", "expected 2 probabilities, got 1"),
         ("x,0.5,0.5", "sample_id 'x' is not an integer"),
         ("7,0.5,half", "probability is not a number"), ("1,0.5,0.5", "repeated sample id"),
         (f"{1 << 64},0.5,0.5", f"sample_id {1 << 64} out of range")],
        ids=["non-finite", "negative", "zero-mass", "short-row", "bad-id", "bad-value",
             "repeated-id", "beyond-int64-id"],
    )
    def test_posterior_dump_errors_name_the_same_line(self, tmp_path, block_values, bad, problem):
        # lines: 1 header, 2 blank, 3-5 rows, 6 blank, 7 whitespace, 8 bad, 9 row
        lines = ["sample_id,p0,p1", "", "0,1.0,0.0", "1,0.5,0.5", "2,0.25,0.75", "", " \t",
                 bad, "9,0.0,1.0"]
        (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"bad.csv line 8: {problem}"):
            ingest_external_posteriors(tmp_path / "bad.csv", 2)

    def test_partial_dump_round_trip_across_blocks(self, tmp_path, block_values):
        probs = np.random.default_rng(2).dirichlet(np.ones(3), size=11)
        partial = PartialPosterior(np.log(probs), probs)
        subset = dataset.SubsetSpec(dataset.Fold.MANYSHOT, np.array([0, 1]))
        write_partial_posterior_csv(tmp_path / "e.csv", np.arange(11), partial, subset)
        _, ids, expert_ids, loaded, _ = read_partial_dump(tmp_path / "e.csv")
        assert ids.tolist() == list(range(11)) and loaded.tobytes() == probs.tobytes()
        assert expert_ids.tolist() == [int(dataset.Fold.MANYSHOT)] * 11


class _FailingWriter(io.BufferedWriter):
    """A temp file whose third write, the CSV's second row block, fails."""

    writes = 0

    def write(self, data):
        type(self).writes += 1
        if type(self).writes == 3:
            raise OSError("disk failed")
        return super().write(data)


def test_a_failed_block_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "train.csv"
    target.write_bytes(b"old")
    monkeypatch.setattr(_io, "ROW_BLOCK_VALUES", 4)
    monkeypatch.setattr(_io.os, "fdopen", lambda fd, mode: _FailingWriter(io.FileIO(fd, mode)))
    monkeypatch.setattr(_FailingWriter, "writes", 0)
    ds = EmbeddingDataset(np.ones((5, 2)), np.zeros(5, dtype=np.int64), 1)
    with pytest.raises(OSError, match="disk failed"):
        write_embeddings_csv(target, ds)
    assert _FailingWriter.writes == 3
    assert target.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["train.csv"]


def npy_bytes(array, *, fortran_order=False, version=(1, 0)) -> bytes:
    """``array`` in the npy format: a header of format ``version`` that
    declares ``fortran_order``, then the values in that order; in format 1.0
    and C order, the bytes ``np.save`` writes."""
    write_header = {
        (1, 0): np.lib.format.write_array_header_1_0,
        (2, 0): np.lib.format.write_array_header_2_0,
    }[version]
    buf = io.BytesIO()
    write_header(buf, {
        "descr": np.lib.format.dtype_to_descr(array.dtype),
        "fortran_order": fortran_order,
        "shape": array.shape,
    })
    buf.write(array.tobytes(order="F" if fortran_order else "C"))
    return buf.getvalue()


ENTRY_DAMAGES = {
    "header_only": lambda a: npy_bytes(a)[: len(npy_bytes(a)) - a.nbytes],
    "one_row_short": lambda a: npy_bytes(a)[: len(npy_bytes(a)) - a.nbytes // len(a)],
    "one_byte_short": lambda a: npy_bytes(a)[:-1],
    "float32": lambda a: npy_bytes(a.astype(np.float32)),
    # the same bytes, declared big-endian: only the dtype check tells
    "big_endian": lambda a: npy_bytes(a.view(a.dtype.newbyteorder(">"))),
    "fortran_order": lambda a: npy_bytes(a, fortran_order=True),
    "format_2_0": lambda a: npy_bytes(a, version=(2, 0)),
}


@pytest.mark.parametrize("which", ["features", "labels"])
@pytest.mark.parametrize("damage", list(ENTRY_DAMAGES))
def test_damaged_snapshot_arrays_are_data_errors(tmp_path, capsys, damage, which):
    out = tmp_path / "out"
    config = write_config_file(tmp_path, tiny_run_config(str(out)))
    assert cli.main(["gen-data", str(config)]) == 0
    path = out / "data" / SNAPSHOT
    with open(path, "rb") as fh:
        arrays = [np.load(fh, allow_pickle=False) for _ in range(6)]
    assert b"".join(map(npy_bytes, arrays)) == path.read_bytes()
    # the damage goes to the train features or labels, the rest written intact
    damaged = ("features", "labels").index(which)
    path.write_bytes(b"".join(
        ENTRY_DAMAGES[damage](array) if i == damaged else npy_bytes(array)
        for i, array in enumerate(arrays)
    ))
    capsys.readouterr()
    assert cli.main(["train-baseline", str(config)]) == 3
    assert re.fullmatch(
        f"error: data: {re.escape(str(path))}: .*; re-run `tailens gen-data`\n",
        capsys.readouterr().err,
    )


class TestTracedPeaks:
    """What each bulk read or write holds at once, as a multiple of the
    arrays it makes or reads; the whole-file versions these replace held
    2.0x (a cached bundle read) to 8x (a posterior dump) on the same
    inputs."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        bundle = generate_longtailed(PEAK_CFG, seed=0)
        directory = tmp_path_factory.mktemp("bundle")
        return bundle, save_bundle(bundle, directory)

    def test_save_bundle(self, saved, tmp_path):
        bundle, _ = saved
        _, peak = traced_peak(save_bundle, bundle, tmp_path)
        assert peak < 0.5 * bundle_arrays_nbytes(bundle)

    def test_load_bundle(self, saved):
        _, manifest = saved
        loaded, peak = traced_peak(load_bundle, manifest)
        assert peak < 1.5 * bundle_arrays_nbytes(loaded)

    def test_write_snapshot(self, saved, tmp_path):
        bundle, _ = saved
        _, peak = traced_peak(write_snapshot, bundle, tmp_path)
        assert peak < 0.5 * bundle_arrays_nbytes(bundle)

    def test_read_snapshot(self, saved, tmp_path):
        bundle, manifest = saved
        shutil.copy(manifest, tmp_path)
        write_snapshot(bundle, tmp_path)
        read, peak = traced_peak(read_snapshot, tmp_path)
        assert peak < 1.25 * bundle_arrays_nbytes(read)

    @pytest.fixture(scope="class")
    def posteriors(self):
        probs = np.random.default_rng(0).dirichlet(np.ones(60), size=2000)
        return np.arange(len(probs)), probs

    def test_write_posterior_csv(self, posteriors, tmp_path):
        ids, probs = posteriors
        _, peak = traced_peak(write_posterior_csv, tmp_path / "model.csv", ids, probs)
        assert peak < 0.5 * (probs.nbytes + ids.nbytes)

    def test_ingest_external_posteriors(self, posteriors, tmp_path):
        ids, probs = posteriors
        write_posterior_csv(tmp_path / "model.csv", ids, probs)
        # a first call imports what np.unique needs, which is no part of a read
        ingest_external_posteriors(tmp_path / "model.csv", 60)
        table, peak = traced_peak(ingest_external_posteriors, tmp_path / "model.csv", 60)
        assert table.probabilities.tobytes() == probs.tobytes()
        assert peak < 1.5 * (table.probabilities.nbytes + table.sample_ids.nbytes)

    def test_ablate_reads_a_dump_without_copying_it(self, posteriors, tmp_path, monkeypatch):
        # cmd_ablate with its bundle and its analysis stubbed out: what is
        # left is the read of the dump and the check of its ids
        ids, probs = posteriors
        write_posterior_csv(tmp_path / "model.csv", ids, probs)
        ingest_external_posteriors(tmp_path / "model.csv", 60)
        bundle = SimpleNamespace(class_count=60, test=SimpleNamespace(n=len(ids), labels=None))
        tables = {}
        monkeypatch.setattr(cli, "_bundle", lambda cfg: bundle)
        monkeypatch.setattr(cli, "frequency_folds", lambda bundle, cfg: None)
        monkeypatch.setattr(cli, "take_one_out_ablation", lambda t, *rest: tables.update(t) or {})
        cfg = SimpleNamespace(paths=SimpleNamespace(out_dir=tmp_path / "out"))
        args = SimpleNamespace(models=[tmp_path / "model.csv"])
        _, peak = traced_peak(cli.cmd_ablate, cfg, args)
        assert tables["model"].tobytes() == probs.tobytes()
        assert peak < 1.25 * (probs.nbytes + ids.nbytes)

    def test_generated_bundle_is_not_copied(self):
        bundle, peak = traced_peak(generate_longtailed, PEAK_CFG, 0)
        assert peak < 1.25 * bundle_arrays_nbytes(bundle)


def reference_generate(config, seed):
    """The generator as it was: per-class blobs concatenated, then copied."""
    freq = dataset.powerlaw_frequencies(config.class_count, config.n_max, config.alpha)
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 1.0, size=(config.class_count, config.feature_dim))

    def blob(count_per_class):
        feats, labels = [], []
        for c in range(config.class_count):
            n_c = int(count_per_class[c])
            feats.append(
                means[c] + rng.normal(0.0, config.noise_scale, size=(n_c, config.feature_dim))
            )
            labels.append(np.full(n_c, c, dtype=np.int64))
        return np.concatenate(feats), np.concatenate(labels)

    return [
        blob(freq),
        blob(np.full(config.class_count, config.n_val_per_class)),
        blob(np.full(config.class_count, config.n_test_per_class)),
    ]


@pytest.mark.parametrize("seed", [0, 7])
def test_generated_bundle_is_bitwise_the_concatenated_blobs(seed):
    bundle = generate_longtailed(CLI_CFG, seed)
    for split, (features, labels) in zip(SPLITS, reference_generate(CLI_CFG, seed)):
        ds = getattr(bundle, split)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()
        assert not ds.features.flags.writeable and not ds.labels.flags.writeable
