"""The content-addressed array cache behind ``load_bundle`` and the CLI's
``source = load`` runs."""

import hashlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from tailens.cli import main
from tailens import DataError
from tailens.dataset import (
    SyntheticConfig,
    generate_longtailed,
    load_bundle,
    save_bundle,
)

from conftest import (
    parse_embeddings,
    run_cli_pipeline,
    snapshot_tree,
    tiny_run_config,
    write_config_file,
)

SPLITS = ("train", "val", "test")
SMALL_CFG = SyntheticConfig(
    class_count=8, feature_dim=3, n_max=120, alpha=1.5,
    n_val_per_class=3, n_test_per_class=3, noise_scale=0.5,
)


@pytest.fixture
def bundle_dir(tmp_path):
    """A saved bundle; returns (manifest path, cache directory)."""
    manifest = save_bundle(generate_longtailed(SMALL_CFG, seed=3), tmp_path / "data")
    return manifest, tmp_path / "cache"


def entry_of(csv_path, cache):
    return cache / f"{hashlib.sha256(csv_path.read_bytes()).hexdigest()}.npy"


def assert_splits_equal(bundle, data_dir, class_count):
    for split in SPLITS:
        features, labels = parse_embeddings(data_dir / f"{split}.csv", class_count)
        ds = getattr(bundle, split)
        assert ds.features.dtype == features.dtype and ds.labels.dtype == labels.dtype
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()


def test_hit_returns_the_parsed_arrays_bitwise(bundle_dir):
    manifest, cache = bundle_dir
    load_bundle(manifest, cache_dir=cache)
    entries = {split: entry_of(manifest.parent / f"{split}.csv", cache) for split in SPLITS}
    assert sorted(p.name for p in cache.iterdir()) == sorted(p.name for p in entries.values())
    stamps = {split: p.stat().st_mtime_ns for split, p in entries.items()}

    hit = load_bundle(manifest, cache_dir=cache)
    assert_splits_equal(hit, manifest.parent, SMALL_CFG.class_count)
    assert {split: p.stat().st_mtime_ns for split, p in entries.items()} == stamps
    features, labels = read_entry(entries["train"])
    assert features.dtype == np.float64 and labels.dtype == np.int64
    assert features.tobytes() == hit.train.features.tobytes()
    assert labels.tobytes() == hit.train.labels.tobytes()


def read_entry(entry):
    """The features and the labels a cache entry holds, as writable arrays."""
    with open(entry, "rb") as fh:
        features = np.load(fh, allow_pickle=False)
        labels = np.load(fh, allow_pickle=False)
        assert fh.read() == b""
    return features, labels


def load_config_for(tmp_path, manifest, out):
    cfg = tiny_run_config(str(out))
    cfg = replace(cfg, dataset=replace(cfg.dataset, source="load", manifest=str(manifest)))
    return write_config_file(tmp_path / "load", cfg)


def test_edited_csv_is_a_miss_and_bad_values_still_name_the_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gen-data", str(write_config_file(tmp_path, tiny_run_config(str(out))))]) == 0
    manifest = out / "data" / "manifest.json"
    config = load_config_for(tmp_path, manifest, tmp_path / "load_out")
    cache = tmp_path / "load_out" / "cache"
    assert main(["gen-data", str(config)]) == 0
    assert len(list(cache.iterdir())) == 3

    train = manifest.parent / "train.csv"
    text = train.read_text()
    at = text.index("\n", text.index("\n") + 1) - 1  # last digit of line 2
    digit = text[at]
    train.write_text(text[:at] + ("1" if digit != "1" else "2") + text[at + 1 :])
    assert main(["gen-data", str(config)]) == 0
    assert len(list(cache.iterdir())) == 4
    assert entry_of(train, cache).is_file()

    lines = train.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:-1] + ["nan"])
    train.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["gen-data", str(config)]) == 3
    assert "train.csv line 3: non-finite feature" in capsys.readouterr().err
    assert len(list(cache.iterdir())) == 4


def npy_bytes(table) -> bytes:
    buf = io.BytesIO()
    np.save(buf, table)
    return buf.getvalue()


@pytest.mark.parametrize(
    "damage",
    ["truncated", "garbage", "empty", "one_dimensional", "nan_feature",
     "float_labels", "negative_label", "label_too_large", "integer_features",
     "one_label_short", "no_features", "no_rows", "oversized", "single_table"],
)
def test_bad_entry_is_a_miss_and_is_rewritten(bundle_dir, damage):
    manifest, cache = bundle_dir
    load_bundle(manifest, cache_dir=cache)
    entry = entry_of(manifest.parent / "train.csv", cache)
    good = entry.read_bytes()
    features, labels = read_entry(entry)
    assert npy_bytes(features) + npy_bytes(labels) == good
    if damage == "truncated":
        bad = good[: len(good) // 2]
    elif damage == "garbage":
        bad = b"not an array at all\n" * 10
    elif damage == "empty":
        bad = b""
    elif damage == "oversized":
        # a header that declares terabytes of features over the entry's bytes,
        # sized against the file before anything is allocated
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(header, {
            "descr": "<f8", "fortran_order": False, "shape": (1 << 40, features.shape[1]),
        })
        bad = header.getvalue() + good
    elif damage == "single_table":
        # the layout entries had before: the labels as column 0 of one table
        bad = npy_bytes(np.column_stack((labels.astype(np.float64), features)))
    else:
        if damage == "one_dimensional":
            features = features.ravel()
        # the same bytes under another dtype: only the dtype check tells
        elif damage == "float_labels":
            labels = labels.view(np.float64)
        elif damage == "integer_features":
            features = features.view(np.int64)
        elif damage == "one_label_short":
            labels = labels[:-1]
        elif damage == "no_features":
            features = features[:, :0]
        elif damage == "no_rows":
            features, labels = features[:0], labels[:0]
        elif damage == "nan_feature":
            features[1, 1] = np.nan
        else:
            labels[1] = {"negative_label": -1, "label_too_large": SMALL_CFG.class_count}[damage]
        bad = npy_bytes(features) + npy_bytes(labels)
    entry.write_bytes(bad)

    bundle = load_bundle(manifest, cache_dir=cache)
    assert_splits_equal(bundle, manifest.parent, SMALL_CFG.class_count)
    assert entry.read_bytes() == good


def test_lower_class_count_still_names_the_out_of_range_line(bundle_dir):
    manifest, cache = bundle_dir
    load_bundle(manifest, cache_dir=cache)
    payload = json.loads(manifest.read_text())
    payload["class_count"] = 3
    manifest.write_text(json.dumps(payload))
    lines = (manifest.parent / "train.csv").read_text().splitlines()
    line_no, label = next(
        (i + 1, int(line.split(",")[0]))
        for i, line in enumerate(lines)
        if i and int(line.split(",")[0]) >= 3
    )
    with pytest.raises(DataError, match=rf"train\.csv line {line_no}: label {label} out of range \[0, 3\)"):
        load_bundle(manifest, cache_dir=cache)


def test_load_chain_reruns_are_byte_identical_with_the_cache(tmp_path):
    gen_out = tmp_path / "gen"
    assert main(["gen-data", str(write_config_file(tmp_path, tiny_run_config(str(gen_out))))]) == 0
    manifest = gen_out / "data" / "manifest.json"
    snaps = []
    for i, threads in enumerate((1, 1, 3)):
        out = tmp_path / f"run{i}"
        run_cli_pipeline(load_config_for(tmp_path / f"c{i}", manifest, out), threads=threads)
        snaps.append(snapshot_tree(out))
    first = snaps[0]
    assert sum(name.startswith("cache/") for name in first) == 3
    for other, what in zip(snaps[1:], ("between reruns", "across threads")):
        assert other.keys() == first.keys()
        for name in first:
            assert other[name] == first[name], f"{name} differs {what}"


def test_gen_data_on_a_loaded_bundle_copies_the_input_bytes(tmp_path):
    # inputs under other names and in a hand-written number format that
    # parses to the same arrays but is not what save_bundle would write
    source = save_bundle(generate_longtailed(SMALL_CFG, seed=3), tmp_path / "src")
    names = {}
    for split in SPLITS:
        lines = (source.parent / f"{split}.csv").read_text().splitlines()
        lines[1] = lines[1].replace(",", ", ").replace(", ", ",", 1) + " "
        names[split] = f"my_{split}.csv"
        (source.parent / names[split]).write_text("\n".join(lines) + "\n\n")
    payload = json.loads(source.read_text())
    payload.update(names)
    manifest = source.parent / "mine.json"
    manifest.write_text(json.dumps(payload))

    out = tmp_path / "out"
    assert main(["gen-data", str(load_config_for(tmp_path, manifest, out))]) == 0
    data = out / "data"
    assert sorted(p.name for p in data.iterdir()) == sorted(
        ["manifest.json"] + [f"{s}.csv" for s in SPLITS]
    )
    for split in SPLITS:
        assert (data / f"{split}.csv").read_bytes() == (source.parent / names[split]).read_bytes()
    assert json.loads((data / "manifest.json").read_text()) == json.loads(source.read_text())
    copied, loaded = load_bundle(data / "manifest.json"), load_bundle(manifest)
    for split in SPLITS:
        a, b = getattr(copied, split), getattr(loaded, split)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
