"""The data snapshot: ``gen-data`` alone reads the ``[dataset]`` source and
writes ``out_dir/data/bundle.npy`` beside its manifest; every later
command reads the bundle from those two files."""

import io
import json
import re

import numpy as np
import pytest

from tailens.cli import main
from tailens.dataset import SNAPSHOT, load_bundle, read_snapshot, save_bundle
from tailens.pipeline import prepare_bundle

from conftest import (
    run_cli_pipeline,
    snapshot_tree,
    tiny_run_config,
    write_config_file,
    write_load_config,
)

SPLITS = ("train", "val", "test")
# every command after gen-data, each with the arguments it needs; each one
# reads the bundle before anything else
LATER_COMMANDS = [
    ("train-baseline",), ("train-experts",), ("dump-posteriors", "--model", "baseline"),
    ("train-fusion", "--strategy", "stack"), ("evaluate", "--strategy", "softvote"),
    ("oracle",), ("ablate", "--models", "a.csv", "b.csv"), ("report",),
]


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def bundle_arrays(bundle) -> list[np.ndarray]:
    """Each split's features, then its labels, in split order."""
    return [a for s in SPLITS for a in (getattr(bundle, s).features, getattr(bundle, s).labels)]


def snapshot_arrays(path) -> list[np.ndarray]:
    """The six arrays a snapshot holds, as writable arrays."""
    with open(path, "rb") as fh:
        arrays = [np.load(fh, allow_pickle=False) for _ in range(6)]
        assert fh.read() == b""
    return arrays


@pytest.fixture
def generated(tmp_path):
    """A tiny config after ``gen-data``: its path and its out_dir."""
    out = tmp_path / "out"
    config = write_config_file(tmp_path, tiny_run_config(str(out)))
    assert main(["gen-data", str(config)]) == 0
    return config, out


@pytest.mark.parametrize("source", ["generate", "load"])
def test_snapshot_holds_the_bundle_bitwise(tmp_path, source):
    out = tmp_path / "out"
    config = write_config_file(tmp_path, tiny_run_config(str(out)))
    bundle = prepare_bundle(tiny_run_config(str(out)))
    if source == "load":
        config = write_load_config(tmp_path, save_bundle(bundle, tmp_path / "inputs"), out)
    assert main(["gen-data", str(config)]) == 0
    want = bundle_arrays(bundle)
    # the bytes np.save writes for each array in turn
    assert (out / "data" / SNAPSHOT).read_bytes() == b"".join(map(npy_bytes, want))
    read = read_snapshot(out / "data")
    assert read.class_count == bundle.class_count
    for got, expected in zip(bundle_arrays(read), want):
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert not got.flags.writeable


def test_later_commands_read_the_snapshot_until_gen_data_runs_again(tmp_path, capsys):
    source = save_bundle(prepare_bundle(tiny_run_config("unused")), tmp_path / "inputs")
    out = tmp_path / "out"
    config = write_load_config(tmp_path, source, out)
    assert main(["gen-data", str(config)]) == 0
    checked = read_snapshot(out / "data").train.features.tobytes()

    train = source.parent / "train.csv"
    text = train.read_text()
    at = text.index("\n", text.index("\n") + 1) - 1  # last digit of line 2
    train.write_text(text[:at] + ("1" if text[at] != "1" else "2") + text[at + 1 :])
    assert read_snapshot(out / "data").train.features.tobytes() == checked
    assert main(["gen-data", str(config)]) == 0
    edited = read_snapshot(out / "data").train.features.tobytes()
    assert edited != checked and edited == load_bundle(source).train.features.tobytes()

    lines = train.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:-1] + ["nan"])
    train.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["gen-data", str(config)]) == 3
    assert "train.csv line 3: non-finite feature" in capsys.readouterr().err
    # the gen-data that failed removed the snapshot it could not renew
    assert not (out / "data" / SNAPSHOT).exists()
    assert main(["train-baseline", str(config)]) == 3
    assert capsys.readouterr().err == (
        f"error: data: {out / 'data' / SNAPSHOT} is missing; run `tailens gen-data` first\n"
    )


@pytest.mark.parametrize("command", LATER_COMMANDS, ids=lambda c: c[0])
def test_every_later_command_needs_gen_data(tmp_path, capsys, command):
    out = tmp_path / "out"
    config = write_config_file(tmp_path, tiny_run_config(str(out)))
    assert main([command[0], str(config), *command[1:]]) == 3
    assert capsys.readouterr().err == (
        f"error: data: {out / 'data' / 'manifest.json'} is missing; "
        "run `tailens gen-data` first\n"
    )
    assert main(["gen-data", str(config)]) == 0
    (out / "data" / SNAPSHOT).unlink()
    assert main([command[0], str(config), *command[1:]]) == 3
    assert capsys.readouterr().err.endswith(
        f"{out / 'data' / SNAPSHOT} is missing; run `tailens gen-data` first\n"
    )


def rest(arrays) -> bytes:
    """The val and test arrays of a snapshot, as written."""
    return b"".join(map(npy_bytes, arrays[2:]))


def with_train(edit):
    """A damage that rewrites the train features and labels with ``edit``."""
    return lambda good, arrays: b"".join(map(npy_bytes, edit(*arrays[:2]))) + rest(arrays)


def put(array, index, value):
    array[index] = value
    return array


def oversized(good, arrays):
    # a header that declares terabytes of features over the snapshot's
    # bytes, sized against the file before anything is allocated
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": "<f8", "fortran_order": False, "shape": (1 << 40, arrays[0].shape[1]),
    })
    return header.getvalue() + good


SNAPSHOT_DAMAGES = {
    "truncated": lambda good, arrays: good[: len(good) // 2],
    "garbage": lambda good, arrays: b"not an array at all\n" * 10,
    "empty": lambda good, arrays: b"",
    "trailing_bytes": lambda good, arrays: good + b"\0",
    "oversized": oversized,
    # the layout of a split before: its labels as column 0 of one table
    "single_table": lambda good, arrays: npy_bytes(
        np.column_stack((arrays[1].astype(np.float64), arrays[0]))
    ) + rest(arrays),
    "one_dimensional": with_train(lambda f, l: (f.ravel(), l)),
    # the same bytes under another dtype: only the dtype check tells
    "float_labels": with_train(lambda f, l: (f, l.view(np.float64))),
    "integer_features": with_train(lambda f, l: (f.view(np.int64), l)),
    "one_label_short": with_train(lambda f, l: (f, l[:-1])),
    "no_features": with_train(lambda f, l: (f[:, :0], l)),
    "no_rows": with_train(lambda f, l: (f[:0], l[:0])),
    "nan_feature": with_train(lambda f, l: (put(f, (1, 1), np.nan), l)),
    "negative_label": with_train(lambda f, l: (f, put(l, 1, -1))),
    "label_too_large": with_train(lambda f, l: (f, put(l, 1, 6))),
    "narrower_val": lambda good, arrays: b"".join(
        map(npy_bytes, [*arrays[:2], arrays[2][:, :-1], *arrays[3:]])
    ),
}


@pytest.mark.parametrize("damage", list(SNAPSHOT_DAMAGES))
def test_damaged_snapshot_is_a_data_error(generated, capsys, damage):
    config, out = generated
    path = out / "data" / SNAPSHOT
    good = path.read_bytes()
    arrays = snapshot_arrays(path)
    assert b"".join(map(npy_bytes, arrays)) == good
    path.write_bytes(SNAPSHOT_DAMAGES[damage](good, arrays))
    capsys.readouterr()
    assert main(["train-baseline", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: data: {path}: ") and err.count("\n") == 1, err
    assert err.endswith("; re-run `tailens gen-data`\n"), err
    assert not (out / "checkpoints").exists()


@pytest.mark.parametrize(
    "edit, message",
    [({"class_count": 3}, rf"{SNAPSHOT}: labels must lie in \[0, 3\)"),
     ({"feature_dim": 256}, f"{SNAPSHOT}: 4 features, manifest.json states 256"),
     ({"class_count": "6"}, "manifest.json: class_count '6' is not an integer"),
     ({"feature_dim": None}, f"{SNAPSHOT}: 4 features, manifest.json states None"),
     ({"format": "other"}, "manifest.json: unsupported manifest format 'other'")],
    ids=["lower-class-count", "other-feature-dim", "text-class-count", "no-feature-dim",
         "other-format"],
)
def test_snapshot_that_disagrees_with_its_manifest_is_a_data_error(
    generated, capsys, edit, message
):
    config, out = generated
    manifest = out / "data" / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload.update(edit)
    manifest.write_text(json.dumps({k: v for k, v in payload.items() if v is not None}))
    capsys.readouterr()
    assert main(["train-baseline", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data: ") and err.count("\n") == 1, err
    assert re.search(message, err), err
    assert err.endswith("; re-run `tailens gen-data`\n"), err


def test_load_chain_reruns_are_byte_identical(tmp_path):
    gen_out = tmp_path / "gen"
    assert main(["gen-data", str(write_config_file(tmp_path, tiny_run_config(str(gen_out))))]) == 0
    manifest = gen_out / "data" / "manifest.json"
    snaps = []
    for i, threads in enumerate((1, 1, 3)):
        out = tmp_path / f"run{i}"
        run_cli_pipeline(write_load_config(tmp_path / f"c{i}", manifest, out), threads=threads)
        snaps.append(snapshot_tree(out))
    first = snaps[0]
    assert f"data/{SNAPSHOT}" in first and not any(name.startswith("cache/") for name in first)
    for other, what in zip(snaps[1:], ("between reruns", "across threads")):
        assert other.keys() == first.keys()
        for name in first:
            assert other[name] == first[name], f"{name} differs {what}"


def test_gen_data_on_a_loaded_bundle_copies_the_input_bytes(tmp_path):
    # inputs under other names and in a hand-written number format that
    # parses to the same arrays but is not what save_bundle would write
    source = save_bundle(prepare_bundle(tiny_run_config("unused", seed=3)), tmp_path / "src")
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
    assert main(["gen-data", str(write_load_config(tmp_path, manifest, out))]) == 0
    data = out / "data"
    assert sorted(p.name for p in data.iterdir()) == sorted(
        ["manifest.json", SNAPSHOT] + [f"{s}.csv" for s in SPLITS]
    )
    for split in SPLITS:
        assert (data / f"{split}.csv").read_bytes() == (source.parent / names[split]).read_bytes()
    assert json.loads((data / "manifest.json").read_text()) == json.loads(source.read_text())
    loaded = bundle_arrays(load_bundle(manifest))
    for bundle in (load_bundle(data / "manifest.json"), read_snapshot(data)):
        assert [a.tobytes() for a in bundle_arrays(bundle)] == [a.tobytes() for a in loaded]
