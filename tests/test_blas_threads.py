"""What "byte-identical reruns" means when BLAS runs more than one thread.

The CLI chain of the benchmark's cli-embed256 workload (a 256-d CSV bundle
of 60 classes) runs in two processes, with ``OPENBLAS_NUM_THREADS`` at 1
and at 2. Every ``out_dir`` file is byte-equal across the two, except the
files of the stacker's and the calibration's fits: their Newton steps form
Grams, long dots and a Cholesky solve that OpenBLAS sums in another order
on two threads. The test fails if any other file differs; a change that
makes those two thread-independent as well takes them out of
``BLAS_DEPENDENT``."""

import os
import subprocess
import sys
from pathlib import Path

from tailens.dataset import SyntheticConfig, generate_longtailed, save_bundle

ROOT = Path(__file__).resolve().parents[1]
WORLD = SyntheticConfig(
    class_count=60, feature_dim=256, n_max=200, alpha=1.2,
    n_val_per_class=10, n_test_per_class=10, noise_scale=1.0,
)
CHAIN = """
import contextlib, io, sys
from pathlib import Path
from tailens import cli
ini, out = sys.argv[1], Path(sys.argv[2])
dumps = [str(out / "dumps" / f"{m}_test.csv") for m in ("baseline", "uniform", "experts")]
steps = [["gen-data"], ["train-baseline"], ["train-experts"]]
steps += [["dump-posteriors", "--model", m] for m in ("baseline", "uniform", "experts")]
for s in ("select", "stack", "calibrate"):
    steps += [["train-fusion", "--strategy", s], ["evaluate", "--strategy", s]]
steps += [["oracle"], ["ablate", "--models", *dumps], ["report"]]
with contextlib.redirect_stdout(io.StringIO()):
    for step in steps:
        code = cli.main([step[0], ini, *step[1:]])
        assert code == 0, f"{step} exited {code}"
"""
OUT_FILES = {
    *(f"checkpoints/{n}.ckpt" for n in ("baseline", "uniform", "expert_manyshot",
                                         "expert_mediumshot", "expert_fewshot")),
    "checkpoints/selection_tables.json", "checkpoints/train_traces.json",
    "data/bundle.npy", "data/manifest.json", "data/train.csv", "data/val.csv", "data/test.csv",
    *(f"dumps/{m}_test.csv" for m in ("baseline", "uniform", "experts")),
    *(f"fusion/{s}.params" for s in ("select", "stack", "calibrate")),
    *(f"reports/eval_{s}.{x}" for s in ("select", "stack", "calibrate") for x in ("json", "txt")),
    "reports/oracle.json", "reports/oracle.txt", "reports/ablation.json",
    "reports/confusion_softvote.csv", "reports/confusion_calibrate.csv",
    *(f"reports/msp_{n}.csv" for n in ("manyshot", "mediumshot", "fewshot")),
}
BLAS_DEPENDENT = {"fusion/stack.params", "fusion/calibrate.params"}


def start_chain(tmp_path: Path, manifest: Path, blas_threads: int):
    """The chain on ``manifest`` in a process of its own; returns the
    process and its out_dir."""
    out = tmp_path / f"blas{blas_threads}"
    ini = tmp_path / f"blas{blas_threads}.ini"
    ini.write_text(
        f"[dataset]\nsource = load\nmanifest = {manifest}\n"
        "[training]\nlr0 = 0.2\nepochs = 20\nbatch_size = 128\nseed = 0\n"
        "hidden_dims = 64\nexpert_epochs = 20\n"
        "[expert]\nrho_grid = 2.0,8.0\nfrozen_grid = 0,1\n"
        f"[paths]\nout_dir = {out}\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", CHAIN, str(ini), str(out)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    return proc, out


def test_only_the_stack_and_calibrate_fits_depend_on_blas_threads(tmp_path):
    manifest = save_bundle(generate_longtailed(WORLD, seed=0), tmp_path / "inputs")
    # both chains at once: the bits depend on the thread count, not the load
    runs = [start_chain(tmp_path, manifest, n) for n in (1, 2)]
    errors = [proc.communicate(timeout=120)[1] for proc, _ in runs]
    for (proc, _), err in zip(runs, errors):
        assert proc.returncode == 0, err
    one, two = (
        {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        for _, out in runs
    )
    assert one.keys() == two.keys() == OUT_FILES
    differ = {name for name in OUT_FILES if one[name] != two[name]}
    assert differ <= BLAS_DEPENDENT, sorted(differ - BLAS_DEPENDENT)
