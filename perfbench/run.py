"""tailens benchmark: one workload in one process.

    python3 perfbench/run.py --workload synth60 --seed 0 --seconds 45 --trace 0

Workloads: ``synth60`` and ``cli-embed256`` (see ``workloads.py`` for why
each exists). Run from the repository root; the package is imported from
``src/`` as it stands, nothing is installed.

With ``--trace 0`` the workload repeats its timed phase while another
repetition still fits in ``--seconds`` (at least once) and prints the
end-to-end metrics as medians over repetitions. With ``--trace 1`` it runs
one untraced repetition, then wraps the program's public functions and runs
one traced repetition; it prints the per-layer metrics and checks that both
repetitions reached the same accuracies exactly.

``setup_s`` is the interpreter's import time, measured once, plus the median
of the workload's input set-up, run at least ``SETUP_REPS`` times and until
the runs took ``SETUP_MIN_S``. The last line of standard output is the
result JSON; the environment record is the line before it, and spans and
the environment are also written under ``perfbench/.runs/``. Exit status 2
means the sources or the workload could not be found.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import os  # noqa: E402

# BLAS and OpenMP pools are pinned to one thread before numpy loads: the
# default two-thread OpenBLAS made synth-60 training about 25% slower on 2 vCPUs.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
INHERITED_THREAD_VARS = {v: os.environ.get(v) for v in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"
SETUP_REPS = 3
SETUP_MIN_S = 0.5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cgroup_cpu_quota():
    """CPUs the cgroup allows (quota / period), or None when unlimited."""
    v2 = Path("/sys/fs/cgroup/cpu.max")
    v1 = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    try:
        if v2.is_file():
            quota, period = v2.read_text().split()[:2]
        elif v1.is_file():
            quota = v1.read_text().strip()
            period = (v1.parent / "cpu.cfs_period_us").read_text().strip()
        else:
            return None
    except (OSError, ValueError):
        return None
    if quota in ("max", "-1"):
        return None
    return int(quota) / int(period)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "machine": platform.machine(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_inherited": INHERITED_THREAD_VARS,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(reps, setup_s: float) -> dict:
    med = lambda key: statistics.median(getattr(r, key) for r in reps)  # noqa: E731
    acc_all, acc_few = reps[0].headline
    return {
        "setup_s": (setup_s, "s"),
        "total_s": (med("total_s"), "s"),
        "train_s": (med("train_s"), "s"),
        "fuse_s": (med("fuse_s"), "s"),
        "train_rows_per_s": (statistics.median(r.rows / r.train_s for r in reps), "rows/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "acc_all": (acc_all, "ratio"),
        "acc_few": (acc_few, "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tailens" / "__init__.py").is_file():
        print(f"error: tailens sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    workload = workloads.WORKLOADS[args.workload]

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"{label}-{os.getpid()}"
    ops = workloads.Ops()
    metrics = {}
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        def rep(i, tracer, timed=False):
            try:
                return workload.run(state, tracer, ops, workdir / f"rep{i}", timed)
            finally:
                shutil.rmtree(workdir / f"rep{i}", ignore_errors=True)

        if args.trace == 0:
            reps = []
            started = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                reps.append(rep(len(reps), tracing.Tracer(), timed=True))
                now = time.perf_counter()
                if (now - started) + (now - t0) > args.seconds:
                    break
            for r in reps[1:]:
                ops.check(r.fusion_acc == reps[0].fusion_acc,
                          "accuracies must repeat exactly across repetitions")
            metrics = end_to_end(reps, setup_s)
        else:
            untraced = rep(0, tracing.Tracer())
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
            with tracer.span("phase.setup"):
                state = workload.setup(args.seed, workdir)
            traced = rep(1, tracer)
            ops.check(
                traced.fusion_acc == untraced.fusion_acc
                and traced.oracle_acc == untraced.oracle_acc,
                "tracing changed the accuracies",
            )
            spans = layers.SpanIndex(tracer.spans)
            index = spans.restrict_to(spans.by_name["phase.total"][0])
            setup = spans.restrict_to(spans.by_name["phase.setup"][0])
            train = index.spans[index.by_name["phase.train"][0]]
            traced_rows = sum(
                s.attrs["rows"]
                for kind in layers.SAMPLERS
                for s in index.of(f"dataset.draw_batch.{kind}")
                if train.start <= s.start and s.end <= train.end
            )
            ops.check(traced_rows == traced.rows,
                      f"traced SGD rows {traced_rows} != expected {traced.rows}")
            values = layers.per_layer_metrics(
                index, setup, traced, traced.total_s - untraced.total_s
            )
            metrics = {k: (v, layers.unit_of(k)) for k, v in values.items()}
            RUNS.mkdir(parents=True, exist_ok=True)
            tracer.write(RUNS / f"{label}.spans.json")
    except workloads.Failed:
        pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    RUNS.mkdir(parents=True, exist_ok=True)
    (RUNS / f"{label}.env.json").write_text(json.dumps(env, indent=2) + "\n")
    for err in ops.errors:
        print(f"error: {err}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": ops.failed == 0 and bool(metrics),
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
