"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 4-7 run on the pinned synth-60 benchmark (60 power-law
classes, 16 dims, 5 seeds) shared through the session fixture; directional
criteria must hold in at least 4 of the 5 seeds.
"""

import time

import numpy as np
import pytest

import tailens as t
from tailens.cli import main as cli_main
from tailens.config import serialize_config
from tailens.dataset import (
    DatasetBundle,
    EmbeddingDataset,
    Fold,
    SubsetSpec,
    assign_folds,
    load_bundle,
    save_bundle,
)
from tailens.fusion import (
    CalibrationParams,
    LinearSoftmaxModel,
    expand_partial,
    fuse_by_selection,
    fuse_by_stacking,
    fuse_calibrated,
    fuse_kl_min,
    fuse_soft_vote,
)
from tailens.network import init_network, softmax

from conftest import (
    imagenet_lt_like_frequencies,
    majority,
    places_lt_like_frequencies,
    run_cli_pipeline,
    snapshot_tree,
    tiny_run_config,
    write_config_file,
)
from gradient_checks import calibration_finite_diff_check, finite_diff_check


def _criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


def _random_subset_world(rng, class_count):
    """Random 3-way partition of the class space plus random partials."""
    order = rng.permutation(class_count)
    cuts = np.sort(rng.choice(np.arange(1, class_count), size=2, replace=False))
    return [
        SubsetSpec(Fold.MANYSHOT, np.sort(order[: cuts[0]])),
        SubsetSpec(Fold.MEDIUMSHOT, np.sort(order[cuts[0] : cuts[1]])),
        SubsetSpec(Fold.FEWSHOT, np.sort(order[cuts[1] :])),
    ]


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    worst_net = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dims = [int(rng.integers(2, 6)), int(rng.integers(3, 8)), int(rng.integers(2, 5))]
        params = init_network(dims, seed=seed)
        x = rng.normal(size=(5, dims[0]))
        y = rng.integers(0, dims[-1], size=5)
        worst_net = max(worst_net, finite_diff_check(params, x, y))

    worst_cal = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        class_count = int(rng.integers(4, 7))
        subsets = _random_subset_world(rng, class_count)
        logits = [rng.normal(size=(8, s.size + 1)) for s in subsets]
        labels = rng.integers(0, class_count, size=8)
        params = CalibrationParams(
            scales=tuple(rng.normal(1.0, 0.2, size=s.size + 1) for s in subsets),
            shifts=tuple(rng.normal(0.0, 0.2, size=s.size + 1) for s in subsets),
        )
        worst_cal = max(
            worst_cal,
            calibration_finite_diff_check(logits, subsets, labels, class_count, params),
        )
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "network and calibration gradients match finite differences",
        worst_net < 1e-4 and worst_cal < 1e-4 and elapsed < 10.0,
        f"net={worst_net:.2e} cal={worst_cal:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_2_fusion_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    # (a) identity calibration reproduces soft-voting
    subsets = _random_subset_world(rng, 8)
    logits = [rng.normal(size=(50, s.size + 1)) for s in subsets]
    calib = CalibrationParams.identity([s.size + 1 for s in subsets])
    q_cal = fuse_calibrated(logits, calib, subsets, 8)
    q_sv = fuse_soft_vote([softmax(z) for z in logits], subsets, 8)
    identity_gap = float(np.max(np.abs(q_cal - q_sv)))

    # (b) KL minimization with one full-coverage expert returns its posterior
    full = SubsetSpec(Fold.MANYSHOT, np.arange(6))
    kl_gap = 0.0
    for _ in range(20):
        p = np.append(rng.dirichlet(np.ones(6)), 0.0)
        result = fuse_kl_min([p], [full], 6)
        kl_gap = max(kl_gap, float(np.max(np.abs(result.probabilities - p[:6]))))

    # (c) the reject correction multiplies reject odds by exactly rho
    odds_gap = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        z = rng.normal(size=k + 1)
        rho = float(rng.uniform(1.0, 20.0))
        p = softmax(z)
        corrected = z.copy()
        corrected[-1] += np.log(rho)
        pc = softmax(corrected)
        for j in range(k):
            lhs = pc[-1] / pc[j]
            rhs = rho * p[-1] / p[j]
            odds_gap = max(odds_gap, abs(lhs - rhs) / rhs)

    # (d) every fusion output is a normalized distribution, 1000 random partials
    norm_gap = 0.0
    n_rows = 0
    while n_rows < 1000:
        class_count = int(rng.integers(5, 12))
        subsets = _random_subset_world(rng, class_count)
        batch = int(rng.integers(20, 60))
        n_rows += batch
        partials = [rng.dirichlet(np.ones(s.size + 1), size=batch) for s in subsets]
        logits = [np.log(p + 1e-12) for p in partials]
        widths = [s.size + 1 for s in subsets]
        outputs = [
            fuse_soft_vote(partials, subsets, class_count),
            fuse_kl_min(partials, subsets, class_count).probabilities,
            fuse_by_selection(
                partials,
                LinearSoftmaxModel(init_network([sum(widths), 3], seed=1)),
                subsets,
                class_count,
            ),
            fuse_by_stacking(
                partials,
                LinearSoftmaxModel(init_network([sum(widths), class_count], seed=2)),
            ),
            fuse_calibrated(
                logits,
                CalibrationParams(
                    scales=tuple(rng.normal(1.0, 0.3, size=w) for w in widths),
                    shifts=tuple(rng.normal(0.0, 0.3, size=w) for w in widths),
                ),
                subsets,
                class_count,
            ),
        ]
        for q in outputs:
            norm_gap = max(norm_gap, float(np.max(np.abs(q.sum(axis=-1) - 1.0))))

    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "fusion identities hold",
        identity_gap <= 1e-12
        and kl_gap <= 1e-6
        and odds_gap <= 1e-9
        and norm_gap <= 1e-9
        and elapsed < 30.0,
        f"calib-id={identity_gap:.1e} kl={kl_gap:.1e} odds={odds_gap:.1e} "
        f"norm={norm_gap:.1e} elapsed={elapsed:.1f}s",
    )


def test_criterion_3_kl_matches_grid_search():
    start = time.perf_counter()
    resolution = 1000
    # the whole 3-class simplex at the given resolution, built once
    pairs = [(i, j) for i in range(resolution + 1) for j in range(resolution + 1 - i)]
    grid = np.array(
        [(i / resolution, j / resolution, (resolution - i - j) / resolution) for i, j in pairs]
    )

    def grid_search(partials, subsets):
        """Independent oracle: evaluate the KL objective on every point of
        the simplex grid and take the argmin."""
        total = np.zeros(len(grid))
        for p, s in zip(partials, subsets):
            k = len(s.classes)
            a_in = np.maximum(grid[:, s.classes], 1e-300)
            for local in range(k):
                if p[local] > 0:
                    total += p[local] * (np.log(p[local]) - np.log(a_in[:, local]))
            out = [c for c in range(3) if c not in set(s.classes.tolist())]
            if out and p[k] > 0:
                rej = np.maximum(grid[:, out].sum(axis=1), 1e-300)
                total += p[k] * (np.log(p[k]) - np.log(rej))
        return grid[np.argmin(total)]

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        split = int(rng.integers(1, 3))
        sa = SubsetSpec(Fold.MANYSHOT, np.arange(split))
        sb = SubsetSpec(Fold.FEWSHOT, np.arange(split, 3))
        pa = rng.dirichlet(np.ones(split + 1))
        pb = rng.dirichlet(np.ones(3 - split + 1))
        fused = fuse_kl_min([pa, pb], [sa, sb], 3)
        oracle = grid_search([pa, pb], [sa, sb])
        worst = max(worst, float(np.max(np.abs(fused.probabilities - oracle))))
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        "KL fusion matches simplex grid search",
        worst <= 2e-3 and elapsed < 120.0,
        f"worst-coordinate={worst:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_4_oracle_effect(benchmark_runs):
    runs, build_seconds = benchmark_runs
    flags = []
    details = []
    for r in runs:
        gain = r.oracle_report.all - r.baseline_report.all
        ratio = r.oracle_report.few / r.oracle_report.many
        flags.append(gain >= 0.05 and ratio >= 0.8)
        details.append(f"seed {r.seed}: gain={gain:+.3f} few/many={ratio:.3f}")
    _criterion(
        4,
        "oracle beats baseline by 5+ points with fewshot near manyshot",
        majority(flags) and build_seconds < 600.0,
        "; ".join(details) + f"; benchmark build {build_seconds:.0f}s",
    )


def test_criterion_5_fusion_ordering(benchmark_runs):
    runs, _ = benchmark_runs
    flags = []
    details = []
    for r in runs:
        all_ok = r.calibrate_report.all >= r.softvote_report.all
        few_gap = r.calibrate_report.few - r.softvote_report.few
        few_ok = r.softvote_report.few >= r.calibrate_report.few or abs(few_gap) <= 0.02
        flags.append(all_ok and few_ok)
        details.append(
            f"seed {r.seed}: dAll={r.calibrate_report.all - r.softvote_report.all:+.3f} "
            f"dFew={few_gap:+.3f}"
        )
    _criterion(
        5,
        "calibration wins all-accuracy without gaining fewshot beyond 2 points",
        majority(flags),
        "; ".join(details),
    )


def test_criterion_6_take_one_out(benchmark_runs):
    runs, _ = benchmark_runs
    flags = []
    details = []
    for r in runs:
        full = r.ablation["ensemble"]
        without = r.ablation["without experts"]
        few_drops = without.few < full.few
        many_rises = without.many > full.many
        flags.append(few_drops and many_rises)
        details.append(
            f"seed {r.seed}: few {full.few:.3f}->{without.few:.3f} "
            f"many {full.many:.3f}->{without.many:.3f}"
        )
    _criterion(
        6,
        "removing experts lowers fewshot and raises manyshot accuracy",
        majority(flags),
        "; ".join(details),
    )


def test_criterion_7_collision_reduction(benchmark_runs):
    runs, _ = benchmark_runs
    flags = [r.diag_calibrate >= r.diag_softvote for r in runs]
    details = [
        f"seed {r.seed}: diag {r.diag_softvote:.1f}->{r.diag_calibrate:.1f}"
        for r in runs
    ]
    _criterion(
        7,
        "joint calibration does not lose expert-attribution diagonal mass",
        majority(flags),
        "; ".join(details),
    )


def test_criterion_8_determinism(tmp_path):
    # byte-level reproducibility and thread independence on a fast pipeline
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    run_cli_pipeline(write_config_file(tmp_path / "ca", tiny_run_config(str(out_a))))
    run_cli_pipeline(write_config_file(tmp_path / "cb", tiny_run_config(str(out_b))))
    run_cli_pipeline(
        write_config_file(tmp_path / "cc", tiny_run_config(str(out_c))), threads=3
    )
    snap_a, snap_b, snap_c = map(snapshot_tree, (out_a, out_b, out_c))
    same_files = snap_a.keys() == snap_b.keys() == snap_c.keys()
    identical = same_files and all(
        snap_a[name] == snap_b[name] == snap_c[name] for name in snap_a
    )

    # the benchmark config itself drives the pipeline end to end
    bench_out = tmp_path / "bench"
    bench_cfg = t.synth60_config(seed=0, out_dir=str(bench_out))
    cfg_path = tmp_path / "bench.ini"
    cfg_path.write_text(serialize_config(bench_cfg))
    codes = [
        cli_main(["gen-data", str(cfg_path)]),
        cli_main(["train-baseline", str(cfg_path)]),
        cli_main(["train-experts", str(cfg_path)]),
        cli_main(["train-fusion", str(cfg_path), "--strategy", "calibrate"]),
        cli_main(["evaluate", str(cfg_path), "--strategy", "calibrate"]),
    ]
    _criterion(
        8,
        "pipeline reruns byte-identical, thread-count independent, benchmark "
        "config completes end to end",
        identical and all(c == 0 for c in codes),
        f"files={len(snap_a)} benchmark-exit-codes={codes}",
    )


def test_criterion_9_dataset_shape_fidelity(tmp_path):
    results = {}
    for name, freq, expected in (
        ("imagenet-lt", imagenet_lt_like_frequencies(), (391, 473, 136)),
        ("places-lt", places_lt_like_frequencies(), (132, 162, 71)),
    ):
        class_count = len(freq)
        labels = np.repeat(np.arange(class_count), freq)
        train = EmbeddingDataset(
            features=np.zeros((len(labels), 1)),
            labels=labels,
            class_count=class_count,
        )
        balanced = EmbeddingDataset(
            features=np.zeros((class_count, 1)),
            labels=np.arange(class_count),
            class_count=class_count,
        )
        manifest = save_bundle(DatasetBundle(train, balanced, balanced), tmp_path / name)
        bundle = load_bundle(manifest)
        counts = assign_folds(bundle.train).class_counts()
        results[name] = (
            counts[Fold.MANYSHOT],
            counts[Fold.MEDIUMSHOT],
            counts[Fold.FEWSHOT],
        ) == expected
    _criterion(
        9,
        "ImageNet-LT- and Places-LT-shaped metadata reproduce the expected fold counts",
        all(results.values()),
        str(results),
    )
