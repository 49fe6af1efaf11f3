"""Fusion and analysis build each posterior in one output table.

Every rewritten path is checked bitwise against the formula it replaced,
which expanded each expert to full width, stacked the copies and reduced
the stack; those formulas are kept here as the references. The memory tests
bound what each fusion holds at once, traced by tracemalloc, by a small
multiple of its (n, C) output table.
"""

import numpy as np
import pytest

from conftest import traced_peak
from tailens.dataset import Fold, FoldAssignment, SubsetSpec
from tailens.evaluation import fourfold_accuracy, take_one_out_ablation
from tailens.fusion import (
    CalibrationParams,
    LinearSoftmaxModel,
    _class_atoms,
    _class_posterior,
    _kl_objective,
    _solve_kl_atoms,
    expand_partial,
    fuse_by_selection,
    fuse_calibrated,
    fuse_kl_min,
    fuse_soft_vote,
    train_joint_calibration,
)
from tailens.network import NetworkParams, forward_logits, init_network, softmax

# a warning from any fusion here fails its test
pytestmark = pytest.mark.filterwarnings("error")

CLASSES = 7
# overlapping subsets, a full-width member and a full-coverage subset, whose
# reject output is empty
MIXED_SUBSETS = [
    SubsetSpec(Fold.MANYSHOT, np.array([0, 1, 2])),
    None,
    SubsetSpec(Fold.MEDIUMSHOT, np.array([2, 3, 4])),
    SubsetSpec(Fold.FEWSHOT, np.array([6, 5, 4, 3, 2, 1, 0])),
]


def _width(subset):
    return CLASSES if subset is None else subset.size + 1


def _covers_every_class(subset):
    return subset is not None and subset.size == CLASSES


def _mixed_logits(n=40, seed=5, full_coverage_reject=False):
    """Logits whose full-coverage reject output underflows to zero mass
    under any scale above 0.1, unless ``full_coverage_reject``."""
    rng = np.random.default_rng(seed)
    logits = [rng.normal(0.0, 2.0, size=(n, _width(s))) for s in MIXED_SUBSETS]
    for z, s in zip(logits, MIXED_SUBSETS):
        if _covers_every_class(s) and not full_coverage_reject:
            z[:, -1] = -1e4
    return logits


def _mixed_partials(n=40, seed=5, full_coverage_reject=False):
    """Row-stochastic partials with some exact zeros, the reject entry too;
    the full-coverage expert's reject entries are all zero unless
    ``full_coverage_reject``."""
    rng = np.random.default_rng(seed)
    partials = []
    for s in MIXED_SUBSETS:
        p = rng.dirichlet(np.ones(_width(s)), size=n)
        p[rng.random(p.shape) < 0.15] = 0.0
        if _covers_every_class(s) and not full_coverage_reject:
            p[:, -1] = 0.0
        p[:, 0] += 1e-3  # no row loses all its mass
        partials.append(p / p.sum(axis=1, keepdims=True))
    return partials


def plain_softmax(z):
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _out_classes(subset, class_count):
    """The classes outside ``subset``, found apart from the program's map."""
    return np.setdiff1d(np.arange(class_count), subset.classes)


def reference_expand(partial, subset, class_count):
    """The expansion as one full-width table per expert."""
    rows = np.asarray(partial, dtype=np.float64)
    if subset is None:
        return rows.copy()
    k = subset.size
    out_classes = _out_classes(subset, class_count)
    full = np.zeros((rows.shape[0], class_count))
    full[:, subset.classes] = rows[:, :k]
    if len(out_classes):
        full[:, out_classes] += rows[:, k : k + 1] / len(out_classes)
    return full


def reference_soft_vote(partials, subsets, class_count):
    expanded = [reference_expand(p, s, class_count) for p, s in zip(partials, subsets)]
    q = np.stack(expanded).mean(axis=0)
    return q / q.sum(axis=1, keepdims=True)


def reference_calibrated(logits, calib, subsets, class_count):
    probs = [plain_softmax(z * w + b) for z, w, b in zip(logits, calib.scales, calib.shifts)]
    return reference_soft_vote(probs, subsets, class_count)


def reference_selection(partials, selector, subsets, class_count):
    expanded = [reference_expand(p, s, class_count) for p, s in zip(partials, subsets)]
    winner = np.argmax(selector.scores(partials), axis=1)
    stacked = np.stack(expanded)
    return stacked[winner, np.arange(stacked.shape[1])]


def reference_kl_objective(q, prob_rows, subsets):
    def plogp_over(p, a):
        out = np.zeros_like(p)
        pos = p > 0
        out[pos] = p[pos] * np.log(p[pos] / a[pos])
        return out.sum(axis=-1)

    total = np.zeros(q.shape[0])
    for p_rows, subset in zip(prob_rows, subsets):
        if subset is None:
            total += plogp_over(p_rows, q)
            continue
        k = subset.size
        total += plogp_over(p_rows[:, :k], q[:, subset.classes])
        out_classes = _out_classes(subset, q.shape[1])
        if len(out_classes):
            total += plogp_over(p_rows[:, k:], q[:, out_classes].sum(axis=1, keepdims=True))
    return total


def reference_class_posterior(Q, W, w, atom_of):
    spread = W[:, atom_of]
    share = np.divide(w, spread, out=np.zeros_like(w), where=spread > 0)
    sizes = np.bincount(atom_of, minlength=W.shape[1])
    share = np.where(spread > 0, share, 1.0 / sizes[atom_of])
    q = Q[:, atom_of] * share
    return q / q.sum(axis=1, keepdims=True)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestBitwiseAgainstTheStack:
    def test_expand_partial(self):
        for p, s in zip(_mixed_partials(), MIXED_SUBSETS):
            assert _same_bits(expand_partial(p, s, CLASSES), reference_expand(p, s, CLASSES))

    @pytest.mark.parametrize("rows", [40, 1], ids=["batch", "single"])
    def test_soft_vote_on_a_mixed_world(self, rows):
        partials = _mixed_partials(n=rows)
        got = fuse_soft_vote(partials, MIXED_SUBSETS, CLASSES)
        want = reference_soft_vote(partials, MIXED_SUBSETS, CLASSES)
        assert _same_bits(got, want)

    def test_calibrated_fusion_on_a_mixed_world(self):
        rng = np.random.default_rng(8)
        logits = _mixed_logits()
        calib = CalibrationParams(
            scales=tuple(rng.uniform(0.5, 2.0, size=_width(s)) for s in MIXED_SUBSETS),
            shifts=tuple(rng.normal(0.0, 0.5, size=_width(s)) for s in MIXED_SUBSETS),
        )
        got = fuse_calibrated(logits, calib, MIXED_SUBSETS, CLASSES)
        want = reference_calibrated(logits, calib, MIXED_SUBSETS, CLASSES)
        assert _same_bits(got, want)

    @pytest.mark.parametrize("loser", [3, 1], ids=["full-coverage", "full-width"])
    def test_selection_picks_rows_of_the_full_expansions(self, loser):
        partials = _mixed_partials(n=60)
        width = sum(_width(s) for s in MIXED_SUBSETS)
        rng = np.random.default_rng(3)
        bias = np.zeros(len(MIXED_SUBSETS))
        bias[loser] = -1e3  # this expert wins no row
        selector = LinearSoftmaxModel(
            NetworkParams([(rng.normal(0.0, 3.0, size=(width, len(bias))), bias)])
        )
        winner = np.argmax(selector.scores(partials), axis=1)
        assert set(winner.tolist()) == set(range(len(bias))) - {loser}
        args = (partials, selector, MIXED_SUBSETS, CLASSES)
        assert _same_bits(fuse_by_selection(*args), reference_selection(*args))

    def test_selection_of_a_missing_expert_is_an_error(self):
        partials = _mixed_partials(n=5)
        width = sum(_width(s) for s in MIXED_SUBSETS)
        # a fifth output for four experts, and it wins every row
        bias = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        selector = LinearSoftmaxModel(NetworkParams([(np.zeros((width, 5)), bias)]))
        with pytest.raises(IndexError, match="picks expert 4 of 4"):
            fuse_by_selection(partials, selector, MIXED_SUBSETS, CLASSES)

    def test_ablation_mean(self):
        rng = np.random.default_rng(4)
        n, c = 300, 9
        folds = FoldAssignment(np.array([0, 0, 0, 1, 1, 1, 2, 2, 2]))
        labels = rng.integers(0, c, size=n)
        # coarse values make many near-ties, where the rounding of the mean
        # decides the argmax
        tables = {
            name: rng.integers(1, 6, size=(n, c)) / 7.0 + rng.normal(0, 1e-16, size=(n, c))
            for name in ("a", "b", "c", "d")
        }
        got = take_one_out_ablation(tables, labels, folds)

        def reference(members):
            mean = np.stack([tables[m] for m in members]).mean(axis=0)
            return fourfold_accuracy(np.argmax(mean, axis=1), labels, folds)

        names = list(tables)
        want = {"ensemble": reference(names)}
        for name in names:
            want[f"without {name}"] = reference([m for m in names if m != name])
        assert list(got) == list(want)
        for key in want:
            assert got[key].to_json_dict() == want[key].to_json_dict()

    def test_ablation_rejects_a_misaligned_table(self):
        folds = FoldAssignment(np.array([0, 1, 2]))
        tables = {"a": np.full((4, 3), 1 / 3), "b": np.full((1, 3), 1 / 3)}
        with pytest.raises(ValueError, match="'b' has shape"):
            take_one_out_ablation(tables, np.zeros(4, dtype=np.int64), folds)

    def test_softmax_is_the_plain_expression(self):
        rng = np.random.default_rng(6)
        z = rng.normal(0.0, 30.0, size=(50, 13))
        read_only = z.copy()
        read_only.setflags(write=False)
        for x in (z, z[0], np.asfortranarray(z), z[:, ::2], read_only, z.astype(np.float32)):
            kept = np.array(x, copy=True)
            assert _same_bits(softmax(x), plain_softmax(x))
            assert _same_bits(x, kept)

    def test_forward_logits_is_the_plain_expression(self):
        params = init_network([5, 16, 8, 4], seed=2)
        params.layers[0] = (params.layers[0][0], np.linspace(-1.0, 1.0, 16))
        x = np.random.default_rng(7).normal(size=(30, 5))
        x.setflags(write=False)

        def plain(inputs):
            a = inputs
            for w, b in params.layers[:-1]:
                a = np.maximum(a @ w + b, 0.0)
            w, b = params.layers[-1]
            return a @ w + b

        assert _same_bits(forward_logits(params, x), plain(x))
        assert _same_bits(forward_logits(params, x[3:4]), plain(x[3:4]))

    def test_kl_objective(self):
        partials = _mixed_partials()
        q = fuse_soft_vote(partials, MIXED_SUBSETS, CLASSES)
        got = _kl_objective(q, partials, MIXED_SUBSETS)
        assert _same_bits(got, reference_kl_objective(q, partials, MIXED_SUBSETS))

    def test_kl_result_reports_the_objective_of_its_posterior(self):
        partials = _mixed_partials()
        result = fuse_kl_min(partials, MIXED_SUBSETS, CLASSES)
        assert _same_bits(
            result.objective,
            reference_kl_objective(result.probabilities, partials, MIXED_SUBSETS),
        )

    @pytest.mark.parametrize("fusion", ["softvote", "calibrate", "select", "kl"])
    def test_wide_world(self, fusion):
        # seven classes are too few for the order of a row sum to show in
        # its last bits; sixty are enough
        subsets, logits, partials = _wide_world()
        rng = np.random.default_rng(8)
        calib = CalibrationParams(
            scales=tuple(rng.uniform(0.5, 2.0, size=z.shape[1]) for z in logits),
            shifts=tuple(rng.normal(0.0, 0.5, size=z.shape[1]) for z in logits),
        )
        selector = LinearSoftmaxModel(
            NetworkParams([(rng.normal(0.0, 3.0, size=(63, 3)), np.zeros(3))])
        )
        if fusion == "kl":
            result = fuse_kl_min(partials, subsets, 60)
            # the solve starts from the reference soft vote, so a change to
            # the start shows in the posterior
            prob_rows = [np.asarray(p, dtype=np.float64) for p in partials]
            start = reference_soft_vote(partials, subsets, 60)
            assert _same_bits(
                result.probabilities, _solve_kl_atoms(start, prob_rows, subsets)[0]
            )
            got = result.objective
            want = reference_kl_objective(result.probabilities, partials, subsets)
        else:
            got, want = {
                "softvote": lambda: (
                    fuse_soft_vote(partials, subsets, 60),
                    reference_soft_vote(partials, subsets, 60),
                ),
                "calibrate": lambda: (
                    fuse_calibrated(logits, calib, subsets, 60),
                    reference_calibrated(logits, calib, subsets, 60),
                ),
                "select": lambda: (
                    fuse_by_selection(partials, selector, subsets, 60),
                    reference_selection(partials, selector, subsets, 60),
                ),
            }[fusion]()
        assert _same_bits(got, want)

    def test_class_posterior_is_the_old_epilogue(self):
        rng = np.random.default_rng(9)
        atom_of, out = _class_atoms(MIXED_SUBSETS[:3], CLASSES)
        n, m = 25, out.shape[1]
        w = rng.random((n, CLASSES))
        w[:4, atom_of == 1] = 0.0  # empty atoms spread their mass evenly
        W = np.stack([w[:, atom_of == a].sum(axis=1) for a in range(m)], axis=1)
        Q = rng.dirichlet(np.ones(m), size=n)
        want = reference_class_posterior(Q, W, w.copy(), atom_of)
        got = _class_posterior(Q, W, w, atom_of, np.empty((n, CLASSES)))
        assert _same_bits(got, want)


def _mixed_selector(partials):
    width = sum(_width(s) for s in MIXED_SUBSETS)
    weights = np.random.default_rng(3).normal(0.0, 3.0, size=(width, len(partials)))
    return LinearSoftmaxModel(NetworkParams([(weights, np.zeros(len(partials)))]))


FULL_COVERAGE_ENTRIES = [
    "expand_partial",
    "fuse_soft_vote",
    "fuse_kl_min",
    "fuse_by_selection",
    "fuse_calibrated",
    "train_joint_calibration",
]


def _call_on_the_mixed_world(entry, full_coverage_reject):
    partials = _mixed_partials(n=12, full_coverage_reject=full_coverage_reject)
    logits = _mixed_logits(n=12, full_coverage_reject=full_coverage_reject)
    calls = {
        "expand_partial": lambda: expand_partial(partials[3], MIXED_SUBSETS[3], CLASSES),
        "fuse_soft_vote": lambda: fuse_soft_vote(partials, MIXED_SUBSETS, CLASSES),
        "fuse_kl_min": lambda: fuse_kl_min(partials, MIXED_SUBSETS, CLASSES),
        "fuse_by_selection": lambda: fuse_by_selection(
            partials, _mixed_selector(partials), MIXED_SUBSETS, CLASSES
        ),
        "fuse_calibrated": lambda: fuse_calibrated(
            logits,
            CalibrationParams.identity([_width(s) for s in MIXED_SUBSETS]),
            MIXED_SUBSETS,
            CLASSES,
        ),
        "train_joint_calibration": lambda: train_joint_calibration(
            logits, MIXED_SUBSETS, np.arange(12) % CLASSES, CLASSES
        ),
    }
    return calls[entry]()


@pytest.mark.parametrize("entry", FULL_COVERAGE_ENTRIES)
def test_full_coverage_reject_mass_is_an_error(entry):
    with pytest.raises(ValueError, match="full-coverage subset expert fewshot puts mass"):
        _call_on_the_mixed_world(entry, full_coverage_reject=True)


@pytest.mark.parametrize("entry", FULL_COVERAGE_ENTRIES)
def test_full_coverage_without_reject_mass_is_accepted(entry):
    _call_on_the_mixed_world(entry, full_coverage_reject=False)


def _wide_world(n=2000, class_count=60, seed=11):
    """Three disjoint 20-class experts on n rows: an (n, C) table is 960 kB."""
    rng = np.random.default_rng(seed)
    classes = rng.permutation(class_count)
    subsets = [
        SubsetSpec(fold, np.sort(part))
        for fold, part in zip(Fold, np.array_split(classes, 3))
    ]
    logits = [rng.normal(0.0, 2.0, size=(n, s.size + 1)) for s in subsets]
    return subsets, logits, [softmax(z) for z in logits]


TABLE_BYTES = 2000 * 60 * 8


class TestOneOutputTable:
    """Each fusion holds a small multiple of its output table at once; on
    this world the stack-then-reduce formulas held seven to eight."""

    def test_soft_vote(self):
        subsets, _, partials = _wide_world()
        q, peak = traced_peak(fuse_soft_vote, partials, subsets, 60)
        assert q.shape == (2000, 60)
        assert peak <= 3 * TABLE_BYTES

    def test_calibrated(self):
        subsets, logits, _ = _wide_world()
        calib = CalibrationParams.identity([z.shape[1] for z in logits])
        _, peak = traced_peak(fuse_calibrated, logits, calib, subsets, 60)
        assert peak <= 4 * TABLE_BYTES

    def test_selection(self):
        subsets, _, partials = _wide_world()
        rng = np.random.default_rng(1)
        selector = LinearSoftmaxModel(
            NetworkParams([(rng.normal(size=(63, 3)), np.zeros(3))])
        )
        _, peak = traced_peak(fuse_by_selection, partials, selector, subsets, 60)
        assert peak <= 3 * TABLE_BYTES

    def test_kl(self):
        subsets, _, partials = _wide_world()
        _, peak = traced_peak(fuse_kl_min, partials, subsets, 60)
        assert peak <= 4 * TABLE_BYTES
