"""Tests for per-task training, transfer scoring and pair sampling."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from taskclust import transfer
from taskclust.errors import InputError
from taskclust.seeding import derive_rng
from taskclust.synthdata import FamilyConfig, make_task_family
from taskclust.transfer import (
    ClusterModel,
    TaskDataset,
    TrainConfig,
    accuracy,
    build_transfer_matrix,
    sample_task_pairs,
    softmax,
    train_cluster_models,
    train_tasks,
    transfer_score,
)


def make_blobs(seed, n_per=40, dim=2, labels=2, sep=4.0, noise=1.0, task_id="blobs"):
    """Gaussian blobs on a ring, split 60/40 into train/test."""
    rng = derive_rng(seed, "blobs", task_id)
    angles = 2 * np.pi * np.arange(labels) / labels
    centers = sep * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if dim > 2:
        centers = np.hstack([centers, np.zeros((labels, dim - 2))])
    X = np.concatenate([c + noise * rng.standard_normal((n_per, dim)) for c in centers])
    y = np.repeat(np.arange(labels), n_per)
    order = rng.permutation(len(y))
    X, y = X[order], y[order]
    n_tr = int(0.6 * len(y))
    return TaskDataset(
        task_id=task_id,
        label_count=labels,
        train=(X[:n_tr], y[:n_tr]),
        test=(X[n_tr:], y[n_tr:]),
    )


def pair_mask(n, *pairs):
    """The n x n bool pair mask, true at each given (i, j) and nowhere else."""
    mask = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        mask[i, j] = True
    return mask


def pair_list(mask):
    """The pairs of a mask as sorted (i, j) tuples of ints."""
    return sorted(zip(*(idx.tolist() for idx in np.nonzero(mask))))


def best_linear_accuracy(X, y, directions=720):
    """Exhaustive search over 2d halfplane rules: best achievable accuracy.

    Sweeps `directions` unit vectors and, for each, every threshold midway
    between consecutive projections, taking the better of the two label
    orientations. Serves as a trainer-independent upper-bound witness that
    the data really is linearly separable to the accuracy the model claims.
    """
    best = 0.0
    for theta in np.linspace(0.0, np.pi, directions, endpoint=False):
        w = np.array([np.cos(theta), np.sin(theta)])
        p = X @ w
        order = np.argsort(p)
        ps, ys = p[order], y[order]
        cuts = np.concatenate([[ps[0] - 1.0], (ps[:-1] + ps[1:]) / 2, [ps[-1] + 1.0]])
        for c in cuts:
            pred = (p > c).astype(int)
            acc = max(np.mean(pred == y), np.mean((1 - pred) == y))
            best = max(best, acc)
        if best == 1.0:
            return 1.0
    return float(best)


class TestSoftmax:
    """softmax must stay bit for bit the reduction formula it replaced: the
    reference loops in the test files call it."""

    @pytest.mark.parametrize("L", [1, 2, 3, 7, 8, 20])
    def test_equals_the_reduction_formula(self, L):
        rng = np.random.default_rng(L)
        for shape in [(L,)] * 20 + [(300, L), (6, 50, L)]:
            Z = 4 * rng.standard_normal(shape)
            shifted = Z - Z.max(axis=-1, keepdims=True)
            P = np.exp(shifted)
            assert np.array_equal(softmax(Z), P / P.sum(axis=-1, keepdims=True))


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("hidden", 0), ("epochs", 0), ("batch_size", 0),
        ("lr", 0.0), ("lr", -0.1), ("lr", math.nan), ("lr", math.inf),
    ])
    def test_rejects_a_bad_field(self, field, value):
        with pytest.raises(InputError) as exc:
            TrainConfig(**{field: value})
        assert exc.value.code == "bad-config"

    def test_defaults_are_accepted(self):
        TrainConfig()


class TestSingleTaskTraining:
    def test_separable_blobs_reach_grid_search_bar(self):
        """The trained model matches what exhaustive linear search proves attainable."""
        ds = make_blobs(seed=0, n_per=50)
        Xtr, ytr = ds.train
        oracle = best_linear_accuracy(Xtr, ytr)
        assert oracle >= 0.95, "blob construction should be linearly separable"
        model = train_tasks([ds], TrainConfig(seed=1))[0]
        assert accuracy(model.logits(Xtr), ytr) >= 0.95

    def test_single_example_per_class_memorized(self):
        X = np.array([[0.0, 5.0], [5.0, 0.0], [-5.0, -5.0]])
        y = np.array([0, 1, 2])
        ds = TaskDataset("memorize", 3, (X, y), (X, y))
        model = train_tasks([ds], TrainConfig(epochs=400, seed=0))[0]
        assert accuracy(model.logits(X), y) == 1.0

    def test_training_is_bitwise_deterministic(self):
        ds = make_blobs(seed=3)
        cfg = TrainConfig(epochs=40, seed=7)
        m1 = train_tasks([ds], cfg)[0]
        m2 = train_tasks([ds], cfg)[0]
        for a, b in zip(
            (m1.W_enc, m1.b_enc, m1.W_cls, m1.b_cls),
            (m2.W_enc, m2.b_enc, m2.W_cls, m2.b_cls),
        ):
            assert np.array_equal(a, b)

    def test_empty_train_rejected(self):
        empty = np.zeros((0, 2)), np.zeros(0, dtype=int)
        ds = TaskDataset("empty", 2, empty, empty)
        with pytest.raises(InputError) as exc:
            train_tasks([ds])
        assert exc.value.code == "empty-train"


class TestTaskDataset:
    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_feature_is_rejected(self, split, value):
        ds = make_blobs(seed=3, n_per=5)
        splits = {"train": ds.train, "test": ds.test}
        X, y = splits[split]
        X = X.copy()
        X[1, 0] = value
        splits[split] = (X, y)
        with pytest.raises(InputError) as exc:
            TaskDataset("odd", 2, **splits)
        assert exc.value.code == "non-finite"
        assert split in exc.value.message


class TestTransferScore:
    def test_self_transfer_tracks_own_validation_accuracy(self):
        ds = make_blobs(seed=5, n_per=60)
        model = train_tasks([ds], TrainConfig(seed=0))[0]
        own = accuracy(model.logits(ds.test[0]), ds.test[1])
        score = transfer_score(model, ds)
        assert abs(score - own) <= 0.05

    def test_a_label_permutation_is_scored_as_wrong(self):
        """The unchanged model names the permuted classes wrongly: a row
        counts only where the model already erred on the original labels."""
        ds = make_blobs(seed=8, n_per=60, labels=3)
        model = train_tasks([ds], TrainConfig(seed=0))[0]
        perm = np.array([2, 0, 1])
        relabeled = TaskDataset("relabeled", 3, (ds.train[0], perm[ds.train[1]]), ds.test)
        base = transfer_score(model, ds)
        assert base >= 0.9
        assert transfer_score(model, relabeled) <= 1.0 - base

    def test_reuse_mode_scores_source_model_directly(self):
        ds = make_blobs(seed=13, n_per=50)
        other = make_blobs(seed=14, n_per=50, task_id="other")
        model = train_tasks([ds], TrainConfig(seed=0))[0]
        assert transfer_score(model, other) == accuracy(model.logits(other.train[0]), other.train[1])

    def test_a_task_model_is_a_shared_classifier_scored_by_its_logits(self):
        ds = make_blobs(seed=13, n_per=50, labels=3)
        model = train_tasks([ds])[0]
        assert isinstance(model, ClusterModel) and model.kind == "shared_classifier"
        for seed in (14, 15, 16):
            t = make_blobs(seed=seed, n_per=30, labels=3, sep=2.0, task_id=f"t{seed}")
            assert transfer_score(model, t) == accuracy(model.logits(t.train[0]), t.train[1])
            assert np.array_equal(model.predict_proba(t.train[0]), softmax(model.logits(t.train[0])))

    def test_logits_that_the_softmax_rounds_to_a_tie_keep_their_order(self):
        """exp(0) and exp(1e-17) round to the same probability, so the argmax
        of predict_proba takes label 0; the score takes the logits' label 1."""
        model = ClusterModel("shared_classifier", np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)),
                             np.array([0.0, 1e-17]))
        X = np.zeros((4, 2))
        ones = TaskDataset("ones", 2, (X, np.ones(4, dtype=int)), (X, np.ones(4, dtype=int)))
        assert accuracy(model.predict_proba(X), ones.train[1]) == 0.0
        assert transfer_score(model, ones) == 1.0

    def test_the_test_split_is_never_read(self):
        ds = make_blobs(seed=11, n_per=50)
        model = train_tasks([ds], TrainConfig(seed=0))[0]
        empty = np.zeros((0, 2)), np.zeros(0, dtype=int)
        hollow = TaskDataset("hollow", 2, ds.train, empty)
        assert transfer_score(model, hollow) == transfer_score(model, ds)

    def test_direct_evaluation_needs_equal_label_counts(self):
        """A 3-label head scored task 1 relabelled to y % 2 at 0.667 whether
        the task declared 2 labels or 5; both are label-mismatch."""
        tasks, _ = make_task_family(4, 2, seed=0)
        model = train_tasks([tasks[0]], TrainConfig(epochs=50))[0]
        splits = [(X, y % 2) for X, y in (tasks[1].train, tasks[1].test)]
        for labels in (2, 5):
            relabelled = TaskDataset("relabelled", labels, *splits)
            with pytest.raises(InputError) as exc:
                transfer_score(model, relabelled)
            assert exc.value.code == "label-mismatch"
            with pytest.raises(InputError) as exc:
                build_transfer_matrix([tasks[0], relabelled], pair_mask(2, (0, 1)), TrainConfig(epochs=50))
            assert exc.value.code == "label-mismatch"

    def test_dimension_mismatch_rejected(self):
        ds = make_blobs(seed=2)
        model = train_tasks([ds], TrainConfig(epochs=5))[0]
        wide = make_blobs(seed=2, dim=5, task_id="wide")
        with pytest.raises(InputError) as exc:
            transfer_score(model, wide)
        assert exc.value.code == "dim-mismatch"

    def test_scoring_never_mutates_the_source_model(self):
        ds = make_blobs(seed=4)
        tgt = make_blobs(seed=6, task_id="tgt")
        model = train_tasks([ds], TrainConfig(seed=0))[0]
        before = tuple(
            arr.tobytes() for arr in (model.W_enc, model.b_enc, model.W_cls, model.b_cls)
        )
        transfer_score(model, tgt)
        after = tuple(
            arr.tobytes() for arr in (model.W_enc, model.b_enc, model.W_cls, model.b_cls)
        )
        assert before == after


class TestAccuracy:
    def test_share_of_rows_whose_top_score_is_the_label(self):
        scores = np.array([[0.1, 0.9], [2.0, -1.0], [0.3, 0.7], [5.0, 4.0]])
        assert accuracy(scores, np.array([1, 0, 0, 1])) == 0.5

    def test_an_empty_split_has_no_accuracy(self):
        with pytest.raises(InputError) as exc:
            accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))
        assert exc.value.code == "empty-split"


class TestPairSampling:
    def test_tiny_budget_covers_all_pairs(self):
        assert pair_list(sample_task_pairs(3, 3, seed=0)) == [(0, 1), (0, 2), (1, 2)]

    def test_sample_is_an_upper_triangle_mask_of_budget_pairs(self):
        got = sample_task_pairs(9, 12, seed=42)
        assert got.dtype == bool and got.shape == (9, 9)
        assert got.sum() == 12 and not np.tril(got).any()

    def test_sampling_is_deterministic(self):
        assert np.array_equal(sample_task_pairs(9, 12, seed=42), sample_task_pairs(9, 12, seed=42))

    def test_samples_match_recorded_draws(self):
        """Pinned pairs: rank t of the draw is the t-th pair in lexicographic
        order, and a rewrite of the sampler must reproduce them."""
        assert pair_list(sample_task_pairs(9, 12, seed=42)) == [
            (0, 4), (0, 5), (0, 6), (0, 7), (1, 4), (2, 5),
            (2, 6), (3, 4), (3, 6), (4, 7), (5, 8), (7, 8)]
        got = pair_list(sample_task_pairs(48, 300, seed=1))
        assert got[:5] == [(0, 3), (0, 5), (0, 7), (0, 11), (0, 12)]
        assert hashlib.sha256(repr(got).encode()).hexdigest() == (
            "d5db6ba38231bed2c343937bb7ec490893e1de7d5d6ed57aa00560b33d5f5e98")

    def test_full_budget_enumerates_every_pair(self):
        got = sample_task_pairs(7, 21, seed=5)
        assert pair_list(got) == list(itertools.combinations(range(7), 2))
        assert np.array_equal(got, np.triu(np.ones((7, 7), dtype=bool), 1))

    def test_budget_too_large_rejected(self):
        with pytest.raises(InputError) as exc:
            sample_task_pairs(4, 7)
        assert exc.value.code == "budget-too-large"

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(InputError) as exc:
            sample_task_pairs(4, 0)
        assert exc.value.code == "bad-budget"

    def test_single_pair_draws_are_uniform(self):
        """Over many seeds each of the 45 pairs appears at its expected rate.

        With 10 tasks and a budget of one, 10000 independent draws give each
        pair an expected frequency of 1/45; every empirical frequency must
        stay within three binomial standard deviations of that.
        """
        n, trials = 10, 10000
        total = n * (n - 1) // 2
        counts = {p: 0 for p in itertools.combinations(range(n), 2)}
        for s in range(trials):
            (pair,) = pair_list(sample_task_pairs(n, 1, seed=s))
            counts[pair] += 1
        p = 1.0 / total
        sigma = math.sqrt(p * (1 - p) / trials)
        freqs = np.array([c / trials for c in counts.values()])
        assert np.all(np.abs(freqs - p) <= 3 * sigma)


class TestBuildTransferMatrix:
    def test_one_pair_observes_both_directions_plus_diagonal(self):
        tasks = [make_blobs(seed=s, n_per=20, task_id=f"t{s}") for s in range(2)]
        tm = build_transfer_matrix(tasks, pair_mask(2, (0, 1)), TrainConfig(epochs=20, seed=0))
        assert tm.observed.sum() == 4
        assert tm.observed[0, 1] and tm.observed[1, 0]
        assert tm.scores[0, 0] == 1.0 and tm.scores[1, 1] == 1.0

    def test_no_pairs_observes_only_the_diagonal(self):
        tasks = [make_blobs(seed=s, n_per=20, task_id=f"t{s}") for s in range(3)]
        tm = build_transfer_matrix(tasks, pair_mask(3), TrainConfig(epochs=5, seed=0))
        assert np.array_equal(tm.observed, np.eye(3, dtype=bool))

    def test_identical_tasks_transfer_almost_identically(self):
        base = make_blobs(seed=21, n_per=50, task_id="base")
        tasks = [
            TaskDataset(f"copy{i}", 2, base.train, base.test)
            for i in range(4)
        ]
        pairs = np.triu(np.ones((4, 4), dtype=bool), 1)
        tm = build_transfer_matrix(tasks, pairs, TrainConfig(seed=0))
        off = tm.scores[~np.eye(4, dtype=bool)]
        assert off.max() - off.min() <= 0.1

    def test_matrix_construction_leaves_task_models_untouched(self):
        """Building scores must not perturb any trained encoder it reuses."""
        tasks = [make_blobs(seed=s, n_per=30, task_id=f"t{s}") for s in range(3)]
        cfg = TrainConfig(epochs=30, seed=0)
        reference = {i: train_tasks([tasks[i]], cfg)[0] for i in range(3)}
        tm = build_transfer_matrix(tasks, pair_mask(3, (0, 1), (1, 2)), cfg)
        for i, model in reference.items():
            fresh = train_tasks([tasks[i]], cfg)[0]
            assert model.W_enc.tobytes() == fresh.W_enc.tobytes()
            assert model.b_enc.tobytes() == fresh.b_enc.tobytes()
        assert tm.observed.sum() == 4 + 3

    def test_wrong_shape_mask_rejected(self):
        tasks = [make_blobs(seed=s, n_per=20, task_id=f"t{s}") for s in range(2)]
        for shape in ((3, 3), (2, 3), (2,)):
            with pytest.raises(InputError) as exc:
                build_transfer_matrix(tasks, np.zeros(shape, dtype=bool), TrainConfig(epochs=5))
            assert exc.value.code == "bad-shape"

    def test_bad_pair_rejected(self):
        """An entry on or below the diagonal is bad-pair, named in row-major order."""
        tasks = [make_blobs(seed=s, n_per=20, task_id=f"t{s}") for s in range(3)]
        for entries, named in (([(1, 1)], "(1,1)"), ([(2, 0)], "(2,0)"),
                               ([(0, 2), (2, 1), (1, 0)], "(1,0)")):
            with pytest.raises(InputError) as exc:
                build_transfer_matrix(tasks, pair_mask(3, *entries), TrainConfig(epochs=5))
            assert exc.value.code == "bad-pair"
            assert named in exc.value.message

    def test_error_inside_a_pair_names_the_pair(self):
        tasks = [
            make_blobs(seed=0, n_per=20, task_id="a"),
            make_blobs(seed=1, n_per=20, dim=6, task_id="b"),
        ]
        with pytest.raises(InputError) as exc:
            build_transfer_matrix(tasks, pair_mask(2, (0, 1)), TrainConfig(epochs=5))
        assert exc.value.code == "dim-mismatch"
        assert "(0,1)" in exc.value.message


# ---------------------------------------------------------------------------
# The per-problem SGD loops that the stacked kernel replaces, in the kernel's
# augmented form: inputs end in a ones column and every weight matrix in its
# bias row. Stacking must reproduce them bit for bit, whatever else is in the
# stack.


def augment(X):
    return np.hstack([X, np.ones((X.shape[0], 1))])


def reference_sgd_step(Xb, yb, L, W_c, lr, W_e):
    Z = augment(Xb @ W_e)
    G = (softmax(Z @ W_c) - np.eye(L)[yb]) / len(yb)
    dZ = G @ W_c[:-1].T
    W_c -= lr * (Z.T @ G)
    W_e -= lr * (Xb.T @ dZ)


def reference_train(ds, cfg):
    X, y = augment(ds.train[0]), ds.train[1]
    L, d, h = ds.label_count, ds.dim, cfg.hidden
    rng = derive_rng(cfg.seed, "single", ds.task_id)
    W_e, W_c = np.zeros((d + 1, h)), np.zeros((h + 1, L))
    W_e[:d] = 0.01 * rng.standard_normal((d, h))
    W_c[:h] = 0.01 * rng.standard_normal((h, L))
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            reference_sgd_step(X[idx], y[idx], L, W_c, cfg.lr, W_e)
    return ClusterModel("shared_classifier", W_enc=W_e[:-1], b_enc=W_e[-1], W_cls=W_c[:-1], b_cls=W_c[-1])


# The loops before the augmented form: each bias added and its gradient
# summed on its own. They must agree with the augmented loops to rounding.


def separate_bias_step(Xb, yb, L, W_c, b_c, lr, W_e, b_e):
    Z = Xb @ W_e + b_e
    G = (softmax(Z @ W_c + b_c) - np.eye(L)[yb]) / len(yb)
    dZ = G @ W_c.T
    W_c -= lr * (Z.T @ G)
    b_c -= lr * G.sum(axis=0)
    W_e -= lr * (Xb.T @ dZ)
    b_e -= lr * dZ.sum(axis=0)


def separate_bias_train(ds, cfg):
    X, y = ds.train
    L = ds.label_count
    rng = derive_rng(cfg.seed, "single", ds.task_id)
    W_e, b_e = 0.01 * rng.standard_normal((ds.dim, cfg.hidden)), np.zeros(cfg.hidden)
    W_c, b_c = 0.01 * rng.standard_normal((cfg.hidden, L)), np.zeros(L)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            separate_bias_step(X[idx], y[idx], L, W_c, b_c, cfg.lr, W_e, b_e)
    return ClusterModel("shared_classifier", W_enc=W_e, b_enc=b_e, W_cls=W_c, b_cls=b_c)


def assert_same_model(a, b):
    for x, y in zip((a.W_enc, a.b_enc, a.W_cls, a.b_cls), (b.W_enc, b.b_enc, b.W_cls, b.b_cls)):
        assert np.array_equal(x, y)


STACK_CFG = TrainConfig(hidden=6, epochs=12, batch_size=16, seed=5)


@pytest.fixture(scope="module")
def stack_cases():
    """Two shapes, each six same-shaped tasks and one task of another shape
    (which must train in a stack of its own), with the config they train under.

    The first: 39 training rows of dim 5, hidden 6, batch 16 (the last batch
    is short). The second: the FamilyConfig() and TrainConfig() shapes (60
    rows of dim 8, hidden 16, batch 32, 3 labels), where the augmented and
    the separate-bias arithmetic round differently.
    """
    cases = []
    for fc, cfg in ((FamilyConfig(dim=5, label_count=3, train_per_class=13), STACK_CFG),
                    (FamilyConfig(), TrainConfig(seed=5))):
        tasks, _ = make_task_family(6, 2, fc, seed=3)
        cases.append((tasks + [make_blobs(seed=4, n_per=20, dim=3, labels=4, task_id="odd")], cfg))
    return cases


class TestBatchInvariance:
    def test_task_models_are_the_per_task_loop_alone_or_in_any_stack(self, stack_cases):
        for family, cfg in stack_cases:
            together = train_tasks(family, cfg)
            reversed_ = train_tasks(family[::-1], cfg)[::-1]
            for ds, a, b in zip(family, together, reversed_):
                expected = reference_train(ds, cfg)
                assert_same_model(a, expected)
                assert_same_model(b, expected)
                assert_same_model(train_tasks([ds], cfg)[0], expected)

    def test_augmented_loops_agree_with_the_separate_bias_loops(self, stack_cases):
        for family, cfg in stack_cases:
            for ds in family:
                new, old = reference_train(ds, cfg), separate_bias_train(ds, cfg)
                for a, b in zip((new.W_enc, new.b_enc, new.W_cls, new.b_cls),
                                (old.W_enc, old.b_enc, old.W_cls, old.b_cls)):
                    assert np.abs(a - b).max() <= 1e-12

    @pytest.mark.parametrize("cut", [False, True])
    def test_matrix_entries_are_standalone_transfer_scores(self, stack_cases, cut, monkeypatch):
        """Every entry equals its pair scored alone, whether each task shape
        trains in one stack or is cut into stacks of 3 tasks."""
        monkeypatch.setattr(transfer, "_STACK_LIMIT", 3 if cut else 64)
        pairs = {(0, 1), (0, 2), (0, 5), (1, 3), (2, 3), (3, 4), (4, 5), (1, 5), (0, 6), (4, 6)}
        for family, cfg in stack_cases:
            short = make_blobs(seed=9, n_per=15, dim=family[0].dim, labels=3, task_id="short")
            tasks = family[:6] + [short]
            expected = {}
            for i, j in pairs:
                for s, t in ((i, j), (j, i)):
                    source = train_tasks([tasks[s]], cfg)[0]
                    expected[s, t] = transfer_score(source, tasks[t])
                    reference = reference_train(tasks[s], cfg)
                    assert expected[s, t] == accuracy(reference.logits(tasks[t].train[0]), tasks[t].train[1])
            tm = build_transfer_matrix(tasks, pair_mask(len(tasks), *pairs), cfg)
            for (s, t), score in expected.items():
                assert tm.scores[s, t] == score


def models_digest(models):
    """sha256 over the bytes of every weight array of every model, in order."""
    h = hashlib.sha256()
    for m in models:
        arrays = [m.W_enc, m.b_enc] + ([] if m.W_cls is None else [m.W_cls, m.b_cls])
        for a in arrays + [a for tid in m.heads for a in m.heads[tid]]:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestRecordedModels:
    """Pinned weights at the default TrainConfig on make_task_family(12, 3,
    seed=0): every per-task model, and every cluster model of each kind on
    the planted clusters. A rewrite of the trainer must reproduce them bit
    for bit. The bits are those of the float64 matmuls numpy runs, so a BLAS
    build that rounds them differently needs the digests re-recorded."""

    @pytest.fixture(scope="class")
    def family(self):
        return make_task_family(12, 3, seed=0)

    def test_task_models_match_recorded_weights(self, family):
        tasks, _ = family
        assert models_digest(train_tasks(tasks)) == (
            "e95a7bbcf4fad7b6cf00a8f8efa8e1e3dad3761e469e2ba088770bf209c4ea4b")

    @pytest.mark.parametrize("kind, digest", [
        ("shared_classifier", "7c3ae3ac8f97ff2c1fffd064d0f8ce36fb86e5a29857a0d94fbc2baf2031d69d"),
        ("shared_encoder_multihead", "02b82a7063f659af6ca5d610fbb85a18ae0e4c1514e512893aff558a79b433d3"),
        ("metric_encoder", "88e9dd9b0042445588fa42f2e7cbe75d1e523090a3b3aaf587956e19f6b94f3a"),
    ])
    def test_cluster_models_match_recorded_weights(self, family, kind, digest):
        tasks, membership = family
        clusters = [[t for t, c in zip(tasks, membership) if c == k] for k in range(3)]
        assert models_digest(train_cluster_models(clusters, kind)) == digest
