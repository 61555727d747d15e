"""Tests for cluster-level models, mixture few-shot prediction and fallback."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskclust import transfer
from taskclust.errors import InputError
from taskclust.learning import (
    CombineConfig,
    MixturePredictor,
    adaptive_fsl,
    fsl_combine,
    train_support_only,
)
from taskclust.seeding import derive_rng
from taskclust.synthdata import (
    FamilyConfig,
    fewshot_from_dataset,
    make_target_task,
    make_task_family,
)
from taskclust.transfer import (
    ClusterModel,
    TaskDataset,
    TrainConfig,
    accuracy,
    softmax,
    train_cluster_models,
    train_tasks,
)

FC = FamilyConfig(dim=10, label_count=3, train_per_class=12, separation=1.8,
                  task_noise=0.3, sample_spread=1.0)


def identity_metric_model(d):
    return ClusterModel(kind="metric_encoder", W_enc=np.eye(d), b_enc=np.zeros(d))


def family_models(seed, n_tasks=9, K=3, epochs=60, kind="shared_classifier", fc=FC):
    tasks, membership = make_task_family(n_tasks, K, fc, seed=seed)
    cfg = TrainConfig(epochs=epochs, seed=0)
    clusters = [[t for t, c in zip(tasks, membership) if c == k] for k in range(K)]
    return train_cluster_models(clusters, kind, cfg)


def support_cross_entropies(predictor):
    task = predictor.task
    Xs, ys = task.train
    Q = np.stack([
        model.predict_proba(Xs, support=task.train)[np.arange(len(ys)), ys]
        for model in predictor.models
    ])
    Q = np.maximum(Q, 1e-300)
    mixture = -np.log(predictor.alpha @ Q).mean()
    singles = [-np.log(Q[k]).mean() for k in range(len(predictor.models))]
    return mixture, singles


class TestClusterTraining:
    def test_singleton_multihead_matches_single_task_training(self):
        """A one-task cluster with its own head is the single-task trainer in
        different clothes, so final train accuracies agree closely."""
        for seed in range(3):
            ds = make_target_task(0, 2, FC, seed=seed)
            cfg = TrainConfig(epochs=60, seed=seed)
            single = train_tasks([ds], cfg)[0]
            multi = train_cluster_models([[ds]], "shared_encoder_multihead", cfg)[0]
            X, y = ds.train
            acc_single = accuracy(single.logits(X), y)
            acc_multi = float(np.mean(
                multi.predict_proba(X, task_id=ds.task_id).argmax(axis=1) == y))
            assert abs(acc_single - acc_multi) <= 0.02

    def test_pooling_identical_tasks_never_hurts_train_accuracy(self):
        fc = FamilyConfig(dim=8, label_count=3, train_per_class=15,
                          sample_spread=2.5, separation=2.0)
        for seed in range(10):
            ds = make_target_task(0, 2, fc, seed=seed)
            copy = TaskDataset("copy", 3, ds.train, ds.test)
            cfg = TrainConfig(epochs=60, seed=seed)
            single = train_tasks([ds], cfg)[0]
            pooled = train_cluster_models([[ds, copy]], "shared_classifier", cfg)[0]
            X, y = ds.train
            acc_single = accuracy(single.logits(X), y)
            acc_pooled = float(np.mean(pooled.predict_proba(X).argmax(axis=1) == y))
            assert acc_pooled >= acc_single

    def test_metric_encoder_support_points_classify_themselves(self):
        fc = FamilyConfig(dim=6, label_count=2, train_per_class=10,
                          separation=2.5, sample_spread=0.6)
        ds = make_target_task(0, 2, fc, seed=0)
        model = train_cluster_models([[ds]], "metric_encoder", TrainConfig(epochs=60, seed=0))[0]
        fs = fewshot_from_dataset(ds, shots=3, seed=0)
        P = model.predict_proba(fs.train[0], support=fs.train)
        assert np.array_equal(P.argmax(axis=1), fs.train[1])

    def test_empty_cluster_rejected(self):
        with pytest.raises(InputError) as exc:
            train_cluster_models([[]], "shared_classifier")
        assert exc.value.code == "empty-cluster"

    def test_mixed_label_spaces_rejected_for_shared_classifier(self):
        a = make_target_task(0, 2, FamilyConfig(dim=5, label_count=2), seed=0)
        b = make_target_task(0, 2, FamilyConfig(dim=5, label_count=4), seed=0)
        with pytest.raises(InputError) as exc:
            train_cluster_models([[a, b]], "shared_classifier")
        assert exc.value.code == "label-space-mismatch"

    def test_mixed_dimensions_rejected(self):
        a = make_target_task(0, 2, FamilyConfig(dim=5), seed=0)
        b = make_target_task(0, 2, FamilyConfig(dim=7), seed=0)
        with pytest.raises(InputError) as exc:
            train_cluster_models([[a, b]], "shared_encoder_multihead")
        assert exc.value.code == "dim-mismatch"

    def test_unknown_kind_rejected(self):
        ds = make_target_task(0, 2, FamilyConfig(dim=5), seed=0)
        with pytest.raises(InputError) as exc:
            train_cluster_models([[ds]], "transformer")
        assert exc.value.code == "bad-kind"

    def test_multihead_prediction_requires_a_known_head(self):
        ds = make_target_task(0, 2, FamilyConfig(dim=5), seed=0)
        model = train_cluster_models([[ds]], "shared_encoder_multihead", TrainConfig(epochs=5))[0]
        with pytest.raises(InputError) as exc:
            model.predict_proba(ds.train[0], task_id="stranger")
        assert exc.value.code == "no-head"


# The per-problem loops that the stacked kernels replace, in the kernels'
# augmented form: inputs end in a ones column and every weight matrix in its
# bias row. Stacked models must equal them bit for bit.


def augment(X):
    return np.hstack([X, np.ones((X.shape[0], 1))])


def reference_sgd_epoch(X, y, L, W_e, W_c, cfg, rng):
    """One epoch of the augmented per-problem encoder+softmax loop; X is augmented."""
    order = rng.permutation(len(y))
    for start in range(0, len(y), cfg.batch_size):
        idx = order[start:start + cfg.batch_size]
        Xb, yb = X[idx], y[idx]
        Z = augment(Xb @ W_e)
        G = (softmax(Z @ W_c) - np.eye(L)[yb]) / len(idx)
        dZ = G @ W_c[:-1].T
        W_c -= cfg.lr * (Z.T @ G)
        W_e -= cfg.lr * (Xb.T @ dZ)


def init_augmented(rng, rows, cols):
    W = np.zeros((rows + 1, cols))
    W[:rows] = 0.01 * rng.standard_normal((rows, cols))
    return W


def reference_cluster_arrays(cluster, kind, cfg, cluster_id):
    """Every trained array of a cluster model, from the per-cluster loops."""
    rng = derive_rng(cfg.seed, "cluster", cluster_id, kind)
    d, h = cluster[0].dim, cfg.hidden
    W_e = init_augmented(rng, d, h)
    if kind == "shared_classifier":
        L = cluster[0].label_count
        W_c = init_augmented(rng, h, L)
        X = augment(np.vstack([t.train[0] for t in cluster]))
        y = np.concatenate([t.train[1] for t in cluster])
        for _ in range(cfg.epochs):
            reference_sgd_epoch(X, y, L, W_e, W_c, cfg, rng)
        return [W_e[:-1], W_e[-1], W_c[:-1], W_c[-1]]
    heads = {}
    for t in cluster:
        heads[t.task_id] = init_augmented(rng, h, t.label_count)
    for _ in range(cfg.epochs):
        for t in cluster:
            X, y = t.train
            reference_sgd_epoch(augment(X), y, t.label_count, W_e, heads[t.task_id], cfg, rng)
    return [W_e[:-1], W_e[-1]] + [a for tid in heads for a in (heads[tid][:-1], heads[tid][-1])]


def separate_bias_cluster_arrays(cluster, kind, cfg, cluster_id):
    """reference_cluster_arrays before the augmented form: each bias added
    and its gradient summed on its own."""
    rng = derive_rng(cfg.seed, "cluster", cluster_id, kind)
    d, h = cluster[0].dim, cfg.hidden

    def epoch(X, y, L, W_e, b_e, W_c, b_c):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            Xb, yb = X[idx], y[idx]
            Z = Xb @ W_e + b_e
            G = (softmax(Z @ W_c + b_c) - np.eye(L)[yb]) / len(idx)
            dZ = G @ W_c.T
            W_c -= cfg.lr * (Z.T @ G)
            b_c -= cfg.lr * G.sum(axis=0)
            W_e -= cfg.lr * (Xb.T @ dZ)
            b_e -= cfg.lr * dZ.sum(axis=0)

    W_e, b_e = 0.01 * rng.standard_normal((d, h)), np.zeros(h)
    if kind == "shared_classifier":
        L = cluster[0].label_count
        W_c, b_c = 0.01 * rng.standard_normal((h, L)), np.zeros(L)
        X = np.vstack([t.train[0] for t in cluster])
        y = np.concatenate([t.train[1] for t in cluster])
        for _ in range(cfg.epochs):
            epoch(X, y, L, W_e, b_e, W_c, b_c)
        return [W_e, b_e, W_c, b_c]
    heads = {}
    for t in cluster:
        heads[t.task_id] = (0.01 * rng.standard_normal((h, t.label_count)), np.zeros(t.label_count))
    for _ in range(cfg.epochs):
        for t in cluster:
            epoch(*t.train, t.label_count, W_e, b_e, *heads[t.task_id])
    return [W_e, b_e] + [a for tid in heads for a in heads[tid]]


def model_arrays(model):
    if model.kind == "shared_classifier":
        return [model.W_enc, model.b_enc, model.W_cls, model.b_cls]
    return [model.W_enc, model.b_enc] + [a for tid in model.heads for a in model.heads[tid]]


def stack_clusters(fc):
    """Two stackable triples, a pair, a triple of the first shape again, and
    a triple that holds one task id twice (multihead rejects it)."""
    tasks, _ = make_task_family(9, 3, fc, seed=4)
    twin = TaskDataset(tasks[0].task_id, 3, tasks[8].train, tasks[8].test)
    return [tasks[0:3], tasks[3:6], tasks[6:8], [tasks[2], tasks[5], tasks[7]],
            [tasks[0], tasks[4], twin]]


# Small shapes, and the FamilyConfig() / TrainConfig() shapes (dim 8, hidden
# 16, batch 32), where the augmented and separate-bias arithmetic round
# differently.
CLUSTER_CASES = [(FC, TrainConfig(hidden=5, epochs=8, batch_size=16, seed=2)),
                 (FamilyConfig(), TrainConfig(seed=2))]


class TestClusterStacks:
    """Clusters of one shape train as a stack; no model may depend on that."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(stack_clusters(fc), cfg) for fc, cfg in CLUSTER_CASES]

    @pytest.mark.parametrize("kind", ["shared_classifier", "shared_encoder_multihead"])
    def test_stacked_clusters_are_the_per_cluster_loops(self, cases, kind):
        for clusters, cfg in cases:
            if kind == "shared_encoder_multihead":
                # one head per member cannot serve a task id held twice
                for train in (lambda: train_cluster_models(clusters, kind, cfg),
                              lambda: train_cluster_models([clusters[4]], kind, cfg)):
                    with pytest.raises(InputError) as exc:
                        train()
                    assert exc.value.code == "duplicate-task"
                clusters = clusters[:4]
            models = train_cluster_models(clusters, kind, cfg)
            for k, (cluster, model) in enumerate(zip(clusters, models)):
                expected = reference_cluster_arrays(cluster, kind, cfg, k)
                assert len(model_arrays(model)) == len(expected)
                for a, c in zip(model_arrays(model), expected):
                    assert np.array_equal(a, c)

    @pytest.mark.parametrize("kind", ["shared_classifier", "shared_encoder_multihead"])
    def test_augmented_loops_agree_with_the_separate_bias_loops(self, cases, kind):
        for clusters, cfg in cases:
            for k, cluster in enumerate(clusters):
                new = reference_cluster_arrays(cluster, kind, cfg, k)
                old = separate_bias_cluster_arrays(cluster, kind, cfg, k)
                for a, b in zip(new, old):
                    assert np.abs(a - b).max() <= 1e-12

    def test_a_bad_cluster_is_reported_before_any_training(self, cases):
        clusters, _ = cases[0]
        with pytest.raises(InputError) as exc:
            train_cluster_models(clusters + [[]], "shared_classifier")
        assert exc.value.code == "empty-cluster"


def metric_episodes(cluster, cfg, cluster_id):
    """Each episode's member rows and labels, anchor rows and query rows, drawn
    from the cluster's stream as the per-episode loop draws them."""
    rng = derive_rng(cfg.seed, "cluster", cluster_id, "metric_encoder")
    W = 0.01 * rng.standard_normal((cluster[0].dim, cfg.hidden))
    episodes = []
    for ep in range(cfg.epochs * len(cluster)):
        X, y = cluster[ep % len(cluster)].train
        labels = np.unique(y)
        if labels.size < 2:
            continue
        anchor_idx = np.array([rng.choice(np.flatnonzero(y == l)) for l in labels])
        q_idx = rng.choice(X.shape[0], size=min(cfg.batch_size, X.shape[0]), replace=False)
        Y = np.eye(labels.size)[np.searchsorted(labels, y[q_idx])]
        episodes.append((X, anchor_idx, q_idx, Y))
    return W, episodes


def reference_metric_encoder(cluster, cfg, cluster_id):
    """The augmented per-episode metric_encoder loop that the stacked
    episodes replace: anchors and queries gathered and encoded together."""
    W0, episodes = metric_episodes(cluster, cfg, cluster_id)
    W = np.vstack([W0, np.zeros(cfg.hidden)])
    for X, anchor_idx, q_idx, Y in episodes:
        La = anchor_idx.size
        Xaq = augment(X)[np.concatenate([anchor_idx, q_idx])]
        U = Xaq @ W
        Ua, Vq = U[:La], U[La:]
        G = (softmax(Vq @ Ua.T) - Y) / len(q_idx)
        W -= cfg.lr * (Xaq.T @ np.vstack([G.T @ Vq, G @ Ua]))
    return W[:-1], W[-1]


def separate_bias_metric_encoder(cluster, cfg, cluster_id):
    """reference_metric_encoder before the augmented form: anchors and
    queries encoded apart, with the bias added and its gradient summed on
    its own."""
    W, episodes = metric_episodes(cluster, cfg, cluster_id)
    b = np.zeros(cfg.hidden)
    for X, anchor_idx, q_idx, Y in episodes:
        Xa, Xq = X[anchor_idx], X[q_idx]
        Ua, Vq = Xa @ W + b, Xq @ W + b
        G = (softmax(Vq @ Ua.T) - Y) / len(q_idx)
        W -= cfg.lr * (Xa.T @ (G.T @ Vq) + Xq.T @ (G @ Ua))
        b -= cfg.lr * ((G @ Ua).sum(axis=0) + (G.T @ Vq).sum(axis=0))
    return W, b


def metric_clusters(fc):
    """Three triples of one shape (the last repeats a task id), two triples
    holding a single-label member, a pair, and a triple that differs from
    the first shape only in one member's label count."""
    tasks, _ = make_task_family(9, 3, fc, seed=4)
    X, y = tasks[8].train
    test = tasks[8].test
    twin = TaskDataset(tasks[0].task_id, 3, tasks[8].train, test)
    one_label = TaskDataset("one-label", 3, (X[y == 0], y[y == 0]), test)
    two_labels = TaskDataset("two-labels", 3, (X, y % 2), test)
    return [tasks[0:3], tasks[3:6], [tasks[6], tasks[7], one_label], tasks[6:8],
            [tasks[1], tasks[4], twin], [tasks[2], tasks[5], two_labels],
            [tasks[3], tasks[7], one_label]]


class TestMetricStacks:
    """metric_encoder clusters of one shape step their episodes as a stack;
    every model must still be the per-episode loop's."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(metric_clusters(FC), TrainConfig(hidden=5, epochs=6, batch_size=16, seed=2)),
                (metric_clusters(FamilyConfig()), TrainConfig(seed=2))]

    @pytest.mark.parametrize("limit, stacks", [
        (64, [[0, 1, 4], [2, 6], [3], [5]]),
        (2, [[0, 1], [4], [2, 6], [3], [5]]),
    ])
    def test_stacked_episodes_are_the_per_episode_loop(self, cases, limit, stacks, monkeypatch):
        monkeypatch.setattr(transfer, "_STACK_LIMIT", limit)
        seen = []
        stack_trainer = transfer._train_stack

        def recording(stack, *args):
            seen.append([next(k for k, c in enumerate(clusters) if c is s) for s in stack])
            return stack_trainer(stack, *args)

        monkeypatch.setattr(transfer, "_train_stack", recording)
        for clusters, cfg in cases:
            seen.clear()
            models = train_cluster_models(clusters, "metric_encoder", cfg)
            assert seen == stacks
            for k, (cluster, model) in enumerate(zip(clusters, models)):
                W, b = reference_metric_encoder(cluster, cfg, k)
                assert np.array_equal(model.W_enc, W) and np.array_equal(model.b_enc, b)

    def test_augmented_loop_agrees_with_the_separate_bias_loop(self, cases):
        """At the default shapes the clusters with a two-label or a one-label
        member diverge (weights reach 886 and 1.7e16 after 200 epochs), and
        divergence magnifies any rounding difference, so only the clusters
        whose weights stay bounded are compared; the other 12 must be."""
        compared = 0
        for clusters, cfg in cases:
            for k, cluster in enumerate(clusters):
                old = separate_bias_metric_encoder(cluster, cfg, k)
                if np.abs(old[0]).max() > 10:
                    continue
                compared += 1
                for a, b in zip(reference_metric_encoder(cluster, cfg, k), old):
                    assert np.abs(a - b).max() <= 1e-12
        assert compared == 12

    def test_empty_training_split_is_reported_before_any_episode(self, cases, monkeypatch):
        def no_training(*args):
            raise AssertionError("an episode ran before the clusters were checked")

        monkeypatch.setattr(transfer, "_train_metric_stack", no_training)
        clusters, _ = cases[0]
        first = clusters[0][0]
        d = first.dim
        empty = TaskDataset("empty", 3, (np.zeros((0, d)), np.zeros(0, dtype=int)), first.test)
        for call in (lambda: train_cluster_models(clusters + [[first, empty]], "metric_encoder"),
                     lambda: train_cluster_models([[first, empty]], "metric_encoder")):
            with pytest.raises(InputError) as exc:
                call()
            assert exc.value.code == "empty-train"


class TestMetricPredict:
    """predict_proba of a metric_encoder model: the softmax of the inner
    products with the per-label support anchors."""

    def test_orthonormal_anchor_hit_probability(self):
        """Querying with one of L orthonormal anchors puts weight e/(e+L-1)
        on that anchor's label: softmax over one unit logit and L-1 zeros."""
        for L in (2, 3, 5):
            model = identity_metric_model(L)
            support = (np.eye(L), np.arange(L))
            P = model.predict_proba(np.eye(L)[0][None, :], support=support)
            assert P.shape == (1, L)
            assert abs(P[0, 0] - np.e / (np.e + L - 1)) < 1e-12

    def test_identical_anchors_give_uniform_distribution(self):
        model = identity_metric_model(3)
        point = np.array([0.3, -1.2, 0.5])
        support = (np.tile(point, (4, 1)), np.array([0, 1, 2, 0]))
        P = model.predict_proba(np.array([[1.0, 1.0, 1.0]]), support=support)
        assert np.allclose(P, 1.0 / 3.0)

    def test_single_label_always_certain(self):
        model = identity_metric_model(2)
        support = (np.array([[1.0, 0.0], [0.5, 0.5]]), np.array([0, 0]))
        P = model.predict_proba(np.array([[9.0, -9.0]]), support=support)
        assert P.shape == (1, 1)
        assert P[0, 0] == 1.0

    def test_anchor_is_mean_of_label_support(self):
        model = identity_metric_model(2)
        support = (np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 3.0]]), np.array([0, 0, 1]))
        x = np.array([[1.0, 0.0]])
        P = model.predict_proba(x, support=support)
        expected = np.exp([3.0, 0.0])
        expected /= expected.sum()
        assert np.allclose(P[0], expected)

    def test_empty_support_rejected(self):
        model = identity_metric_model(2)
        empty = (np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(InputError) as exc:
            model.predict_proba(np.zeros((1, 2)), support=empty)
        assert exc.value.code == "no-support"

    def test_gap_in_support_labels_rejected(self):
        model = identity_metric_model(2)
        support = (np.eye(2), np.array([0, 2]))
        with pytest.raises(InputError) as exc:
            model.predict_proba(np.zeros((1, 2)), support=support)
        assert exc.value.code == "missing-label"


class TestSupportChecks:
    """Every few-shot entry checks the support set (the train split) before
    it scores or trains anything."""

    def check(self, support, code):
        models = [identity_metric_model(3)]
        task = TaskDataset("target", 2, support, (np.zeros((1, 3)), np.zeros(1, dtype=int)))
        for entry in (lambda: fsl_combine(models, task), lambda: adaptive_fsl(models, task),
                      lambda: train_support_only(task)):
            with pytest.raises(InputError) as exc:
                entry()
            assert exc.value.code == code

    def test_empty_support_rejected(self):
        self.check((np.zeros((0, 3)), np.zeros(0, dtype=int)), "no-support")

    def test_missing_label_rejected(self):
        self.check((np.zeros((2, 3)), np.array([0, 0])), "missing-label")


class TestCombineConfig:
    @pytest.mark.parametrize("field, value", [
        ("steps", 0), ("lr", 0.0), ("lr", -0.1), ("lr", math.nan), ("lr", math.inf),
    ])
    def test_rejects_a_bad_field(self, field, value):
        with pytest.raises(InputError) as exc:
            CombineConfig(**{field: value})
        assert exc.value.code == "bad-config"

    def test_defaults_are_accepted(self):
        CombineConfig()


class TestFslCombine:
    def test_single_model_gets_all_the_weight(self):
        models = family_models(seed=0, n_tasks=3, K=1)
        tgt = make_target_task(0, 1, FC, seed=0, tag=2)
        fs = fewshot_from_dataset(tgt, shots=2, seed=0)
        predictor = fsl_combine(models, fs)
        assert predictor.alpha.tolist() == [1.0]
        Xq = fs.test[0]
        assert np.allclose(predictor.predict_proba(Xq), models[0].predict_proba(Xq))

    def test_identical_components_leave_weights_uniform(self):
        """With identical components every mixture is the same function, the
        loss surface is flat, and the logits never move."""
        models = family_models(seed=1, n_tasks=3, K=1) * 3
        tgt = make_target_task(0, 1, FC, seed=1, tag=2)
        fs = fewshot_from_dataset(tgt, shots=2, seed=1)
        predictor = fsl_combine(models, fs)
        assert np.array_equal(predictor.logits, np.zeros(3))
        assert np.allclose(predictor.alpha, 1.0 / 3.0)
        Xq = fs.test[0]
        assert np.allclose(predictor.predict_proba(Xq), models[0].predict_proba(Xq))

    def test_opposed_clusters_weight_concentrates_on_the_right_one(self):
        """Two clusters share features but disagree on label names; the
        mixture must pick out the target's own cluster and beat a uniform
        blend on the query set, seed after seed."""
        for seed in range(10):
            tasks, membership = make_task_family(8, 2, FC, seed=seed, opposed=True)
            cfg = TrainConfig(epochs=80, seed=0)
            clusters = [[t for t, c in zip(tasks, membership) if c == k] for k in range(2)]
            models = train_cluster_models(clusters, "shared_classifier", cfg)
            tgt = make_target_task(1, 2, FC, seed=seed, tag=0, opposed=True)
            fs = fewshot_from_dataset(tgt, shots=2, seed=seed)
            predictor = fsl_combine(models, fs)
            alpha_own = predictor.alpha[[id(m) for m in predictor.models].index(id(models[1]))]
            assert alpha_own > 0.9
            uniform = MixturePredictor(models, np.zeros(2), fs)
            assert predictor.accuracy(*fs.test) > uniform.accuracy(*fs.test)

    def test_learned_mixture_never_loses_to_the_best_component(self):
        """Support cross-entropy of the trained mixture must come within 1e-6
        of the best single component; with one dominant cluster that needs
        enough steps for the weights to reach a one-hot."""
        cfg = CombineConfig(steps=20000, lr=100.0)
        for seed in range(3):
            models = family_models(seed=seed)
            tgt = make_target_task(seed % 3, 3, FC, seed=seed, tag=1)
            fs = fewshot_from_dataset(tgt, shots=2, seed=seed)
            mixture_ce, single_ces = support_cross_entropies(fsl_combine(models, fs, cfg))
            assert mixture_ce <= min(single_ces) + 1e-6

    def test_mixture_strictly_beats_anticorrelated_components(self):
        """When each cluster is confidently wrong on half the support, the
        interior optimum crushes both vertices even at default settings."""
        tasks, membership = make_task_family(8, 2, FC, seed=4, opposed=True)
        cfg = TrainConfig(epochs=80, seed=0)
        clusters = [[t for t, c in zip(tasks, membership) if c == k] for k in range(2)]
        models = train_cluster_models(clusters, "shared_classifier", cfg)
        parts = [fewshot_from_dataset(make_target_task(c, 2, FC, seed=4, tag=c, opposed=True),
                                      shots=2, seed=4) for c in range(2)]
        support = (np.vstack([p.train[0] for p in parts]),
                   np.concatenate([p.train[1] for p in parts]))
        mixed = TaskDataset("mixed", 3, support, parts[0].test)
        mixture_ce, single_ces = support_cross_entropies(fsl_combine(models, mixed))
        assert mixture_ce < min(single_ces)

    def test_cluster_models_are_bit_identical_after_combining(self):
        models = family_models(seed=2, n_tasks=6, K=2)
        tgt = make_target_task(0, 2, FC, seed=2, tag=3)
        fs = fewshot_from_dataset(tgt, shots=2, seed=2)
        before = [(m.W_enc.tobytes(), m.b_enc.tobytes(),
                   m.W_cls.tobytes(), m.b_cls.tobytes()) for m in models]
        fsl_combine(models, fs)
        after = [(m.W_enc.tobytes(), m.b_enc.tobytes(),
                  m.W_cls.tobytes(), m.b_cls.tobytes()) for m in models]
        assert before == after

    def test_no_compatible_cluster_rejected(self):
        tasks, membership = make_task_family(4, 2, FC, seed=0)
        cfg = TrainConfig(epochs=5, seed=0)
        clusters = [[t for t, c in zip(tasks, membership) if c == k] for k in range(2)]
        models = train_cluster_models(clusters, "shared_encoder_multihead", cfg)
        tgt = make_target_task(0, 2, FC, seed=0, tag=9)
        fs = fewshot_from_dataset(tgt, shots=1, seed=0)
        with pytest.raises(InputError) as exc:
            fsl_combine(models, fs)
        assert exc.value.code == "no-compatible-cluster"

    def test_label_space_mismatch_excludes_shared_classifiers(self):
        models = family_models(seed=0, n_tasks=3, K=1)
        other = make_target_task(0, 2, FamilyConfig(dim=10, label_count=5), seed=0)
        fs = fewshot_from_dataset(other, shots=1, seed=0)
        with pytest.raises(InputError) as exc:
            fsl_combine(models, fs)
        assert exc.value.code == "no-compatible-cluster"


class TestMixtureDistribution:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=-60.0, max_value=60.0), min_size=2, max_size=2))
    def test_any_logits_give_a_valid_distribution(self, logits):
        predictor = MixturePredictor(self.models, np.array(logits), self.task)
        alpha = predictor.alpha
        assert np.all(alpha >= 0)
        assert abs(alpha.sum() - 1.0) <= 1e-9
        P = predictor.predict_proba(self.task.test[0])
        assert np.all(P >= 0)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)

    @classmethod
    def setup_class(cls):
        cls.models = family_models(seed=5, n_tasks=6, K=2, epochs=20)
        tgt = make_target_task(0, 2, FC, seed=5, tag=1)
        cls.task = fewshot_from_dataset(tgt, shots=1, seed=5)


def random_label_task(task_id, seed, labels=17, dim=12, per=6):
    """Well-separated blobs with arbitrary label names, unrelated across seeds."""
    rng = derive_rng(seed, "randlabel", task_id)
    means = 3.0 * rng.standard_normal((labels, dim))
    X = np.vstack([m + 0.5 * rng.standard_normal((per, dim)) for m in means])
    y = np.repeat(np.arange(labels), per)
    return TaskDataset(task_id, labels, (X, y), (X, y))


class TestAdaptiveFallback:
    def test_confident_cluster_takes_the_combination_path(self):
        tasks, membership = make_task_family(8, 2, FC, seed=3)
        cfg = TrainConfig(epochs=80, seed=0)
        clusters = [[t for t, c in zip(tasks, membership) if c == k] for k in range(2)]
        models = train_cluster_models(clusters, "shared_classifier", cfg)
        tgt = make_target_task(0, 2, FC, seed=3, tag=5)
        fs = fewshot_from_dataset(tgt, shots=2, seed=3)
        Xs, ys = fs.train
        best = max(float(np.mean(m.predict_proba(Xs).argmax(axis=1) == ys)) for m in models)
        assert best >= 0.9
        predictor = adaptive_fsl(models, fs, threshold=0.20)
        assert isinstance(predictor, MixturePredictor)
        assert not predictor.used_fallback

    def test_each_model_scores_the_support_set_once(self, monkeypatch):
        """The threshold test and the mixture share one pass over the support
        set, and the mixture is fsl_combine's."""
        models = family_models(seed=6, n_tasks=6, K=2, epochs=40)
        fs = fewshot_from_dataset(make_target_task(1, 2, FC, seed=6, tag=0), shots=1, seed=6)
        expected = fsl_combine(models, fs)
        calls = []
        predict_proba = ClusterModel.predict_proba

        def counted(model, *args, **kwargs):
            calls.append(model)
            return predict_proba(model, *args, **kwargs)

        monkeypatch.setattr(ClusterModel, "predict_proba", counted)
        predictor = adaptive_fsl(models, fs, threshold=0.0)
        assert [id(m) for m in calls] == [id(m) for m in models]
        assert np.array_equal(predictor.logits, expected.logits)

    def test_a_per_task_model_between_two_compatible_ones_is_left_out(self):
        """Over [compatible, shared_encoder_multihead, compatible] the mixture
        holds exactly the two compatible models, in input order, and its
        weights are those of the mixture over those two alone."""
        first, second = family_models(seed=6, n_tasks=6, K=2, epochs=40)
        tasks, membership = make_task_family(6, 2, FC, seed=6)
        multihead = train_cluster_models([[t for t, c in zip(tasks, membership) if c == 0]],
                                         "shared_encoder_multihead", TrainConfig(epochs=40, seed=0))[0]
        fs = fewshot_from_dataset(make_target_task(1, 2, FC, seed=6, tag=0), shots=1, seed=6)
        for pair in ((first, second), (second, first)):
            predictor = adaptive_fsl([pair[0], multihead, pair[1]], fs, threshold=0.0)
            assert not predictor.used_fallback
            assert [id(m) for m in predictor.models] == [id(m) for m in pair]
            assert predictor.alpha.shape == (2,)
            assert np.array_equal(predictor.logits, fsl_combine(list(pair), fs).logits)

    def test_seventeen_label_stranger_task_falls_back(self):
        """A cluster model trained on unrelated 17-label data scores at chance
        on a fresh 17-label task, far below the 20% bar, so a support-only
        model is trained instead."""
        src = random_label_task("src", seed=1)
        model = train_cluster_models([[src]], "shared_classifier", TrainConfig(epochs=60, seed=0))[0]
        tgt = random_label_task("tgt", seed=99)
        fs = fewshot_from_dataset(tgt, shots=2, seed=0)
        Xs, ys = fs.train
        assert float(np.mean(model.predict_proba(Xs).argmax(axis=1) == ys)) <= 0.2
        predictor = adaptive_fsl([model], fs, threshold=0.20)
        assert isinstance(predictor, MixturePredictor)
        assert predictor.used_fallback
        assert predictor.alpha.tolist() == [1.0] and len(predictor.models) == 1
        alone = train_support_only(fs).models[0]
        assert np.array_equal(predictor.models[0].W_enc, alone.W_enc)
        assert np.array_equal(predictor.models[0].W_cls, alone.W_cls)
        # the support-only model trains on the "support-only" stream
        single = train_tasks([TaskDataset("support-only", fs.label_count, fs.train, fs.test)])[0]
        assert np.array_equal(alone.W_enc, single.W_enc)
        assert np.array_equal(alone.W_cls, single.W_cls)
        P = predictor.predict_proba(fs.test[0])
        assert np.array_equal(P, softmax(single.logits(fs.test[0])))
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_threshold_always_combines(self):
        models = family_models(seed=6, n_tasks=6, K=2, epochs=40)
        tgt = make_target_task(1, 2, FC, seed=6, tag=0)
        fs = fewshot_from_dataset(tgt, shots=1, seed=6)
        predictor = adaptive_fsl(models, fs, threshold=0.0)
        assert isinstance(predictor, MixturePredictor)

    def test_bad_threshold_rejected(self):
        models = family_models(seed=6, n_tasks=3, K=1, epochs=5)
        tgt = make_target_task(0, 1, FC, seed=6, tag=0)
        fs = fewshot_from_dataset(tgt, shots=1, seed=6)
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(InputError) as exc:
                adaptive_fsl(models, fs, threshold=bad)
            assert exc.value.code == "bad-threshold"
