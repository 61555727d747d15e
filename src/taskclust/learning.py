"""Cluster-level models and few-shot prediction on new tasks.

Three cluster model kinds are supported: a single encoder+classifier trained
on pooled data (shared_classifier), a shared encoder with one classifier head
per member task (shared_encoder_multihead), and a metric encoder trained
episodically so that examples sit closer to same-label anchors
(metric_encoder). A new task with a small support set is served either by a
learned convex combination of frozen cluster predictors or, when every
cluster scores at or below an accuracy threshold on the support set, by a
fresh model trained on the support set alone.

train_cluster_models trains the models of same-shaped clusters as one
stack: shared_classifier and shared_encoder_multihead through the SGD kernel
in ``transfer``, metric_encoder by stepping one episode of every cluster at
once. Each cluster keeps its own random stream, so its model does not depend
on the other clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .seeding import derive_rng
from .transfer import (
    TaskDataset,
    TaskModel,
    TrainConfig,
    _augment,
    _descend,
    _encode,
    _init_stacks,
    _onehot,
    _sgd,
    _stacks,
    _train_encoders,
    accuracy,
    softmax,
    train_single_task,
)

KINDS = ("shared_classifier", "shared_encoder_multihead", "metric_encoder")
# Kinds whose models predict through per-task heads, so no model of them can
# score a task outside its cluster.
PER_TASK_KINDS = ("shared_encoder_multihead",)


@dataclass
class FewShotTask:
    support: tuple[np.ndarray, np.ndarray]
    query: tuple[np.ndarray, np.ndarray]
    label_count: int

    def __post_init__(self):
        Xs, ys = self.support
        Xs = np.asarray(Xs, dtype=float)
        ys = np.asarray(ys, dtype=int)
        if len(ys) == 0:
            raise InputError("no-support", "support set is empty")
        if set(range(self.label_count)) - set(ys.tolist()):
            raise InputError("missing-label", "every label must appear in the support set")
        self.support = (Xs, ys)
        Xq, yq = self.query
        self.query = (np.asarray(Xq, dtype=float), np.asarray(yq, dtype=int))

    @property
    def dim(self) -> int:
        return self.support[0].shape[1]


@dataclass
class ClusterModel:
    """One trained model covering a task cluster; behavior depends on kind."""

    cluster_id: int
    kind: str
    W_enc: np.ndarray
    b_enc: np.ndarray
    W_cls: np.ndarray | None = None            # shared_classifier
    b_cls: np.ndarray | None = None
    heads: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError("bad-kind", f"kind must be one of {KINDS}")

    @property
    def dim(self) -> int:
        return self.W_enc.shape[0]

    def encode(self, X: np.ndarray) -> np.ndarray:
        return _encode(self.W_enc, self.b_enc, X)

    def predict_proba(self, X, task_id: str | None = None, support=None) -> np.ndarray:
        """Distribution over labels for each row of X; row sums are 1."""
        if self.kind == "shared_classifier":
            return softmax(self.encode(X) @ self.W_cls + self.b_cls)
        if self.kind == "shared_encoder_multihead":
            if task_id is None or task_id not in self.heads:
                raise InputError("no-head", f"no classifier head for task {task_id!r}")
            W, b = self.heads[task_id]
            return softmax(self.encode(X) @ W + b)
        if support is None:
            raise InputError("no-support", "metric_encoder prediction needs a support set")
        return metric_predict(self, support, X)


def metric_predict(model: ClusterModel, support: tuple[np.ndarray, np.ndarray], x) -> np.ndarray:
    """Label distribution from inner products with per-label anchor encodings.

    The anchor for a label is the mean encoding of that label's support
    examples; probabilities are the softmax of anchor-query inner products.
    """
    Xs, ys = support
    Xs = np.asarray(Xs, dtype=float)
    ys = np.asarray(ys, dtype=int)
    if len(ys) == 0:
        raise InputError("no-support", "support set is empty")
    L = int(ys.max()) + 1
    Zs = model.encode(Xs)
    anchors = np.empty((L, Zs.shape[1]))
    for l in range(L):
        members = ys == l
        if not members.any():
            raise InputError("missing-label", f"label {l} has no support example")
        anchors[l] = Zs[members].mean(axis=0)
    Zq = model.encode(x)
    return softmax(Zq @ anchors.T)


def _check_cluster(cluster: list[TaskDataset], kind: str) -> None:
    if kind not in KINDS:
        raise InputError("bad-kind", f"kind must be one of {KINDS}")
    if not cluster:
        raise InputError("empty-cluster", "cannot train on an empty cluster")
    if len({t.dim for t in cluster}) != 1:
        raise InputError("dim-mismatch", "cluster tasks disagree on feature dimension")
    if kind in PER_TASK_KINDS:
        ids = [t.task_id for t in cluster]
        for tid in ids:
            if ids.count(tid) > 1:
                raise InputError("duplicate-task", f"task {tid} appears twice in one {kind} cluster")
    if kind == "shared_classifier":
        if len({t.label_count for t in cluster}) != 1:
            raise InputError(
                "label-space-mismatch",
                "shared_classifier needs identical label spaces across the cluster",
            )
        if sum(t.train[0].shape[0] for t in cluster) == 0:
            raise InputError("empty-train", "cluster has no training data")
    else:
        for t in cluster:
            if t.train[0].shape[0] == 0:
                raise InputError("empty-train", f"task {t.task_id} has no training data")


def _stack_key(cluster: list[TaskDataset], kind: str):
    """Clusters with equal keys train as one stack."""
    if kind == "shared_classifier":
        return sum(t.train[0].shape[0] for t in cluster), cluster[0].dim, cluster[0].label_count
    if kind == "metric_encoder":
        return (cluster[0].dim,
                tuple((t.train[0].shape[0], np.unique(t.train[1]).size) for t in cluster))
    return cluster[0].dim, tuple((t.train[0].shape[0], t.label_count) for t in cluster)


def _train_stack(clusters: list[list[TaskDataset]], ids: list[int], kind: str,
                 config: TrainConfig) -> list[ClusterModel]:
    """Models of one kind for same-shaped clusters; cluster b gets cluster_id ids[b]."""
    rngs = [derive_rng(config.seed, "cluster", k, kind) for k in ids]
    if kind == "metric_encoder":
        return _train_metric_stack(clusters, ids, rngs, config)
    d, h = clusters[0][0].dim, config.hidden
    if kind == "shared_classifier":
        We, Wc = _train_encoders(np.stack([np.vstack([t.train[0] for t in c]) for c in clusters]),
                                 np.stack([np.concatenate([t.train[1] for t in c]) for c in clusters]),
                                 clusters[0][0].label_count, rngs, config)
        return [ClusterModel(k, kind, We[b, :-1], We[b, -1], Wc[b, :-1], Wc[b, -1])
                for b, k in enumerate(ids)]

    # shared_encoder_multihead: one encoder per cluster, stepped by every
    # member's batches in turn, and one head per member.
    We, *heads = _init_stacks(rngs, (d, h), *[(h, t.label_count) for t in clusters[0]])
    data = [(_augment(np.stack([c[p].train[0] for c in clusters])),
             _onehot(np.stack([c[p].train[1] for c in clusters]), t.label_count))
            for p, t in enumerate(clusters[0])]
    for _ in range(config.epochs):
        for Wc, (X, Y) in zip(heads, data):
            _sgd(X, Y, Wc, rngs, 1, config, We)
    return [ClusterModel(k, kind, We[b, :-1], We[b, -1], heads={
                t.task_id: (Wc[b, :-1], Wc[b, -1]) for Wc, t in zip(heads, cluster)})
            for b, (k, cluster) in enumerate(zip(ids, clusters))]


def _train_metric_stack(clusters: list[list[TaskDataset]], ids: list[int], rngs,
                        config: TrainConfig) -> list[ClusterModel]:
    """Episodic metric_encoder training of same-shaped clusters as one stack.

    Episode e trains on member e mod n of every cluster. Each cluster draws
    one anchor per label and a query batch of that member from its own
    stream, then one stacked step moves every encoder on the softmax loss
    over its anchor-query inner products. A member with fewer than two
    labels makes no draws and no step.
    """
    B, d, h = len(clusters), clusters[0][0].dim, config.hidden
    W = _init_stacks(rngs, (d, h))[0]
    rows = np.arange(B)[:, None]
    members = []  # per position: stacked augmented rows, one-hot label positions, per-label row pools
    for tasks in zip(*clusters):
        labels = [np.unique(t.train[1]) for t in tasks]
        if labels[0].size < 2:
            members.append(None)
            continue
        X = _augment(np.stack([t.train[0] for t in tasks]))
        Y = np.stack([_onehot(np.searchsorted(lab, t.train[1]), lab.size)
                      for lab, t in zip(labels, tasks)])
        pools = [[np.flatnonzero(t.train[1] == l) for l in lab] for lab, t in zip(labels, tasks)]
        members.append((X, Y, pools))
    for ep in range(config.epochs * len(members)):
        member = members[ep % len(members)]
        if member is None:
            continue
        X, Y, pools = member
        m, La = X.shape[1], Y.shape[2]
        q = min(config.batch_size, m)
        idx = np.empty((B, La + q), dtype=np.intp)  # anchors, then queries
        for k, (rng, pool) in enumerate(zip(rngs, pools)):
            idx[k, :La] = [p[rng.integers(p.size)] for p in pool]
            idx[k, La:] = rng.choice(m, size=q, replace=False)
        Xaq = X[rows, idx]
        U = Xaq @ W
        Ua, Vq = U[:, :La], U[:, La:]
        G = softmax(Vq @ Ua.transpose(0, 2, 1))
        G -= Y[rows, idx[:, La:]]
        G /= q
        # logit_{ql} = u_l . v_q: u_l's gradient is sum_q g_ql v_q and v_q's is
        # sum_l g_ql u_l, and one product takes both back through the gathered rows.
        _descend(W, Xaq, np.concatenate([G.transpose(0, 2, 1) @ Vq, G @ Ua], axis=1), config.lr)
    return [ClusterModel(k, "metric_encoder", W[i, :-1], W[i, -1]) for i, k in enumerate(ids)]


def train_cluster_models(
    clusters: list[list[TaskDataset]],
    kind: str,
    config: TrainConfig | None = None,
) -> list[ClusterModel]:
    """One model of the requested kind per cluster; cluster k gets cluster_id k.

    Every cluster is checked before any trains. Clusters of the same shape
    train as one stack, at most transfer._STACK_LIMIT of them: for
    metric_encoder the shape is the cluster size, the dim and each member's
    training row count and distinct-label count, so equal-sized clusters of
    one family step their episodes together. Each cluster draws from its own
    stream in the order it would alone, so every model equals
    train_cluster_model(clusters[k], kind, config, cluster_id=k).
    """
    config = config or TrainConfig()
    for cluster in clusters:
        _check_cluster(cluster, kind)
    models: list = [None] * len(clusters)
    for ids in _stacks(_stack_key(cluster, kind) for cluster in clusters):
        for k, model in zip(ids, _train_stack([clusters[k] for k in ids], ids, kind, config)):
            models[k] = model
    return models


def train_cluster_model(
    cluster: list[TaskDataset],
    kind: str,
    config: TrainConfig | None = None,
    cluster_id: int = 0,
) -> ClusterModel:
    """Fit one model of the requested kind on all tasks in the cluster."""
    config = config or TrainConfig()
    _check_cluster(cluster, kind)
    return _train_stack([cluster], [cluster_id], kind, config)[0]


@dataclass
class CombineConfig:
    steps: int = 500
    lr: float = 0.1

    def __post_init__(self):
        if self.steps < 1:
            raise InputError("bad-config", "steps must be positive")
        if not 0 < self.lr < math.inf:  # NaN fails the test too
            raise InputError("bad-config", "learning rate must be positive and finite")


@dataclass
class CombinationWeights:
    logits: np.ndarray
    indices: list[int]  # positions of the participating models in the input list

    @property
    def alpha(self) -> np.ndarray:
        z = self.logits - self.logits.max()
        e = np.exp(z)
        return e / e.sum()


class MixturePredictor:
    """Convex combination of frozen cluster predictors for one few-shot task."""

    def __init__(self, models, weights: CombinationWeights, task: FewShotTask):
        self.models = models
        self.weights = weights
        self.task = task
        self.used_fallback = False

    def _component_probs(self, X) -> np.ndarray:
        cols = []
        for idx in self.weights.indices:
            cols.append(self.models[idx].predict_proba(X, support=self.task.support))
        return np.stack(cols, axis=0)  # (K, m, L)

    def predict_proba(self, X) -> np.ndarray:
        P = self._component_probs(X)
        return np.tensordot(self.weights.alpha, P, axes=1)

    def accuracy(self, X, y) -> float:
        return accuracy(self.predict_proba(X), np.asarray(y, dtype=int))


def train_support_only(task: FewShotTask, config: TrainConfig | None = None) -> TaskModel:
    """A model trained on the support set alone: adaptive_fsl's fallback and
    the few-shot baseline that uses no cluster model."""
    d = task.dim
    empty = (np.zeros((0, d)), np.zeros(0, dtype=int))
    ds = TaskDataset("support-only", task.label_count, task.support, empty)
    return train_single_task(ds, config)


class SingleTaskPredictor:
    """A model trained on the support set alone (the fallback path)."""

    def __init__(self, model: TaskModel):
        self.model = model
        self.used_fallback = True

    def predict_proba(self, X) -> np.ndarray:
        return softmax(self.model.logits(X))

    def accuracy(self, X, y) -> float:
        return accuracy(self.predict_proba(X), np.asarray(y, dtype=int))


def _compatible(model: ClusterModel, task: FewShotTask) -> bool:
    if model.dim != task.dim or model.kind in PER_TASK_KINDS:
        return False
    if model.kind == "shared_classifier":
        return model.W_cls.shape[1] == task.label_count
    return True  # metric_encoder


def _support_probs(models: list[ClusterModel], task: FewShotTask):
    """Positions of the models that can score the task, and each one's label
    distribution on its support set."""
    indices = [i for i, m in enumerate(models) if _compatible(m, task)]
    return indices, [models[i].predict_proba(task.support[0], support=task.support) for i in indices]


def fsl_combine(
    models: list[ClusterModel],
    task: FewShotTask,
    config: CombineConfig | None = None,
) -> tuple[CombinationWeights, MixturePredictor]:
    """Learn mixture weights over cluster predictors on the support set.

    Only the K mixture logits are trained; the cluster models stay frozen.
    Models that cannot emit a distribution over the task's label space are
    left out of the mixture.
    """
    return _combine(models, task, *_support_probs(models, task), config)


def _combine(models, task, indices, probs, config=None):
    """fsl_combine over the compatible positions and their support
    distributions from _support_probs."""
    config = config or CombineConfig()
    if not indices:
        raise InputError("no-compatible-cluster", "no cluster model covers the label space")
    ys = task.support[1]
    # Q[k, i] = model k's probability of the true label of support example i
    Q = np.maximum(np.stack([P[np.arange(len(ys)), ys] for P in probs]), 1e-300)
    logits = np.zeros(len(indices))
    for _ in range(config.steps):
        z = logits - logits.max()
        alpha = np.exp(z)
        alpha /= alpha.sum()
        mix = alpha @ Q
        g_alpha = -(Q / mix).mean(axis=1)
        g_logits = alpha * (g_alpha - alpha @ g_alpha)
        logits = logits - config.lr * g_logits
    weights = CombinationWeights(logits=logits, indices=indices)
    return weights, MixturePredictor(models, weights, task)


def adaptive_fsl(
    models: list[ClusterModel],
    task: FewShotTask,
    threshold: float = 0.20,
    fallback_config: TrainConfig | None = None,
):
    """Mixture prediction with a fallback to support-set-only training.

    When no cluster model beats `threshold` accuracy on the support set the
    clusters evidently do not cover the task, so a fresh model is trained on
    the support set instead.
    """
    if not 0 <= threshold < 1:
        raise InputError("bad-threshold", "threshold must lie in [0, 1)")
    indices, probs = _support_probs(models, task)
    best = max((accuracy(P, task.support[1]) for P in probs), default=0.0)
    if best <= threshold:
        return SingleTaskPredictor(train_support_only(task, fallback_config))
    _, predictor = _combine(models, task, indices, probs)
    return predictor
