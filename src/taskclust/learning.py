"""Cluster-level models and few-shot prediction on new tasks.

Each cluster gets a transfer.ClusterModel, the type every per-task model
has too, of one of three kinds: a single encoder+classifier trained on
pooled data (shared_classifier), a shared encoder with one classifier head
per member task (shared_encoder_multihead), and a metric encoder trained
episodically so that examples sit closer to same-label anchors
(metric_encoder). A few-shot task is a TaskDataset whose train split is the
support set and whose test split is the query set. It is served either by a
learned convex combination of frozen cluster predictors or, when every
cluster scores at or below an accuracy threshold on the support set, by a
fresh model trained on the support set alone. Both answers are a
MixturePredictor: the fresh model is the mixture of one model.

train_cluster_models trains the models of same-shaped clusters as one
stack: shared_classifier and shared_encoder_multihead through the SGD kernel
in ``transfer``, metric_encoder by stepping one episode of every cluster at
once. Each cluster keeps its own random stream, so its model does not depend
on the other clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .seeding import derive_rng
from .transfer import (
    KINDS,
    PER_TASK_KINDS,
    ClusterModel,
    TaskDataset,
    TrainConfig,
    _augment,
    _descend,
    _init_stacks,
    _onehot,
    _sgd,
    _stacks,
    _train_encoders,
    accuracy,
    softmax,
    train_single_task,
)

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
    """Models of one kind for same-shaped clusters; cluster b draws from stream ids[b]."""
    rngs = [derive_rng(config.seed, "cluster", k, kind) for k in ids]
    if kind == "metric_encoder":
        return _train_metric_stack(clusters, rngs, config)
    d, h = clusters[0][0].dim, config.hidden
    if kind == "shared_classifier":
        We, Wc = _train_encoders(np.stack([np.vstack([t.train[0] for t in c]) for c in clusters]),
                                 np.stack([np.concatenate([t.train[1] for t in c]) for c in clusters]),
                                 clusters[0][0].label_count, rngs, config)
        return [ClusterModel(kind, We[b, :-1], We[b, -1], Wc[b, :-1], Wc[b, -1])
                for b in range(len(clusters))]

    # shared_encoder_multihead: one encoder per cluster, stepped by every
    # member's batches in turn, and one head per member.
    We, *heads = _init_stacks(rngs, (d, h), *[(h, t.label_count) for t in clusters[0]])
    data = [(_augment(np.stack([c[p].train[0] for c in clusters])),
             _onehot(np.stack([c[p].train[1] for c in clusters]), t.label_count))
            for p, t in enumerate(clusters[0])]
    for _ in range(config.epochs):
        for Wc, (X, Y) in zip(heads, data):
            _sgd(X, Y, Wc, rngs, 1, config, We)
    return [ClusterModel(kind, We[b, :-1], We[b, -1], heads={
                t.task_id: (Wc[b, :-1], Wc[b, -1]) for Wc, t in zip(heads, cluster)})
            for b, cluster in enumerate(clusters)]


def _train_metric_stack(clusters: list[list[TaskDataset]], rngs,
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
    return [ClusterModel("metric_encoder", W[b, :-1], W[b, -1]) for b in range(B)]


def train_cluster_models(
    clusters: list[list[TaskDataset]],
    kind: str,
    config: TrainConfig | None = None,
) -> list[ClusterModel]:
    """One model of the requested kind per cluster, in the order of clusters.

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
    """Fit one model of the requested kind on all tasks in the cluster, from
    the random stream that cluster_id names."""
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
class MixturePredictor:
    """Convex combination of frozen cluster predictors for one few-shot task.

    The task's train split is its support set. alpha = softmax(logits)
    weighs models, the models that can score the task, in order. The
    support-only model of train_support_only is the one-model mixture, with
    used_fallback set.
    """

    models: list[ClusterModel]
    logits: np.ndarray
    task: TaskDataset
    used_fallback: bool = False

    @property
    def alpha(self) -> np.ndarray:
        return softmax(self.logits)

    def predict_proba(self, X) -> np.ndarray:
        P = np.stack([m.predict_proba(X, support=self.task.train) for m in self.models])  # (K, m, L)
        return np.tensordot(self.alpha, P, axes=1)

    def accuracy(self, X, y) -> float:
        return accuracy(self.predict_proba(X), np.asarray(y, dtype=int))


def _check_support(task: TaskDataset) -> None:
    """no-support when the support set (the train split) is empty,
    missing-label when a label has no example in it."""
    ys = task.train[1]
    if len(ys) == 0:
        raise InputError("no-support", "support set is empty")
    if set(range(task.label_count)) - set(ys.tolist()):
        raise InputError("missing-label", "every label must appear in the support set")


def train_support_only(task: TaskDataset, config: TrainConfig | None = None) -> MixturePredictor:
    """A model trained on the support set alone, as the one-model mixture:
    adaptive_fsl's fallback and the few-shot baseline that uses no cluster
    model."""
    _check_support(task)
    model = train_single_task(replace(task, task_id="support-only"), config)
    return MixturePredictor([model], np.zeros(1), task, used_fallback=True)


def _compatible(model: ClusterModel, task: TaskDataset) -> bool:
    if model.dim != task.dim or model.kind in PER_TASK_KINDS:
        return False
    if model.kind == "shared_classifier":
        return model.W_cls.shape[1] == task.label_count
    return True  # metric_encoder


def _support_probs(models: list[ClusterModel], task: TaskDataset):
    """The models that can score the task, in order, and each one's label
    distribution on its support set, after _check_support's checks."""
    _check_support(task)
    compatible = [m for m in models if _compatible(m, task)]
    return compatible, [m.predict_proba(task.train[0], support=task.train) for m in compatible]


def fsl_combine(
    models: list[ClusterModel],
    task: TaskDataset,
    config: CombineConfig | None = None,
) -> MixturePredictor:
    """Learn mixture weights over cluster predictors on the support set.

    Only the K mixture logits are trained; the cluster models stay frozen.
    Models that cannot emit a distribution over the task's label space are
    left out of the mixture.
    """
    return _combine(*_support_probs(models, task), task, config)


def _combine(models, probs, task, config=None) -> MixturePredictor:
    """fsl_combine over the compatible models and their support
    distributions from _support_probs."""
    config = config or CombineConfig()
    if not models:
        raise InputError("no-compatible-cluster", "no cluster model covers the label space")
    ys = task.train[1]
    # Q[k, i] = model k's probability of the true label of support example i
    Q = np.maximum(np.stack([P[np.arange(len(ys)), ys] for P in probs]), 1e-300)
    logits = np.zeros(len(models))
    for _ in range(config.steps):
        alpha = softmax(logits)
        mix = alpha @ Q
        g_alpha = -(Q / mix).mean(axis=1)
        g_logits = alpha * (g_alpha - alpha @ g_alpha)
        logits = logits - config.lr * g_logits
    return MixturePredictor(models, logits, task)


def adaptive_fsl(
    models: list[ClusterModel],
    task: TaskDataset,
    threshold: float = 0.20,
    fallback_config: TrainConfig | None = None,
) -> MixturePredictor:
    """Mixture prediction with a fallback to support-set-only training.

    When no cluster model beats `threshold` accuracy on the support set the
    clusters evidently do not cover the task, so a fresh model is trained on
    the support set instead (train_support_only).
    """
    if not 0 <= threshold < 1:
        raise InputError("bad-threshold", "threshold must lie in [0, 1)")
    compatible, probs = _support_probs(models, task)
    best = max((accuracy(P, task.train[1]) for P in probs), default=0.0)
    if best <= threshold:
        return train_support_only(task, fallback_config)
    return _combine(compatible, probs, task)
