"""Few-shot prediction on new tasks from frozen models.

A few-shot task is a TaskDataset whose train split is the support set and
whose test split is the query set. It is served either by a learned convex
combination of frozen cluster models (transfer.train_cluster_models trains
them) or, when every cluster scores at or below an accuracy threshold on
the support set, by a fresh model trained on the support set alone. Both
answers are a MixturePredictor: the fresh model is the mixture of one model.
Only the mixture weights are fit here; every model comes from ``transfer``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .transfer import (PER_TASK_KINDS, ClusterModel, TaskDataset, TrainConfig, accuracy, softmax,
                       train_tasks)


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
    models = train_tasks([replace(task, task_id="support-only")], config)
    return MixturePredictor(models, np.zeros(1), task, used_fallback=True)


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


def check_threshold(threshold: float) -> None:
    """bad-threshold unless adaptive_fsl can take ``threshold``: it lies in [0, 1)."""
    if not 0 <= threshold < 1:
        raise InputError("bad-threshold", "threshold must lie in [0, 1)")


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
    check_threshold(threshold)
    compatible, probs = _support_probs(models, task)
    best = max((accuracy(P, task.train[1]) for P in probs), default=0.0)
    if best <= threshold:
        return train_support_only(task, fallback_config)
    return _combine(compatible, probs, task)
