"""The one model type, per-task training and cross-task transfer scores.

A ClusterModel is a small linear encoder plus the label scores it feeds.
Each task gets a shared_classifier one, trained on its training split by
mini-batch gradient descent; ``learning`` trains the same type per cluster.
Transfer from task i to task j is measured by direct evaluation: i's model,
unchanged, is scored on j's training split, so the two tasks must have the
same label count. Scores for a sampled set of task pairs are assembled into
an asymmetric, partially observed matrix with unit diagonal.

All training runs through one kernel that steps a stack of same-shaped
problems at once: tasks of one shape train together, each drawing from a
random stream of its own. Every step works on each problem alone, so a
result is bit for bit the same whatever else is in the stack. The kernel
works in augmented form (inputs end in a ones column and each weight matrix
in its bias row, so a layer is one matmul forward and one backward), takes
its one-hot targets built once per call and gathers each epoch's rows once.
softmax reduces a narrow label axis plane by plane (elementwise maximum and
sum in index order, the same bits as numpy's reductions) rather than
through a reduction call whose inner loop is a few elements long.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .seeding import derive_rng


@dataclass
class TaskDataset:
    task_id: str
    label_count: int
    train: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        if self.label_count < 1:
            raise InputError("bad-label-count", "label_count must be positive")
        dims = set()
        for name in ("train", "test"):
            X, y = getattr(self, name)
            X = np.asarray(X, dtype=float)
            y = np.asarray(y, dtype=int)
            if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
                raise InputError("bad-shape", f"{name} split of {self.task_id} is malformed")
            if not np.isfinite(X).all():
                raise InputError("non-finite", f"{name} split of {self.task_id} has a non-finite feature")
            if y.size and (y.min() < 0 or y.max() >= self.label_count):
                raise InputError(
                    "label-out-of-range",
                    f"{name} split of {self.task_id} has labels outside [0, {self.label_count})",
                )
            if X.shape[0] > 0:
                dims.add(X.shape[1])
            setattr(self, name, (X, y))
        if len(dims) > 1:
            raise InputError("dim-mismatch", f"splits of {self.task_id} disagree on feature dim")

    @property
    def dim(self) -> int:
        return self.train[0].shape[1]


@dataclass
class TransferMatrix:
    """Asymmetric transfer scores with an observation mask; diagonal fixed at 1."""

    scores: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.observed = np.asarray(self.observed, dtype=bool)
        n = self.scores.shape[0]
        if self.scores.ndim != 2 or self.scores.shape != (n, n) or self.observed.shape != (n, n):
            raise InputError("bad-shape", "scores and observed must be square and match")
        if not np.array_equal(self.observed, self.observed.T):
            raise InputError("asymmetric-input", "pair (i,j) must be observed iff (j,i) is")
        d = np.arange(n)
        if not self.observed[d, d].all() or not np.allclose(self.scores[d, d], 1.0):
            raise InputError("bad-value", "diagonal must be observed with value 1")
        obs = self.scores[self.observed]
        if not np.isfinite(obs).all():
            raise InputError("non-finite", "observed scores must be finite")
        if obs.size and (obs.min() < 0 or obs.max() > 1):
            raise InputError("bad-value", "observed scores must lie in [0,1]")

    @property
    def n(self) -> int:
        return self.scores.shape[0]

@dataclass
class TrainConfig:
    hidden: int = 16
    lr: float = 0.1
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if min(self.hidden, self.epochs, self.batch_size) < 1:
            raise InputError("bad-config", "hidden, epochs and batch_size must be positive")
        if not 0 < self.lr < math.inf:  # NaN fails the test too
            raise InputError("bad-config", "learning rate must be positive and finite")


KINDS = ("shared_classifier", "shared_encoder_multihead", "metric_encoder")
# Kinds whose models predict through per-task heads, so no model of them can
# score a task outside its cluster.
PER_TASK_KINDS = ("shared_encoder_multihead",)


@dataclass
class ClusterModel:
    """A trained encoder and its label scores: one softmax head
    (shared_classifier; every per-task model), a head per member task
    (shared_encoder_multihead) or support-set anchors (metric_encoder)."""

    kind: str
    W_enc: np.ndarray                          # (d, h)
    b_enc: np.ndarray                          # (h,)
    W_cls: np.ndarray | None = None            # shared_classifier: (h, L)
    b_cls: np.ndarray | None = None            # (L,)
    heads: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError("bad-kind", f"kind must be one of {KINDS}")

    @property
    def dim(self) -> int:
        return self.W_enc.shape[0]

    def encode(self, X: np.ndarray) -> np.ndarray:
        return _encode(self.W_enc, self.b_enc, X)

    def logits(self, X, task_id: str | None = None, support=None) -> np.ndarray:
        """Label scores for each row of X before the softmax: the head's, the
        head of task_id's, or the inner products with support's anchors."""
        if self.kind == "metric_encoder":
            if support is None:
                raise InputError("no-support", "metric_encoder prediction needs a support set")
            return _anchor_logits(self, support, X)
        if self.kind == "shared_classifier":
            W, b = self.W_cls, self.b_cls
        elif task_id is None or task_id not in self.heads:
            raise InputError("no-head", f"no classifier head for task {task_id!r}")
        else:
            W, b = self.heads[task_id]
        return self.encode(X) @ W + b

    def predict_proba(self, X, task_id: str | None = None, support=None) -> np.ndarray:
        """Distribution over labels for each row of X; row sums are 1."""
        return softmax(self.logits(X, task_id, support))


def _anchor_logits(model: ClusterModel, support, x) -> np.ndarray:
    """Inner products of each encoded row of x with the per-label anchors:
    a label's anchor is the mean encoding of its support examples."""
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
    return model.encode(x) @ anchors.T


def _encode(W_enc: np.ndarray, b_enc: np.ndarray, X) -> np.ndarray:
    """X @ W_enc + b_enc for the rows of X (one row if X is a vector), or dim-mismatch."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != W_enc.shape[0]:
        raise InputError("dim-mismatch", f"encoder expects dim {W_enc.shape[0]}, got {X.shape[1]}")
    return X @ W_enc + b_enc


def accuracy(scores: np.ndarray, y: np.ndarray) -> float:
    """Share of rows whose highest score (a logit or a probability) is at
    label y; an empty split has none (empty-split)."""
    if len(y) == 0:
        raise InputError("empty-split", "cannot score an empty split")
    return float(np.mean(np.argmax(scores, axis=1) == y))


# numpy sums fewer than this many elements along an axis one by one, in index
# order (wider reductions sum pairwise), so softmax can sum narrower label
# axes plane by plane and get the same bits.
_PLANE_LIMIT = 8


def softmax(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis; leading axes are a stack of problems.

    A label axis narrower than _PLANE_LIMIT is reduced as elementwise
    np.maximum and np.add over its planes, in index order: bit for bit the
    Z.max(axis=-1) and P.sum(axis=-1) that wider axes use, without the cost
    of a reduction whose inner loop is a few elements long.
    """
    L = Z.shape[-1]
    if not 0 < L < _PLANE_LIMIT:
        Z = Z - Z.max(axis=-1, keepdims=True)
        P = np.exp(Z)
        return P / P.sum(axis=-1, keepdims=True)
    top = Z[..., :1]
    for l in range(1, L):
        top = np.maximum(top, Z[..., l:l + 1])
    P = np.exp(Z - top)
    total = P[..., :1]
    for l in range(1, L):
        total = total + P[..., l:l + 1]
    return P / total


def _onehot(y: np.ndarray, L: int) -> np.ndarray:
    return (y[..., None] == np.arange(L)).astype(float)


def _augment(X: np.ndarray) -> np.ndarray:
    """X with a trailing ones column, so that _augment(X) @ [W; b] is X @ W + b."""
    return np.concatenate([X, np.ones(X.shape[:-1] + (1,))], axis=-1)


def _descend(W, A, G, lr) -> None:
    """W -= lr·(Aᵀ G) in place on stacks: weights and biases at once when A is augmented."""
    T = A.transpose(0, 2, 1) @ G
    T *= lr
    W -= T


def _sgd(Xa, Y, Wc, rngs, epochs, config, We):
    """Mini-batch softmax SGD on a stack of B same-shaped problems, in place.

    Xa (B, m, k + 1) is augmented, Y (B, m, L) holds the one-hot targets
    (``_onehot(y, L)``), We (B, k + 1, h) the augmented encoders and Wc
    (B, h + 1, L) the augmented heads, which train jointly. Each epoch
    draws one permutation from each generator in ``rngs`` (problem b from
    rngs[b]) and gathers the permuted rows once; every batch is a view of
    them. Every step is stacked matmuls and elementwise operations that
    work on each problem alone, so a problem's result does not depend on
    what else is in the stack.
    """
    B, m = Xa.shape[:2]
    bs = config.batch_size
    rows = np.arange(B)[:, None]
    Za = np.ones((B, min(m, bs), We.shape[2] + 1))
    for _ in range(epochs):
        order = np.stack([rng.permutation(m) for rng in rngs])
        Xe, Ye = Xa[rows, order], Y[rows, order]
        for start in range(0, m, bs):
            Xb = Xe[:, start:start + bs]
            Zb = Za[:, :Xb.shape[1]]
            np.matmul(Xb, We, out=Zb[..., :-1])
            G = softmax(Zb @ Wc)
            G -= Ye[:, start:start + bs]
            G /= Xb.shape[1]
            _descend(We, Xb, G @ Wc[:, :-1].transpose(0, 2, 1), config.lr)
            _descend(Wc, Zb, G, config.lr)
        del Xe, Ye, Xb, Zb  # so that two epochs' rows are never held at once


def _init_stacks(rngs, *shapes) -> list[np.ndarray]:
    """Augmented weight stacks (B, rows + 1, cols), one per (rows, cols) in
    shapes: 0.01·N(0, 1) weights, each problem drawing them in order from its
    own stream, and zero biases."""
    inits = [[np.vstack([0.01 * rng.standard_normal(shape), np.zeros(shape[1])]) for shape in shapes]
             for rng in rngs]
    return [np.stack(ws) for ws in zip(*inits)]


# Most problems stepped in one stack. It bounds the memory a step holds:
# 64 problems of 60 rows and 16 hidden units are 0.5 MB per feature array.
_STACK_LIMIT = 64


def _stacks(keys) -> list[list[int]]:
    """Positions grouped into stacks of equal key, in first-seen order, each
    stack holding at most _STACK_LIMIT positions."""
    groups: dict = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    stacks = []
    for members in groups.values():
        for start in range(0, len(members), _STACK_LIMIT):
            stacks.append(members[start:start + _STACK_LIMIT])
    return stacks


def _train_encoders(X, y, L, rngs, config):
    """Augmented encoders (B, k + 1, h) and heads (B, h + 1, L) trained jointly
    on a stack of B problems: rows X (B, m, k), labels y (B, m), problem b
    drawing its initialization and batch orders from rngs[b]."""
    We, Wc = _init_stacks(rngs, (X.shape[2], config.hidden), (config.hidden, L))
    _sgd(_augment(X), _onehot(y, L), Wc, rngs, config.epochs, config, We)
    return We, Wc


def train_tasks(datasets: list[TaskDataset], config: TrainConfig | None = None) -> list[ClusterModel]:
    """Jointly train encoder and classifier on each task's training split,
    one shared_classifier model per task.

    Tasks with the same training shape are stepped together as one stack.
    Each task draws from its own stream, so its model is the same whatever
    other tasks are trained with it.
    """
    config = config or TrainConfig()
    for ds in datasets:
        if ds.train[0].shape[0] == 0:
            raise InputError("empty-train", f"task {ds.task_id} has no training data")
    models: list = [None] * len(datasets)
    for members in _stacks((ds.train[0].shape, ds.label_count) for ds in datasets):
        stack = [datasets[pos] for pos in members]
        rngs = [derive_rng(config.seed, "single", ds.task_id) for ds in stack]
        We, Wc = _train_encoders(np.stack([ds.train[0] for ds in stack]),
                                 np.stack([ds.train[1] for ds in stack]),
                                 stack[0].label_count, rngs, config)
        for b, pos in enumerate(members):
            models[pos] = ClusterModel("shared_classifier", We[b, :-1], We[b, -1], Wc[b, :-1], Wc[b, -1])
    return models


def train_single_task(dataset: TaskDataset, config: TrainConfig | None = None) -> ClusterModel:
    """Jointly train encoder and classifier on the task's training split."""
    return train_tasks([dataset], config)[0]


def transfer_score(source: ClusterModel, target: TaskDataset) -> float:
    """Direct evaluation: the accuracy of the unchanged source model on
    target.train, by the argmax of its logits (predict_proba's rounding can
    tie distinct logits). Source and target must agree on the feature dim
    (dim-mismatch) and the label count (label-mismatch), and the target
    needs training rows (empty-train)."""
    if target.dim != source.dim:
        raise InputError("dim-mismatch", f"source encoder dim {source.dim} vs target dim {target.dim}")
    if len(target.train[1]) == 0:
        raise InputError("empty-train", f"task {target.task_id} has no training data")
    if target.label_count != source.W_cls.shape[1]:
        raise InputError(
            "label-mismatch",
            f"source head has {source.W_cls.shape[1]} labels but task {target.task_id} "
            f"has {target.label_count}, so it cannot be scored directly",
        )
    return accuracy(source.logits(target.train[0]), target.train[1])


def _pair_offset(i: int, n: int) -> int:
    """Rank of pair (i, i+1) in the lexicographic list of all i<j pairs."""
    return i * (2 * n - i - 1) // 2


def _unrank_pair(t: int, n: int) -> tuple[int, int]:
    i = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * t)) // 2
    while _pair_offset(i + 1, n) <= t:
        i += 1
    while _pair_offset(i, n) > t:
        i -= 1
    j = t - _pair_offset(i, n) + i + 1
    return i, j


def sample_task_pairs(n: int, budget: int, seed: int = 0) -> set[tuple[int, int]]:
    """Uniformly sample `budget` distinct unordered task pairs."""
    total = n * (n - 1) // 2
    if budget <= 0:
        raise InputError("bad-budget", "budget must be positive")
    if budget > total:
        raise InputError(
            "budget-too-large", f"asked for {budget} pairs but only {total} exist"
        )
    rng = derive_rng(seed, "pairs")
    ranks = rng.choice(total, size=budget, replace=False)
    return {_unrank_pair(int(t), n) for t in ranks}


def build_transfer_matrix(
    tasks: list[TaskDataset],
    pairs: set[tuple[int, int]],
    config: TrainConfig | None = None,
) -> TransferMatrix:
    """Train a model on every task in a sampled pair (train_tasks under
    config) and score both directions of each pair with transfer_score. An
    error of either direction names the pair, as ``pair (i,j): ...``."""
    n = len(tasks)
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise InputError("bad-pair", f"pair ({i},{j}) out of range for {n} tasks")
    scores = np.zeros((n, n))
    observed = np.zeros((n, n), dtype=bool)
    needed = sorted({i for p in pairs for i in p})
    models = dict(zip(needed, train_tasks([tasks[i] for i in needed], config)))
    for i, j in sorted(set((min(p), max(p)) for p in pairs)):
        try:
            scores[i, j] = transfer_score(models[i], tasks[j])
            scores[j, i] = transfer_score(models[j], tasks[i])
        except InputError as exc:
            raise InputError(exc.code, f"pair ({i},{j}): {exc.message}") from exc
        observed[i, j] = observed[j, i] = True
    d = np.arange(n)
    scores[d, d] = 1.0
    observed[d, d] = True
    return TransferMatrix(scores=scores, observed=observed)


