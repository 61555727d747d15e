"""The one model type, all model training and cross-task transfer scores.

A ClusterModel is a small linear encoder plus the label scores it feeds.
Each task gets a shared_classifier one, trained on its training split as a
one-task cluster (train_tasks); each cluster gets one of the three KINDS,
trained on its members' splits (train_cluster_models). Transfer from task i
to task j is measured by direct evaluation: i's model, unchanged, is scored
on j's training split, so the two tasks must have the same label count.
Scores for a sampled set of task pairs, held as an n x n bool mask true only
above the diagonal, are assembled into an asymmetric, partially observed
matrix with unit diagonal.

Tasks and clusters of one shape train as one stack, each drawing from a
random stream of its own, and every step works on each problem alone, so a
result is bit for bit the same whatever else is in the stack. Encoder and
softmax heads train through one SGD kernel call per stack: a problem is one
or more parts, each rows and a head that step the one encoder in turn (a
task or shared_classifier cluster pools its rows into one part, a
shared_encoder_multihead cluster has a part per member). metric_encoder
clusters step one episode of each at once. The kernel works in augmented
form (inputs end in a ones column and each weight matrix in its bias row,
so a layer is one matmul forward and one backward), takes its one-hot
targets built once per call and gathers each epoch's rows once per part.
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


def _sgd(data, heads, rngs, config, We):
    """config.epochs epochs of mini-batch softmax SGD on a stack of B
    same-shaped problems, in place.

    We (B, k + 1, h) holds the augmented encoders. Each problem has one or
    more parts: part p is data[p] = (Xa, Y), augmented rows Xa (B, m, k + 1)
    and their one-hot targets Y (B, m, L) (``_onehot(y, L)``), with its own
    augmented head heads[p] (B, h + 1, L) that trains jointly with the
    encoder. Each epoch steps the parts in order: a part draws one
    permutation from each generator in ``rngs`` (problem b from rngs[b]),
    gathers the permuted rows once and steps a batch at a time, each batch
    a view of them. Every step is stacked matmuls and elementwise
    operations that work on each problem alone, so a problem's result does
    not depend on what else is in the stack.
    """
    bs = config.batch_size
    rows = np.arange(len(rngs))[:, None]
    Zas = [np.ones((len(rngs), min(Xa.shape[1], bs), We.shape[2] + 1)) for Xa, _ in data]
    for _ in range(config.epochs):
        for (Xa, Y), Wc, Za in zip(data, heads, Zas):
            m = Xa.shape[1]
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
            del Xe, Ye, Xb, Zb  # so that two parts' rows are never held at once


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


def _train_stack(clusters: list[list[TaskDataset]], rngs, kind: str,
                 config: TrainConfig) -> list[ClusterModel]:
    """Models of one kind for same-shaped clusters; cluster b draws from rngs[b].

    A shared_classifier cluster is one part, its members' rows pooled under
    one head; a shared_encoder_multihead cluster has a part and a head per
    member, which step its one encoder in turn.
    """
    if kind == "metric_encoder":
        return _train_metric_stack(clusters, rngs, config)
    if kind == "shared_classifier":
        parts = [[(np.vstack([t.train[0] for t in c]), np.concatenate([t.train[1] for t in c]))
                  for c in clusters]]
        labels = [clusters[0][0].label_count]
    else:
        parts = [[c[p].train for c in clusters] for p in range(len(clusters[0]))]
        labels = [t.label_count for t in clusters[0]]
    h = config.hidden
    We, *heads = _init_stacks(rngs, (clusters[0][0].dim, h), *[(h, L) for L in labels])
    data = [(_augment(np.stack([X for X, _ in part])), _onehot(np.stack([y for _, y in part]), L))
            for part, L in zip(parts, labels)]
    _sgd(data, heads, rngs, config, We)
    if kind == "shared_classifier":
        (Wc,) = heads
        return [ClusterModel(kind, We[b, :-1], We[b, -1], Wc[b, :-1], Wc[b, -1])
                for b in range(len(clusters))]
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


def _train_clusters(clusters: list[list[TaskDataset]], rngs, kind: str,
                    config: TrainConfig) -> list[ClusterModel]:
    """One model of the kind per cluster, in order, cluster k drawing from
    rngs[k]: clusters of equal _stack_key train as one stack."""
    models: list = [None] * len(clusters)
    for ids in _stacks(_stack_key(cluster, kind) for cluster in clusters):
        stack = _train_stack([clusters[k] for k in ids], [rngs[k] for k in ids], kind, config)
        for k, model in zip(ids, stack):
            models[k] = model
    return models


def train_tasks(datasets: list[TaskDataset], config: TrainConfig | None = None) -> list[ClusterModel]:
    """Jointly train encoder and classifier on each task's training split,
    one shared_classifier model per task: the model of the task as a
    one-task cluster, drawn from the task's own "single" stream.

    Tasks with the same training shape are stepped together as one stack,
    so a task's model is the same whatever other tasks are trained with it.
    """
    config = config or TrainConfig()
    for ds in datasets:
        if ds.train[0].shape[0] == 0:
            raise InputError("empty-train", f"task {ds.task_id} has no training data")
    rngs = [derive_rng(config.seed, "single", ds.task_id) for ds in datasets]
    return _train_clusters([[ds] for ds in datasets], rngs, "shared_classifier", config)


def train_cluster_models(
    clusters: list[list[TaskDataset]],
    kind: str,
    config: TrainConfig | None = None,
) -> list[ClusterModel]:
    """One model of the requested kind per cluster, in the order of clusters.

    Every cluster is checked before any trains. Clusters of the same shape
    train as one stack, at most _STACK_LIMIT of them: for metric_encoder the
    shape is the cluster size, the dim and each member's training row count
    and distinct-label count, so equal-sized clusters of one family step
    their episodes together. Each cluster draws from its own stream in the
    order it would alone, so every model equals
    train_cluster_model(clusters[k], kind, config, cluster_id=k).
    """
    config = config or TrainConfig()
    for cluster in clusters:
        _check_cluster(cluster, kind)
    rngs = [derive_rng(config.seed, "cluster", k, kind) for k in range(len(clusters))]
    return _train_clusters(clusters, rngs, kind, config)


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
    return _train_stack([cluster], [derive_rng(config.seed, "cluster", cluster_id, kind)], kind, config)[0]


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


def sample_task_pairs(n: int, budget: int, seed: int = 0) -> np.ndarray:
    """Uniformly sample `budget` distinct unordered task pairs: an n x n bool
    mask, true at (i, j), i < j, for each. Ranks are drawn in the order of
    np.triu_indices(n, 1), the lexicographic list of all i < j pairs."""
    total = n * (n - 1) // 2
    if budget <= 0:
        raise InputError("bad-budget", "budget must be positive")
    if budget > total:
        raise InputError(
            "budget-too-large", f"asked for {budget} pairs but only {total} exist"
        )
    ranks = derive_rng(seed, "pairs").choice(total, size=budget, replace=False)
    iu, ju = np.triu_indices(n, 1)
    pairs = np.zeros((n, n), dtype=bool)
    pairs[iu[ranks], ju[ranks]] = True
    return pairs


def build_transfer_matrix(
    tasks: list[TaskDataset],
    pairs: np.ndarray,
    config: TrainConfig | None = None,
) -> TransferMatrix:
    """Train a model on every task in a sampled pair (train_tasks under
    config) and score both directions of each pair, in row-major order, with
    transfer_score. pairs is a mask as sample_task_pairs returns it: another
    shape is bad-shape, and an entry on or below the diagonal is bad-pair.
    An error of either direction names the pair, as ``pair (i,j): ...``."""
    n = len(tasks)
    pairs = np.asarray(pairs, dtype=bool)
    if pairs.shape != (n, n):
        raise InputError("bad-shape", f"pair mask of shape {pairs.shape} for {n} tasks")
    below = np.argwhere(np.tril(pairs))
    if below.size:
        i, j = below[0]
        raise InputError("bad-pair", f"pair ({i},{j}) is not above the diagonal")
    rows, cols = np.nonzero(pairs)
    needed = np.union1d(rows, cols).tolist()
    models = dict(zip(needed, train_tasks([tasks[i] for i in needed], config)))
    scores = np.eye(n)
    for i, j in zip(rows.tolist(), cols.tolist()):
        try:
            scores[i, j] = transfer_score(models[i], tasks[j])
            scores[j, i] = transfer_score(models[j], tasks[i])
        except InputError as exc:
            raise InputError(exc.code, f"pair ({i},{j}): {exc.message}") from exc
    return TransferMatrix(scores=scores, observed=pairs | pairs.T | np.eye(n, dtype=bool))
