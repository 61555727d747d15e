"""Synthetic task families and transfer-score matrices with planted clusters.

Two generators: one fabricates the transfer-score matrix directly (scores
concentrated around a high within-cluster level and a low cross-cluster
level), the other fabricates actual classification tasks as Gaussian blobs
whose class means are shared, up to perturbation, within a cluster. The
first exercises the filtering/completion/clustering chain, the second the
multi-task and few-shot learning paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .seeding import derive_rng
from .transfer import TaskDataset, TransferMatrix, sample_task_pairs


def equal_sizes(n: int, k: int) -> list[int]:
    """k cluster sizes summing to n that differ by at most one; k < 1 is bad-sizes."""
    if k < 1:
        raise InputError("bad-sizes", f"need at least one cluster, got k={k}")
    base, extra = divmod(n, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def balanced_membership(n: int, K: int) -> np.ndarray:
    """Contiguous cluster blocks whose sizes differ by at most one."""
    if K < 1 or K > n:
        raise InputError("bad-K", f"need 1 <= K <= n, got K={K}, n={n}")
    return np.repeat(np.arange(K), equal_sizes(n, K))


def _anchored_pairs(membership: np.ndarray, budget: int, rng) -> np.ndarray:
    """Pair mask, as sample_task_pairs returns, that keeps the planted
    clustering identifiable.

    A uniform sample this small routinely leaves tasks with no within-cluster
    pair, and no method can then place them. Spend the budget on a random
    spanning tree inside each cluster, then one cross-cluster pair per task
    (none for a one-cluster plant), then uniform draws from the remaining
    pairs, taken in row-major order.
    A budget above the n(n-1)/2 pairs that exist is budget-too-large.
    """
    n = membership.size
    K = membership.max() + 1
    clusters = [np.flatnonzero(membership == c) for c in range(K)]
    need = sum(max(len(c) - 1, 0) for c in clusters) + ((n + 1) // 2 if K > 1 else 0)
    if budget < need:
        raise InputError(
            "infeasible-budget",
            f"anchored sampling needs at least {need} pairs for this plant, got {budget}",
        )
    total = n * (n - 1) // 2
    if budget > total:
        raise InputError("budget-too-large", f"asked for {budget} pairs but only {total} exist")
    pairs = np.zeros((n, n), dtype=bool)
    for members in clusters:
        path = rng.permutation(members)
        pairs[np.minimum(path[:-1], path[1:]), np.maximum(path[:-1], path[1:])] = True
    covered = np.zeros(n, dtype=bool)
    for i in rng.permutation(n) if K > 1 else ():
        if covered[i]:
            continue
        others = np.flatnonzero(membership != membership[i])
        uncovered = others[~covered[others]]
        j = rng.choice(uncovered) if uncovered.size else rng.choice(others)
        pairs[min(i, j), max(i, j)] = True
        covered[i] = covered[j] = True
    free = np.flatnonzero(np.triu(~pairs, 1))
    extra = budget - int(pairs.sum())
    if extra > 0:
        pairs.flat[free[rng.choice(free.size, size=extra, replace=False)]] = True
    return pairs


def synthetic_transfer_matrix(
    n: int,
    K: int,
    pair_budget: int,
    seed: int = 0,
    within: tuple[float, float] = (0.9, 0.05),
    cross: tuple[float, float] = (0.1, 0.05),
    sampling: str = "uniform",
) -> tuple[TransferMatrix, np.ndarray]:
    """Sampled pairwise transfer scores around planted cluster levels.

    Both directions of a sampled pair are drawn independently, so the matrix
    is asymmetric the way a real transfer evaluation would be: S_ij then S_ji
    for each pair of the mask in row-major order, clipped to [0, 1].
    sampling="uniform" draws the mask with sample_task_pairs; "anchored" with
    _anchored_pairs, which guarantees every task at least one within-cluster
    and one cross-cluster pair so the plant remains identifiable at small
    budgets.
    """
    if sampling not in ("uniform", "anchored"):
        raise InputError("bad-config", "sampling must be 'uniform' or 'anchored'")
    membership = balanced_membership(n, K)
    if sampling == "anchored":
        pairs = _anchored_pairs(membership, pair_budget, derive_rng(seed, "anchored", n, K))
    else:
        pairs = sample_task_pairs(n, pair_budget, seed=seed)
    i, j = np.nonzero(pairs)
    same = membership[i] == membership[j]
    mean = np.where(same, within[0], cross[0])[:, None]
    sd = np.where(same, within[1], cross[1])[:, None]
    z = derive_rng(seed, "synthscores", n, K).standard_normal((i.size, 2))
    scores = np.eye(n)
    scores[i, j], scores[j, i] = np.clip(mean + sd * z, 0.0, 1.0).T
    observed = pairs | pairs.T | np.eye(n, dtype=bool)
    return TransferMatrix(scores=scores, observed=observed), membership


@dataclass
class FamilyConfig:
    dim: int = 8
    label_count: int = 3
    train_per_class: int = 20
    test_per_class: int = 12
    separation: float = 2.5   # spread of class means within a prototype
    task_noise: float = 0.3   # how far a task's means drift from its prototype
    sample_spread: float = 0.8

    def __post_init__(self):
        if self.dim < 1 or self.label_count < 2:
            raise InputError("bad-config", "need dim >= 1 and at least 2 labels")
        if min(self.train_per_class, self.test_per_class) < 1:
            raise InputError("bad-config", "per-class split sizes must be positive")
        for name in ("separation", "task_noise", "sample_spread"):
            if not 0 <= getattr(self, name) < np.inf:
                raise InputError("bad-config", f"{name} must be finite and non-negative")


def _sample_task(task_id: str, proto: np.ndarray, fc: FamilyConfig, rng, shift: int = 0) -> TaskDataset:
    """A task around prototype proto, drawn from rng: its class means are
    proto + task_noise·N(0, 1), rolled by ``shift`` labels; then train then
    test, per class ``*_per_class`` rows around its mean, shuffled."""
    means = np.roll(proto + fc.task_noise * rng.standard_normal(proto.shape), shift, axis=0)
    L, d = means.shape
    splits = []
    for per in (fc.train_per_class, fc.test_per_class):
        X = np.vstack([means[l] + fc.sample_spread * rng.standard_normal((per, d))
                       for l in range(L)])
        y = np.repeat(np.arange(L), per)
        order = rng.permutation(len(y))
        splits.append((X[order], y[order]))
    return TaskDataset(task_id, L, *splits)


def cluster_prototypes(K: int, fc: FamilyConfig, seed: int, opposed: bool = False) -> np.ndarray:
    """One (label_count x dim) class-mean matrix per cluster.

    With opposed=True every cluster shares the same class means but shifts
    the label names cyclically, so models from one cluster are actively
    wrong on another cluster's tasks rather than merely uninformative.
    """
    rng = derive_rng(seed, "prototypes", K, fc.dim, fc.label_count)
    if not opposed:
        return fc.separation * rng.standard_normal((K, fc.label_count, fc.dim))
    if K > fc.label_count:
        raise InputError("bad-K", "opposed prototypes need label_count >= K")
    base = fc.separation * rng.standard_normal((fc.label_count, fc.dim))
    return np.stack([np.roll(base, c, axis=0) for c in range(K)])


def make_task_family(
    n_tasks: int,
    K: int,
    fc: FamilyConfig | None = None,
    seed: int = 0,
    opposed: bool = False,
) -> tuple[list[TaskDataset], np.ndarray]:
    """Planted-cluster classification tasks as perturbed Gaussian blobs."""
    fc = fc or FamilyConfig()
    membership = balanced_membership(n_tasks, K)
    protos = cluster_prototypes(K, fc, seed, opposed=opposed)
    tasks = [_sample_task(f"task{t:03d}", protos[membership[t]], fc, derive_rng(seed, "task", t))
             for t in range(n_tasks)]
    return tasks, membership


def make_target_task(
    cluster_id: int,
    K: int,
    fc: FamilyConfig | None = None,
    seed: int = 0,
    tag: int = 0,
    opposed: bool = False,
) -> TaskDataset:
    """A fresh task drawn from an existing cluster's prototype."""
    return _cluster_task("target", cluster_id, K, fc, seed, tag, opposed)


def make_adversarial_task(
    cluster_id: int,
    K: int,
    fc: FamilyConfig | None = None,
    seed: int = 0,
    tag: int = 0,
) -> TaskDataset:
    """A cluster's task with cyclically relabeled classes.

    Every cluster model recognizes the features but names them wrongly, so
    its support accuracy lands below chance. This is the regime where a
    fallback to support-only training should win.
    """
    return _cluster_task("adversarial", cluster_id, K, fc, seed, tag, shift=1)


def _cluster_task(kind: str, cluster_id: int, K: int, fc: FamilyConfig | None, seed: int, tag: int,
                  opposed: bool = False, shift: int = 0) -> TaskDataset:
    """Task ``{kind}-c{cluster_id}-{tag}`` around cluster_id's prototype,
    drawn from the stream (seed, kind, cluster_id, tag), labels rolled by shift."""
    fc = fc or FamilyConfig()
    protos = cluster_prototypes(K, fc, seed, opposed=opposed)
    if not 0 <= cluster_id < K:
        raise InputError("bad-K", f"cluster_id {cluster_id} outside [0, {K})")
    return _sample_task(f"{kind}-c{cluster_id}-{tag}", protos[cluster_id], fc,
                        derive_rng(seed, kind, cluster_id, tag), shift)


def fewshot_from_dataset(ds: TaskDataset, shots: int, seed: int = 0) -> TaskDataset:
    """ds as a few-shot task: its train split, the support set, is `shots`
    of ds's training examples per label, and its test split, the query set,
    is ds's."""
    if shots < 1:
        raise InputError("bad-config", "shots must be positive")
    X, y = ds.train
    rng = derive_rng(seed, "fewshot", ds.task_id, shots)
    idx = []
    for l in range(ds.label_count):
        pool = np.flatnonzero(y == l)
        if pool.size < shots:
            raise InputError("no-support", f"label {l} has only {pool.size} training examples")
        idx.extend(rng.choice(pool, size=shots, replace=False).tolist())
    idx = np.array(sorted(idx))
    return TaskDataset(ds.task_id, ds.label_count, (X[idx], y[idx]), ds.test)
