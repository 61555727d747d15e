"""Partition tasks from a completed similarity matrix by normalized cuts.

Implements the symmetric-normalized-Laplacian variant: embed each task by
the K bottom eigenvectors of L_sym = I - D^{-1/2} A D^{-1/2}, row-normalize,
then cluster the embedding with restarted k-means. A tiny self-loop keeps
D invertible on isolated rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .seeding import derive_rng

SELF_LOOP = 1e-8
KMEANS_RESTARTS = 20
KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-9


@dataclass
class TaskPartition:
    n: int
    K: int
    assignment: np.ndarray
    seed: int = 0
    # Eigenvalue K+1 of L_sym minus eigenvalue K; None when K is 1 or n. A
    # gap near 0 means the embedding is an arbitrary basis of a wider
    # eigenspace. Not stored in the partition file.
    laplacian_gap: float | None = field(default=None, compare=False)

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=int)
        if self.assignment.shape != (self.n,):
            raise InputError("bad-shape", "assignment length must equal n")
        if self.K < 1:
            raise InputError("bad-K", "need at least one cluster")
        if self.assignment.size and (self.assignment.min() < 0 or self.assignment.max() >= self.K):
            raise InputError("bad-value", "cluster ids must lie in [0, K)")
        present = np.unique(self.assignment)
        if present.size != self.K:
            raise InputError("empty-cluster", f"only {present.size} of {self.K} clusters are used")

    def members(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == k)


def _kmeans_pp_init(Z: np.ndarray, K: int, rng) -> np.ndarray:
    n = Z.shape[0]
    centers = np.empty((K, Z.shape[1]))
    centers[0] = Z[rng.integers(n)]
    d2 = ((Z - centers[0]) ** 2).sum(axis=1)
    for k in range(1, K):
        total = d2.sum()
        if total <= 0:
            centers[k] = Z[rng.integers(n)]
        else:
            centers[k] = Z[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((Z - centers[k]) ** 2).sum(axis=1))
    return centers


def _lloyd(Z: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    K = centers.shape[0]
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((Z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_centers = centers.copy()
        for k in range(K):
            members = labels == k
            if members.any():
                new_centers[k] = Z[members].mean(axis=0)
            else:
                new_centers[k] = Z[d2.min(axis=1).argmax()]
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < KMEANS_TOL:
            break
    d2 = ((Z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(Z.shape[0]), labels].sum())
    return labels, inertia


def kmeans(Z: np.ndarray, K: int, seed: int = 0) -> np.ndarray:
    """Best of KMEANS_RESTARTS k-means runs; ties broken by inertia then restart order."""
    best_labels, best_inertia = None, np.inf
    for r in range(KMEANS_RESTARTS):
        rng = derive_rng(seed, "kmeans", r)
        labels, inertia = _lloyd(Z, _kmeans_pp_init(Z, K, rng))
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def spectral_cluster(X: np.ndarray, K: int, seed: int = 0) -> TaskPartition:
    """Normalized-cut clustering of a nonnegative symmetric affinity matrix."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if X.ndim != 2 or X.shape != (n, n):
        raise InputError("bad-shape", f"affinity matrix must be square, got {X.shape}")
    if not np.isfinite(X).all():
        raise InputError("non-finite", "affinity matrix contains NaN or inf")
    if np.abs(X - X.T).max() > 1e-8 * max(1.0, np.abs(X).max()):
        raise InputError("asymmetric-input", "affinity matrix must be symmetric")
    if (X < 0).any():
        raise InputError("bad-value", "affinities must be nonnegative")
    if K < 1:
        raise InputError("bad-K", "need at least one cluster")
    if K > n:
        raise InputError("too-many-clusters", f"K={K} exceeds task count n={n}")
    if K == 1:
        return TaskPartition(n=n, K=1, assignment=np.zeros(n, dtype=int), seed=seed)

    # A and then L are built in one n x n buffer, each step rounding as the
    # out-of-place formula (X + X^T)/2 + SELF_LOOP*I and I - D^-1/2 A D^-1/2
    # does. 0.0 - a, unlike -a, keeps a zero off the diagonal +0.0.
    diag = np.diag_indices(n)
    A = X + X.T
    A /= 2.0
    A[diag] += SELF_LOOP
    inv_sqrt = 1.0 / np.sqrt(A.sum(axis=1))
    A *= inv_sqrt[:, None]
    A *= inv_sqrt[None, :]
    L = np.subtract(0.0, A, out=A)
    L[diag] += 1.0
    w, vecs = np.linalg.eigh(L)
    U = vecs[:, :K]
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    Z = U / np.maximum(norms, 1e-300)
    labels = kmeans(Z, K, seed=seed)
    gap = float(w[K] - w[K - 1]) if K < n else None
    return TaskPartition(n=n, K=K, assignment=labels, seed=seed, laplacian_gap=gap)


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Chance-corrected agreement between two labelings of the same items."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise InputError("bad-shape", "labelings must have equal length")
    n = a.size
    if n < 2:
        return 1.0
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    C = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(C, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(C).sum()
    sum_a = comb2(C.sum(axis=1)).sum()
    sum_b = comb2(C.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))
