import itertools
import tracemalloc

import numpy as np
import pytest

from taskclust.errors import InputError
from taskclust.spectral import (
    SELF_LOOP,
    TaskPartition,
    adjusted_rand_index,
    kmeans,
    spectral_cluster,
)


def planted_affinity(member, noise=0.0, seed=0):
    member = np.asarray(member)
    X = (member[:, None] == member[None, :]).astype(float)
    if noise:
        rng = np.random.default_rng(seed)
        bump = rng.uniform(-noise, noise, size=X.shape)
        bump = (bump + bump.T) / 2
        X = np.clip(X + bump, 0.0, None)
    return X


def normalized_cut(X, assignment, K):
    """Sum over clusters of cut(A, complement) / vol(A)."""
    d = X.sum(axis=1)
    total = 0.0
    for k in range(K):
        inside = assignment == k
        vol = d[inside].sum()
        if vol == 0:
            return np.inf
        cut = X[np.ix_(inside, ~inside)].sum()
        total += cut / vol
    return total


def test_exact_blocks_recovered():
    member = [0] * 4 + [1] * 4 + [2] * 4
    part = spectral_cluster(planted_affinity(member), 3, seed=0)
    assert adjusted_rand_index(part.assignment, member) == 1.0


def test_single_cluster_shortcut():
    X = planted_affinity([0, 0, 1, 1], noise=0.05, seed=1)
    part = spectral_cluster(X, 1, seed=0)
    assert np.array_equal(part.assignment, np.zeros(4, dtype=int))


def test_brute_force_normalized_cut_oracle():
    """n=8, K=2, noisy planted blocks: the returned bipartition must match the
    exhaustive minimum-normalized-cut bipartition over all 2^7 candidates."""
    for seed in range(8):
        member = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        X = planted_affinity(member, noise=0.05, seed=seed)
        part = spectral_cluster(X, 2, seed=seed)

        Xl = X + SELF_LOOP * np.eye(8)
        best_cut, best_assign = np.inf, None
        for bits in itertools.product([0, 1], repeat=7):
            cand = np.array((0,) + bits)
            if len(set(cand)) < 2:
                continue
            cut = normalized_cut(Xl, cand, 2)
            if cut < best_cut:
                best_cut, best_assign = cut, cand
        assert adjusted_rand_index(part.assignment, best_assign) == 1.0, seed


def test_permutation_equivariance():
    member = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    X = planted_affinity(member, noise=0.04, seed=3)
    part = spectral_cluster(X, 3, seed=11)
    rng = np.random.default_rng(5)
    for _ in range(5):
        perm = rng.permutation(len(member))
        permuted = spectral_cluster(X[np.ix_(perm, perm)], 3, seed=11)
        assert adjusted_rand_index(permuted.assignment, part.assignment[perm]) == 1.0


def test_scale_invariance():
    X = planted_affinity([0, 0, 0, 0, 1, 1, 1, 1], noise=0.05, seed=7)
    base = spectral_cluster(X, 2, seed=2)
    for c in (1e-3, 0.5, 40.0):
        scaled = spectral_cluster(c * X, 2, seed=2)
        assert adjusted_rand_index(scaled.assignment, base.assignment) == 1.0


def test_eigen_residual_bound():
    """The embedding's eigenpairs must actually solve the symmetric
    normalized Laplacian eigenproblem."""
    X = planted_affinity([0] * 5 + [1] * 5 + [2] * 5, noise=0.05, seed=9)
    n, K = 15, 3
    Xl = X + SELF_LOOP * np.eye(n)
    d = Xl.sum(axis=1)
    Dm = np.diag(1.0 / np.sqrt(d))
    L = np.eye(n) - Dm @ Xl @ Dm
    L = (L + L.T) / 2
    vals, vecs = np.linalg.eigh(L)
    for i in range(K):
        r = np.linalg.norm(L @ vecs[:, i] - vals[i] * vecs[:, i])
        assert r <= 1e-8 * np.linalg.norm(L)


def test_deterministic_given_seed():
    X = planted_affinity([0, 0, 1, 1, 2, 2], noise=0.05, seed=4)
    a = spectral_cluster(X, 3, seed=21).assignment
    b = spectral_cluster(X, 3, seed=21).assignment
    assert np.array_equal(a, b)


def test_input_validation():
    X = planted_affinity([0, 0, 1, 1])
    with pytest.raises(InputError) as err:
        spectral_cluster(X, 5, seed=0)
    assert err.value.code == "too-many-clusters"
    bad = X.copy()
    bad[0, 1] = 0.7
    with pytest.raises(InputError) as err:
        spectral_cluster(bad, 2, seed=0)
    assert err.value.code == "asymmetric-input"
    with pytest.raises(InputError):
        spectral_cluster(-X, 2, seed=0)
    with pytest.raises(InputError):
        spectral_cluster(X, 0, seed=0)


def test_laplacian_gap_is_the_eigengap_at_k():
    X = planted_affinity([0, 0, 0, 1, 1, 2, 2, 2], noise=0.1, seed=3)
    A = X + SELF_LOOP * np.eye(8)
    d = A.sum(axis=1)
    w = np.linalg.eigvalsh(np.eye(8) - A / np.sqrt(np.outer(d, d)))
    for K in (2, 3, 4):
        assert spectral_cluster(X, K, seed=0).laplacian_gap == pytest.approx(w[K] - w[K - 1])
    assert spectral_cluster(X, 1, seed=0).laplacian_gap is None
    assert spectral_cluster(X, 8, seed=0).laplacian_gap is None


def test_laplacian_gap_vanishes_when_a_row_is_zero():
    # A task with no affinity to any other is its own component: with three
    # blocks besides it, L has four zero eigenvalues and K = 3 has no gap.
    X = planted_affinity([0, 0, 0, 1, 1, 1, 2, 2, 2, 3])
    X[9, 9] = 0.0
    assert spectral_cluster(X, 3, seed=0).laplacian_gap < 1e-9
    assert spectral_cluster(X, 4, seed=0).laplacian_gap > 0.5


def test_in_place_laplacian_matches_the_out_of_place_formula(monkeypatch):
    """L is built in place; it must hold the bits of I - D^-1/2 A D^-1/2 with
    A = (X + X^T)/2 + SELF_LOOP * I, signed zeros included, where X holds
    +0.0 and -0.0 off the diagonal and -0.0 on it."""
    member = [0] * 7 + [1] * 6 + [2] * 5
    X = planted_affinity(member, noise=0.2, seed=5)
    X[0, 0] = X[4, 4] = X[5, 5] = 0.0
    i, j = np.indices(X.shape)
    X = np.where((X == 0.0) & ((i + j) % 2 == 0), -0.0, X)
    zeros = X == 0.0
    assert 20 < np.signbit(X[zeros]).sum() < zeros.sum() - 20
    n, K = X.shape[0], 3
    A = (X + X.T) / 2.0 + SELF_LOOP * np.eye(n)
    inv_sqrt = 1.0 / np.sqrt(A.sum(axis=1))
    L_ref = np.eye(n) - inv_sqrt[:, None] * A * inv_sqrt[None, :]
    w_ref, vecs = np.linalg.eigh(L_ref)
    U = vecs[:, :K]
    labels_ref = kmeans(U / np.maximum(np.linalg.norm(U, axis=1, keepdims=True), 1e-300), K, seed=3)

    decomposed, eigh = [], np.linalg.eigh

    def recording(L):
        decomposed.append(L.tobytes())
        out = eigh(L)
        decomposed.append(out[0].tobytes())
        return out

    monkeypatch.setattr(np.linalg, "eigh", recording)
    part = spectral_cluster(X, K, seed=3)
    assert decomposed == [L_ref.tobytes(), w_ref.tobytes()]
    assert part.laplacian_gap == float(w_ref[K] - w_ref[K - 1])
    assert np.array_equal(part.assignment, labels_ref)
    assert adjusted_rand_index(part.assignment, member) == 1.0


def test_peak_memory_is_two_n_by_n_arrays():
    """Beyond its input, spectral_cluster holds the Laplacian and its
    eigenvectors (the symmetry check's two temporaries come before them).
    tracemalloc sees numpy's arrays but not LAPACK's workspace."""
    n = 200
    X = planted_affinity([k % 3 for k in range(n)], noise=0.1, seed=1)
    spectral_cluster(X[:12, :12], 3, seed=0)  # first-call set-up is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spectral_cluster(X, 3, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8


def test_partition_validation():
    with pytest.raises(InputError) as err:
        TaskPartition(n=4, K=3, assignment=[0, 0, 1, 1])
    assert err.value.code == "empty-cluster"
    with pytest.raises(InputError):
        TaskPartition(n=4, K=2, assignment=[0, 0, 1])


def test_ari_known_values():
    assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert adjusted_rand_index([0, 0, 0, 0], [0, 1, 2, 3]) == 0.0
    # hand-computed 6-element example: contingency {(0,0):2, (0,1):1, (1,1):2, (1,0):1}
    a = [0, 0, 0, 1, 1, 1]
    b = [0, 0, 1, 1, 1, 0]
    # sum comb2(n_ij) = 1+0+1+0 = 2; sum comb2(a_i) = 3+3 = 6; same for b;
    # expected = 6*6/15 = 2.4; max = 6; ARI = (2-2.4)/(6-2.4)
    assert adjusted_rand_index(a, b) == pytest.approx((2 - 2.4) / (6 - 2.4))
