import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from taskclust import spectral
from taskclust.completion import SolverConfig, complete_similarity
from taskclust.errors import InputError
from taskclust.filtering import FilterParams, filter_scores
from taskclust.spectral import (
    TaskPartition,
    adjusted_rand_index,
    cluster_scores,
    kmeans,
    spectral_cluster,
)
from taskclust.synthdata import synthetic_transfer_matrix


def planted_affinity(member, noise=0.0, seed=0):
    member = np.asarray(member)
    X = (member[:, None] == member[None, :]).astype(float)
    if noise:
        rng = np.random.default_rng(seed)
        bump = rng.uniform(-noise, noise, size=X.shape)
        bump = (bump + bump.T) / 2
        X = np.clip(X + bump, 0.0, None)
    return X


def regularized(X):
    """The affinity spectral_cluster cuts: (X + X^T)/2 plus tau/n on every
    entry, with tau its mean degree."""
    A = (X + X.T) / 2.0
    return A + A.sum() / len(A) / len(A)


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
    exhaustive minimum-normalized-cut bipartition of the regularized
    affinity over all 2^7 candidates."""
    for seed in range(8):
        member = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        X = planted_affinity(member, noise=0.05, seed=seed)
        part = spectral_cluster(X, 2, seed=seed)

        Xl = regularized(X)
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
    Xl = regularized(X)
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
    A = regularized(X)
    d = A.sum(axis=1)
    w = np.linalg.eigvalsh(np.eye(8) - A / np.sqrt(np.outer(d, d)))
    for K in (2, 3, 4):
        assert spectral_cluster(X, K, seed=0).laplacian_gap == pytest.approx(w[K] - w[K - 1])
    assert spectral_cluster(X, 1, seed=0).laplacian_gap is None
    assert spectral_cluster(X, 8, seed=0).laplacian_gap is None


def test_a_zero_row_joins_a_cluster_and_keeps_the_gap():
    # A task with no affinity to any other joins the graph through the
    # regularizer, so the three blocks beside it keep an eigengap of 9/19 at
    # K = 3. Unregularized, the task was a component of its own: L had four
    # zero eigenvalues and K = 3 had no gap.
    X = planted_affinity([0, 0, 0, 1, 1, 1, 2, 2, 2, 3])
    X[9, 9] = 0.0
    part = spectral_cluster(X, 3, seed=0)
    assert part.laplacian_gap == pytest.approx(9 / 19)
    assert adjusted_rand_index(part.assignment[:9], [0, 0, 0, 1, 1, 1, 2, 2, 2]) == 1.0
    assert spectral_cluster(X, 4, seed=0).assignment.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]


def test_equal_blocks_asked_for_fewer_clusters_have_no_gap():
    # Three equal blocks: the two eigenvalues above 0 coincide, so K = 2
    # cuts an arbitrary basis of their eigenspace. At K = 3 the gap is
    # 1 - tau/(4 + tau) = 0.5, with mean degree tau = 4.
    X = planted_affinity([0] * 4 + [1] * 4 + [2] * 4)
    assert spectral_cluster(X, 2, seed=0).laplacian_gap < 1e-9
    assert spectral_cluster(X, 3, seed=0).laplacian_gap == pytest.approx(0.5)


def test_an_all_zero_affinity_is_taken_as_constant(monkeypatch):
    """An all-zero X has no degree. Any constant A gives L = I - 11^T/n, so
    its eigenvalues are 0 and then 1 (n - 1 times): no K has a gap."""
    decomposed, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda L: decomposed.append(L.copy()) or eigh(L))
    n = 12
    part = spectral_cluster(np.zeros((n, n)), 3, seed=0)
    assert np.abs(decomposed[0] - (np.eye(n) - 1.0 / n)).max() < 1e-15
    assert part.laplacian_gap < 1e-9


def test_in_place_laplacian_matches_the_out_of_place_formula(monkeypatch):
    """L is built in place; it must hold the bits of I - D^-1/2 A D^-1/2 with
    A = (X + X^T)/2 + tau/n, signed zeros included, where X holds +0.0 and
    -0.0 off the diagonal and -0.0 on it."""
    member = [0] * 7 + [1] * 6 + [2] * 5
    X = planted_affinity(member, noise=0.2, seed=5)
    X[0, 0] = X[4, 4] = X[5, 5] = 0.0
    i, j = np.indices(X.shape)
    X = np.where((X == 0.0) & ((i + j) % 2 == 0), -0.0, X)
    zeros = X == 0.0
    assert 20 < np.signbit(X[zeros]).sum() < zeros.sum() - 20
    n, K = X.shape[0], 3
    A = (X + X.T) / 2.0
    A = A + A.sum() / n / n
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


@pytest.mark.parametrize("params, lam, solver", [
    (None, None, None),
    # each of the three settings alone changes the iterations or the partition here
    (FilterParams(p1=1.0, p2=0.2, include_diagonal=False), 0.4,
     SolverConfig(tol=1e-5, max_iter=300)),
])
def test_cluster_scores_is_the_hand_written_chain(params, lam, solver):
    tm, _ = synthetic_transfer_matrix(24, 3, 80, seed=3, sampling="anchored")
    ps = filter_scores(tm, params)
    part, diagnostics = cluster_scores(ps, 3, lam, solver, seed=5)
    X, ref_diagnostics, _ = complete_similarity(ps.values, ps.observed, lam, solver)
    ref = spectral_cluster(X, 3, seed=5)
    assert part.assignment.tolist() == ref.assignment.tolist()
    assert (part.n, part.K, part.seed) == (24, 3, 5)
    assert diagnostics == {**ref_diagnostics, "laplacian_gap": ref.laplacian_gap}
    assert list(diagnostics) == [*ref_diagnostics, "laplacian_gap"]


def test_cluster_scores_clusters_an_unconverged_solve():
    tm, _ = synthetic_transfer_matrix(24, 3, 80, seed=3, sampling="anchored")
    part, diagnostics = cluster_scores(filter_scores(tm), 3, solver=SolverConfig(max_iter=1))
    assert diagnostics["converged"] is False and diagnostics["iterations"] == 1
    assert part.n == 24 and part.K == 3


def test_cluster_scores_frees_the_solve_before_the_laplacian(monkeypatch):
    """The solver's result, with its unclipped X and E, is gone by the time
    spectral_cluster builds the Laplacian."""
    results = []

    def completing(*args):
        out = complete_similarity(*args)
        results.append(weakref.ref(out[2]))
        return out

    def clustering(X, K, seed):
        assert results and results[0]() is None
        return spectral_cluster(X, K, seed)

    monkeypatch.setattr(spectral, "complete_similarity", completing)
    monkeypatch.setattr(spectral, "spectral_cluster", clustering)
    tm, _ = synthetic_transfer_matrix(24, 3, 80, seed=3, sampling="anchored")
    assert cluster_scores(filter_scores(tm), 3)[0].n == 24


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
