import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taskclust import completion
from taskclust.bench import equal_sizes, generate_planted, observe_and_corrupt
from taskclust.completion import (
    CompletionProblem,
    SolverConfig,
    clip_to_unit,
    complete,
    complete_similarity,
    default_lambda,
    nuclear_norm,
    observation_lambda,
    soft_threshold,
    svt,
)
from taskclust.errors import InputError, NumericalError
from taskclust.filtering import FilterParams, filter_scores
from taskclust.seeding import derive_rng
from taskclust.spectral import adjusted_rand_index, spectral_cluster
from taskclust.synthdata import synthetic_transfer_matrix

finite_matrices = arrays(
    np.float64,
    (6, 6),
    elements=st.floats(-5, 5, allow_nan=False, allow_infinity=False),
)


def symmetrize(M):
    return (M + M.T) / 2.0


def svd_prox(M, tau):
    """Reference prox of tau * nuclear norm at any M, through a full SVD."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    return (U[:, keep] * s[keep]) @ Vt[keep]


def planted_objective(inst, plan, lam):
    E_star = np.where(plan.delta, plan.Y - inst.X_star, 0.0)
    return nuclear_norm(inst.X_star) + lam * np.abs(E_star).sum()


# ---------------------------------------------------------------------------
# singular value thresholding


def test_svt_diagonal_example():
    M = np.diag([3.0, 1.0, 0.2])
    assert np.allclose(svt(M, 0.5), np.diag([2.5, 0.5, 0.0]), atol=1e-12)


def test_svt_zero_matrix():
    for tau in (0.1, 1.0, 10.0):
        assert np.array_equal(svt(np.zeros((4, 4)), tau), np.zeros((4, 4)))


def test_svt_symmetric_path_matches_svd_path():
    rng = np.random.default_rng(4)
    for trial in range(20):
        A = rng.standard_normal((9, 9))
        M = A + A.T
        w = np.linalg.eigvalsh(M)
        assert w.min() < 0 < w.max(), trial  # indefinite: both signs are shrunk
        for tau in (0.1, 1.0, 3.0):
            assert np.abs(svt(M, tau) - svd_prox(M, tau)).max() < 1e-10, (trial, tau)


def test_svt_is_nuclear_norm_prox():
    """Z = svt(M, tau) must satisfy (M - Z)/tau in the subdifferential of
    ||.||_* at Z: equal to U V^T on Z's singular-subspace and spectral norm
    <= 1 on the orthogonal complement."""
    rng = np.random.default_rng(0)
    for trial in range(20):
        M = symmetrize(rng.standard_normal((8, 8)))
        tau = 0.3
        Z = svt(M, tau)
        G = (M - Z) / tau
        U, s, Vt = np.linalg.svd(Z)
        r = int((s > 1e-9).sum())
        Ur, Vr = U[:, :r], Vt[:r].T
        assert np.allclose(Ur.T @ G @ Vr, np.eye(r), atol=1e-8), trial
        P_u = np.eye(8) - Ur @ Ur.T
        P_v = np.eye(8) - Vr @ Vr.T
        residual_block = P_u @ G @ P_v
        assert np.linalg.svd(residual_block, compute_uv=False)[0] <= 1 + 1e-8, trial


def test_svt_beats_random_competitors():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((8, 8))
    M = A + A.T
    tau = 0.3
    Z = svt(M, tau)
    f = lambda W: tau * nuclear_norm(W) + 0.5 * np.linalg.norm(W - M) ** 2
    best = f(Z)
    for radius in (1e-3, 1e-1, 1.0):
        for _ in range(25):
            W = Z + radius * rng.standard_normal((8, 8))  # not symmetric: svt beats those too
            assert f(W) >= best - 1e-9


@settings(max_examples=30, deadline=None)
@given(A=finite_matrices, B=finite_matrices)
def test_svt_non_expansive(A, B):
    P, Q = symmetrize(A), symmetrize(B)
    d = np.linalg.norm(svt(P, 0.7) - svt(Q, 0.7))
    assert d <= np.linalg.norm(P - Q) + 1e-9


def test_svt_leaves_its_input_untouched():
    # _shrink_step only reads its argument: a read-only M is accepted, and an
    # M whose eigenvalues overflow keeps its values when the step fails.
    A = np.random.default_rng(2).standard_normal((7, 7))
    M = A + A.T
    M.flags.writeable = False
    assert np.abs(svt(M, 0.5) - svd_prox(M, 0.5)).max() < 1e-10
    M = np.full((3, 3), 1e308)
    with pytest.raises(NumericalError) as err, np.errstate(over="ignore"):
        svt(M, 0.5)
    assert err.value.code == "diverged"
    assert (M == 1e308).all()


def test_svt_rejects_non_finite():
    M = np.zeros((3, 3))
    M[0, 0] = np.nan
    with pytest.raises(NumericalError) as err:
        svt(M, 0.5)
    assert err.value.code == "non-finite"
    with pytest.raises(InputError):
        svt(np.eye(3), 0.0)


def test_svt_rejects_asymmetric_input():
    M = np.eye(3)
    M[0, 1] = 1e-12
    with pytest.raises(InputError) as err:
        svt(M, 0.5)
    assert err.value.code == "asymmetric-input"


# ---------------------------------------------------------------------------
# soft thresholding


def test_soft_threshold_examples():
    assert np.allclose(soft_threshold(np.array([0.9, -0.2]), 0.5), [0.4, 0.0])
    M = np.random.default_rng(2).standard_normal((5, 5))
    assert np.array_equal(soft_threshold(M, 0.0), M)


def test_soft_threshold_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 7))
    tau = 0.4
    out = soft_threshold(M, tau)
    for i in range(6):
        for j in range(7):
            m = M[i, j]
            expect = np.sign(m) * max(abs(m) - tau, 0.0)
            assert out[i, j] == pytest.approx(expect, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(A=finite_matrices, B=finite_matrices)
def test_soft_threshold_non_expansive(A, B):
    d = np.linalg.norm(soft_threshold(A, 0.3) - soft_threshold(B, 0.3))
    assert d <= np.linalg.norm(A - B) + 1e-12


# ---------------------------------------------------------------------------
# the solver


def test_full_observation_block_diagonal():
    inst = generate_planted(9, 3, (3, 3, 3), seed=0)
    problem = CompletionProblem(
        inst.X_star.astype(float), np.ones((9, 9), dtype=bool), default_lambda(9)
    )
    res = complete(problem)
    assert np.abs(res.X - inst.X_star).max() < 1e-4
    assert np.abs(res.E).max() < 1e-4
    assert res.converged


def test_all_ones_rank_one():
    n = 7
    problem = CompletionProblem(np.ones((n, n)), np.ones((n, n), dtype=bool), default_lambda(n))
    res = complete(problem)
    assert np.abs(res.X - 1.0).max() < 1e-4
    assert np.abs(res.E).max() < 1e-4


def test_partial_observation_planted_recovery():
    # 12 tasks, 3 planted clusters of 4, 70% observed, 2 flips. This
    # observation level sits below the n log^2 n sampling bound, so the
    # planted matrix is only the unique optimum for some draws; the draw is
    # pinned to one where it is, and the oracle below checks optimality
    # rather than trusting the draw.
    inst = generate_planted(12, 3, (4, 4, 4), seed=80)
    plan = observe_and_corrupt(inst, m1=101, m2=2, seed=80)
    lam = 0.5
    res = complete(CompletionProblem(plan.Y, plan.omega, lam))

    # planted-instance oracle: (X*, E*) is feasible and not beaten
    E_star = np.where(plan.delta, plan.Y - inst.X_star, 0.0)
    assert np.allclose(np.where(plan.omega, inst.X_star + E_star, 0.0), plan.Y)
    obj_star = planted_objective(inst, plan, lam)
    assert res.objective() <= obj_star + 1e-6 * max(1.0, obj_star)

    assert np.abs(res.X - inst.X_star).max() < 1e-3
    support = set(map(tuple, np.argwhere(np.abs(res.E) > 1e-4)))
    flips = set(map(tuple, np.argwhere(plan.delta)))
    assert support == flips


@pytest.mark.parametrize("sampling", ["pairs", "free", "one-sided-flip"])
def test_complete_picks_the_shrink_from_the_input(sampling):
    # Only symmetric input has a shrink: mirrored pairs are accepted, while
    # positions drawn freely over the n x n grid or a flip of one mirror are
    # rejected before any solve.
    inst = generate_planted(12, 3, (4, 4, 4), seed=3)
    plan = observe_and_corrupt(inst, m1=130, m2=2, seed=3)
    Y, omega = plan.Y, plan.omega
    if sampling == "free":
        omega = np.zeros((12, 12), dtype=bool)
        omega.flat[np.random.default_rng(3).choice(144, size=130, replace=False)] = True
        assert not np.array_equal(omega, omega.T)
        Y = np.where(omega, inst.X_star, 0.0)
    elif sampling == "one-sided-flip":
        i, j = np.argwhere(omega & ~np.eye(12, dtype=bool))[0]
        Y[i, j] = 1.0 - Y[i, j]
    if sampling == "pairs":
        assert complete(CompletionProblem(Y, omega, 0.5)).converged
        return
    with pytest.raises(InputError) as err:
        CompletionProblem(Y, omega, 0.5)
    assert err.value.code == "asymmetric-input"


def test_problem_ignores_asymmetry_off_omega():
    inst = generate_planted(12, 3, (4, 4, 4), seed=3)
    plan = observe_and_corrupt(inst, m1=100, m2=2, seed=3)
    Y = plan.Y.copy()
    i, j = np.argwhere(~plan.omega & ~np.eye(12, dtype=bool))[0]
    Y[i, j] = 7.0  # only P_Omega(Y) is read
    assert not np.array_equal(Y, Y.T)
    res = complete(CompletionProblem(Y, plan.omega, 0.5))
    ref = complete(CompletionProblem(plan.Y, plan.omega, 0.5))
    assert np.array_equal(res.X, ref.X) and np.array_equal(res.E, ref.E)


# ---------------------------------------------------------------------------
# the warm partial step


def record_steps(monkeypatch):
    """Record (warm basis given, full decomposition) of every solver step."""
    steps = []
    shrink_step = completion._shrink_step

    def recording(M, tau, basis, out=None):
        result = shrink_step(M, tau, basis, out)
        steps.append((basis is not None, result[3]))
        return result

    monkeypatch.setattr(completion, "_shrink_step", recording)
    return steps


def all_full(monkeypatch):
    """Make every step a full eigendecomposition (no warm basis is kept)."""
    monkeypatch.setattr(completion, "_WARM_WIDTH_FRACTION", 0.0)


def planted_problem(n, k, m1_frac, m2_frac, seed):
    inst = generate_planted(n, k, equal_sizes(n, k), seed=seed)
    m1 = int(m1_frac * n * n)
    plan = observe_and_corrupt(inst, m1, int(m2_frac * m1), seed=seed)
    problem = CompletionProblem(plan.Y, plan.omega, float(np.sqrt(n / plan.omega.sum())))
    return inst, plan, problem


def test_the_reported_e_is_symmetric():
    """E, like X, is symmetrized once at the end. The last iterate's Omega
    entries differ from their transposes by rounding (48 entries of this
    instance did before E was symmetrized); the reported E has no such pair,
    and e_support counts its nonzeros."""
    _, plan, problem = planted_problem(60, 3, 0.3, 0.05, 0)
    res = complete(problem)
    assert res.converged
    assert np.array_equal(res.E, res.E.T) and np.array_equal(res.X, res.X.T)
    assert res.e_support == np.count_nonzero(res.E)
    assert not res.E[~plan.omega].any()


@pytest.mark.parametrize("seed", range(4))
def test_warm_steps_match_the_all_full_path(seed, monkeypatch):
    inst, plan, problem = planted_problem(48, 3, 0.7, 0.02, seed)
    warm = complete(problem)
    assert warm.converged and warm.full_steps < warm.iterations / 2
    with monkeypatch.context() as m:
        all_full(m)
        full = complete(problem)
    assert full.converged and full.full_steps == full.iterations
    assert np.abs(warm.X - full.X).max() < 1e-5
    support = lambda res: set(map(tuple, np.argwhere(np.abs(res.E) > 1e-4)))  # noqa: E731
    assert support(warm) == support(full) == set(map(tuple, np.argwhere(plan.delta)))
    assert warm.x_rank == full.x_rank == 3
    assert warm.e_support == full.e_support == plan.delta.sum()
    assert np.abs(warm.X - inst.X_star).max() < 1e-3
    parts = [spectral_cluster(clip_to_unit(r.X)[0], 3, seed=0).assignment for r in (warm, full)]
    assert np.array_equal(parts[0], parts[1])


def test_shrink_step_falls_back_when_the_rank_outgrows_the_basis():
    rng = np.random.default_rng(5)
    V = np.linalg.qr(rng.standard_normal((64, 64)))[0]
    w = np.concatenate([[9.0, -8.0, 7.0, 6.5, -6.0, 5.5, 5.0, 4.5], 0.1 * rng.standard_normal(56)])
    S = (V * w) @ V.T
    S = (S + S.T) / 2.0
    tau = 1.0
    # The basis holds 6 of the 8 eigenvectors that clear tau: no headroom.
    X, rank, basis, full = completion._shrink_step(S, tau, V[:, :6])
    assert full and rank == 8
    assert np.array_equal(X, svt(S, tau))
    assert basis.shape == (64, 8 + completion._BUFFER)
    # With every kept eigenvector and a buffer in the basis, the step stays partial.
    X, rank, basis, full = completion._shrink_step(S, tau, V[:, :10])
    assert not full and rank == 8
    assert np.abs(X - svt(S, tau)).max() < 1e-10


def test_solver_falls_back_when_the_rank_jumps(monkeypatch):
    # Eight equal clusters give eight equal eigenvalues, so all of them clear
    # the threshold in the same step, more than the warm basis can hold. At
    # lambda sqrt(n) = 0.75 < 1 / RHO_SCALE the first threshold lies above
    # ||Y||_2, so step 1 keeps rank 0 and its basis holds only _BUFFER vectors.
    n = 120
    inst = generate_planted(n, 8, equal_sizes(n, 8), seed=0)
    problem = CompletionProblem(inst.X_star, np.ones((n, n), dtype=bool), 0.75 / np.sqrt(n))
    steps = record_steps(monkeypatch)
    warm = complete(problem)
    assert steps[:2] == [(False, True), (True, True)]  # rank 0, then the jump to 8
    assert warm.converged and warm.x_rank == 8
    with monkeypatch.context() as m:
        all_full(m)
        full = complete(problem)
    assert np.abs(warm.X - full.X).max() < 1e-5
    assert np.abs(warm.X - inst.X_star).max() < 1e-3


@pytest.mark.parametrize("seed", range(3))
def test_converged_result_comes_from_a_full_step(seed, monkeypatch):
    _, _, problem = planted_problem(48, 3, 0.7, 0.02, seed)
    steps = record_steps(monkeypatch)
    res = complete(problem)
    assert res.converged and len(steps) == res.iterations
    assert steps[-1][1], "the last step must decompose in full"
    assert any(not full for _, full in steps), "the warm path never engaged"
    assert res.full_steps == sum(full for _, full in steps)


@pytest.mark.parametrize("seed", range(4))
def test_one_triangle_matches_the_symmetrized_shrink(seed, monkeypatch):
    # No step symmetrizes its input: the decompositions read one triangle. A
    # test-only step that shrinks (M + M^T)/2, as every step once did, gives
    # the same solve up to rounding, and the input stays symmetric to
    # rounding level all along.
    _, _, problem = planted_problem(48, 3, 0.7, 0.02, seed)
    shrink_step = completion._shrink_step
    asymmetry = []

    def one_triangle(M, tau, basis, out=None):
        asymmetry.append(np.abs(M - M.T).max() / np.abs(M).max())
        return shrink_step(M, tau, basis, out)

    def symmetrized(M, tau, basis, out=None):
        return shrink_step(symmetrize(M), tau, basis, out)

    monkeypatch.setattr(completion, "_shrink_step", one_triangle)
    res = complete(problem)
    monkeypatch.setattr(completion, "_shrink_step", symmetrized)
    ref = complete(problem)
    assert res.converged and ref.converged
    assert len(asymmetry) == res.iterations and max(asymmetry) <= 1e-12
    for name in ("iterations", "full_steps", "x_rank", "e_support"):
        assert getattr(res, name) == getattr(ref, name), name
    assert np.abs(res.X - ref.X).max() < 1e-10
    parts = [spectral_cluster(clip_to_unit(r.X)[0], 3, seed=0).assignment for r in (res, ref)]
    assert np.array_equal(parts[0], parts[1])


# ---------------------------------------------------------------------------
# the Omega-restricted loop against the n x n loop it replaced


def dense_reference(problem, config=None):
    """complete() as it was when E, the multiplier and R were n x n arrays.

    The reference the Omega-vector loop must match bit for bit. The finite
    check on the whole M is the one _shrink_step made then. Its primal
    residual is the norm of R over Omega in row-major order, the squares
    complete() sums. Its penalty schedule and default max_iter follow complete()'s.
    """
    config = config or SolverConfig()
    omega = problem.omega
    lam = problem.lam

    Yp = np.where(omega, problem.Y, 0.0)
    n = problem.n
    y_norm = np.linalg.norm(Yp)
    denom = max(1.0, y_norm)

    spectral = np.abs(np.linalg.eigvalsh(Yp)).max()
    rho = completion.RHO_SCALE * lam * np.sqrt(n) / spectral if spectral > 0 else 1.0
    rho_initial = rho
    max_iter = max(500, 2 * n) if config.max_iter is None else config.max_iter

    X = np.zeros((n, n))
    E = np.zeros((n, n))
    Lam = np.zeros((n, n))

    converged = False
    residual = np.inf
    basis = None
    rank = full_steps = 0
    it = 0
    for it in range(1, max_iter + 1):
        M = Yp - E + Lam / rho
        if not np.isfinite(M).all():
            raise NumericalError("non-finite", "svt input contains NaN or inf")
        X, rank, basis, full = completion._shrink_step(M, 1.0 / rho, basis)
        full_steps += full
        G = Yp - X + Lam / rho
        E_prev = E
        E = np.where(omega, soft_threshold(G, lam / rho), G)
        R = Yp - X - E
        Lam = Lam + rho * R
        if not (np.isfinite(X).all() and np.isfinite(E).all()):
            raise NumericalError("diverged", f"non-finite iterate at iteration {it}")
        residual = np.linalg.norm(R[omega]) / denom
        dual = rho * np.linalg.norm(E - E_prev) / denom
        if residual < config.tol and dual < config.tol:
            if full:
                converged = True
                break
            basis = None
        if residual > 10.0 * dual:
            rho = min(rho * completion.RHO_STEP, completion.RHO_CAP)
        elif dual > 10.0 * residual:
            rho = max(rho / completion.RHO_STEP, completion.RHO_FLOOR)

    X = (X + X.T) / 2.0
    E = np.where(omega, E, 0.0)
    E = (E + E.T) / 2.0
    return completion.CompletionResult(
        X=X,
        E=E,
        iterations=it,
        final_residual=float(residual),
        converged=converged,
        lam=lam,
        rho_initial=rho_initial,
        rho_final=rho,
        x_rank=rank,
        e_support=int(np.count_nonzero(E)),
        full_steps=full_steps,
    )


RESULT_FIELDS = (
    "iterations", "final_residual", "converged", "rho_initial", "rho_final", "x_rank", "e_support",
    "full_steps",
)


def record_shrink_inputs(monkeypatch):
    """Record the exact bytes of (M, tau, basis) at every shrink step."""
    inputs = []
    shrink_step = completion._shrink_step

    def recording(M, tau, basis, out=None):
        inputs.append((M.tobytes(), tau, None if basis is None else basis.tobytes()))
        return shrink_step(M, tau, basis, out)

    monkeypatch.setattr(completion, "_shrink_step", recording)
    return inputs


def run_both(problem, config, monkeypatch):
    """Solve with the reference and with complete(); return both outcomes and
    the shrink inputs each made. An outcome is a result or the NumericalError."""
    inputs = record_shrink_inputs(monkeypatch)
    outcomes = []
    for solve in (dense_reference, complete):
        try:
            outcomes.append(solve(problem, config))
        except NumericalError as err:
            outcomes.append(err)
        outcomes.append(inputs[:])
        inputs.clear()
    return outcomes


def assert_same_shrink_inputs(ref_inputs, inputs):
    assert len(inputs) == len(ref_inputs)
    first = next((k for k, (a, b) in enumerate(zip(ref_inputs, inputs)) if a != b), None)
    assert first is None, f"shrink input {first + 1} differs"


def assert_bit_for_bit(problem, config, monkeypatch):
    ref, ref_inputs, res, inputs = run_both(problem, config, monkeypatch)
    assert_same_shrink_inputs(ref_inputs, inputs)  # signed zeros included
    assert np.array_equal(res.X, ref.X) and np.array_equal(res.E, ref.E)
    assert res.X.tobytes() == ref.X.tobytes() and res.E.tobytes() == ref.E.tobytes()
    for name in RESULT_FIELDS:
        assert getattr(res, name) == getattr(ref, name), name
    return res


@pytest.mark.parametrize("seed", range(4))
def test_omega_loop_matches_the_dense_loop_on_planted_flips(seed, monkeypatch):
    _, plan, problem = planted_problem(48, 3, 0.7, 0.02, seed)
    assert plan.delta.any()
    res = assert_bit_for_bit(problem, None, monkeypatch)
    assert res.converged


@pytest.mark.parametrize(
    "m1_frac, seed", [(1.0, 1), (0.12, 2)], ids=["full-omega", "sparse-omega"]
)
def test_omega_loop_matches_the_dense_loop_on_full_and_sparse_omega(m1_frac, seed, monkeypatch):
    _, plan, problem = planted_problem(40, 3, m1_frac, 0.05, seed)
    assert problem.omega.all() == (m1_frac == 1.0)
    assert plan.delta.any()
    assert_bit_for_bit(problem, None, monkeypatch)


def test_omega_loop_matches_the_dense_loop_while_x_is_zero(monkeypatch):
    # A tiny lambda makes the initial rho tiny and so the threshold 1/rho
    # huge, and the solve converges to X = 0 with X exactly zero at every
    # step: every entry of M off Omega is a zero whose sign must be the old
    # one. Some observed entries are -0.0 too.
    _, plan, _ = planted_problem(24, 3, 0.5, 0.02, 0)
    Y = np.where(plan.omega & (plan.Y == 0.0), -0.0, plan.Y)
    assert np.signbit(Y[plan.omega]).any()
    problem = CompletionProblem(Y, plan.omega, 1e-3)
    res = assert_bit_for_bit(problem, None, monkeypatch)
    assert res.x_rank == 0 and not res.X.any() and res.converged


def test_omega_loop_matches_the_dense_loop_at_max_iter(monkeypatch):
    _, _, problem = planted_problem(48, 3, 0.7, 0.02, 0)
    res = assert_bit_for_bit(problem, SolverConfig(max_iter=20), monkeypatch)
    assert res.iterations == 20 and not res.converged


@pytest.mark.parametrize(
    "scale, code, shrinks",
    [
        # ||P_Omega(Y)||_2 overflows, so the initial rho is 0 and M is NaN
        (6e307, "non-finite", 0),
        # ||P_Omega(Y)||_2 is subnormal, so the initial rho overflows to inf:
        # the first step passes, then Lambda/rho = inf * 0 / inf
        (1e-310, "non-finite", 1),
        # The first step passes, but the second M's eigenvalues overflow, so
        # the shrink step raises. (The first M is P_Omega(Y), whose spectral
        # norm the initial rho has already found finite.)
        (4e307, "diverged", 2),
    ],
)
def test_omega_loop_fails_like_the_dense_loop(scale, code, shrinks, monkeypatch):
    _, plan, _ = planted_problem(12, 3, 0.7, 0.02, 3)
    problem = CompletionProblem(plan.Y * scale, plan.omega, 0.5)
    with np.errstate(all="ignore"):
        ref, ref_inputs, err, inputs = run_both(problem, None, monkeypatch)
    assert isinstance(ref, NumericalError) and isinstance(err, NumericalError)
    assert (err.code, err.message) == (ref.code, ref.message)
    assert err.code == code and len(ref_inputs) == shrinks
    assert_same_shrink_inputs(ref_inputs, inputs)


def test_an_int8_y_solves_bit_for_bit_like_float64():
    # fileio.read_partial_csv hands the solver a 0/1 int8 matrix. The problem
    # keeps it as int8, and the solve is the float64 solve to the bit.
    _, plan, _ = planted_problem(60, 3, 0.3, 0.03, 2)
    Y8 = plan.Y.astype(np.int8)
    assert np.array_equal(Y8, plan.Y)
    lam = observation_lambda(plan.omega)
    problem = CompletionProblem(Y8, plan.omega, lam)
    assert problem.Y.dtype == np.int8
    res = complete(problem)
    ref = complete(CompletionProblem(Y8.astype(float), plan.omega, lam))
    assert res.converged
    assert res.X.tobytes() == ref.X.tobytes() and res.E.tobytes() == ref.E.tobytes()
    for name in RESULT_FIELDS:
        assert getattr(res, name) == getattr(ref, name), name


def test_peak_memory_is_a_few_n_by_n_arrays():
    """Between steps the solve holds two n x n float64 arrays that
    tracemalloc sees: the previous X, which takes the shrink input, and the
    buffer the new X is written into. A full step adds the eigenvectors, and
    an early step that keeps many eigenpairs adds _threshold's two n x r
    arrays (about one more here). The shrink runs beside four vectors over
    Omega (15% of n x n here), about 0.6 more; LAPACK's own workspace is not
    traced. The peak is 4.7 n x n arrays (5.5 while the shrink also kept
    five more vectors over Omega). The int8 Y is never copied to float64."""
    n = 200
    _, plan, _ = planted_problem(n, 3, 0.15, 0.02, 0)
    problem = CompletionProblem(plan.Y.astype(np.int8), plan.omega, observation_lambda(plan.omega))
    complete(planted_problem(12, 3, 0.5, 0.0, 0)[2])  # first-call set-up is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = complete(problem)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < 6 * n * n * 8


def test_threshold_holds_two_n_by_r_arrays():
    """At kept rank r, _threshold holds the kept columns Vk of V and one
    scaled copy of them, and multiplies by the view Vk^T: two n x r arrays.
    The slack is numpy's ufunc buffer for the broadcast scaling
    (np.getbufsize() float64s) and a few length-n vectors."""
    n = 400
    w, V = np.linalg.eigh(symmetrize(np.random.default_rng(0).standard_normal((n, n))))
    tau = np.sort(np.abs(w))[n // 2 - 1]  # keeps the n/2 eigenvalues largest in magnitude
    out = np.empty((n, n))
    completion._threshold(V, w, tau, out)  # first-call set-up is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        X, r = completion._threshold(V, w, tau, out)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert r == n // 2 and X is out
    assert peak < 2 * n * r * 8 + 8 * np.getbufsize() + 8 * 8 * n


def test_default_rho0_is_the_lambda_scaled_spectral_rule():
    _, plan, problem = planted_problem(24, 3, 0.5, 0.02, 0)
    spectral = np.linalg.norm(np.where(plan.omega, plan.Y, 0.0), 2)
    for lam in (problem.lam, 1.0):
        res = complete(CompletionProblem(plan.Y, plan.omega, lam), SolverConfig(max_iter=1))
        # the first sparse threshold lam / rho0 is 0.8 ||P_Omega(Y)||_2 / sqrt(n) for any lam
        assert res.rho_initial == pytest.approx(1.25 * lam * np.sqrt(24) / spectral, rel=1e-12)


def test_default_rho0_adds_no_lambda_one_tail():
    # The sampling-scaling acceptance test's n = 60 probe at m1 = 1096
    # (lambda = 1, the min-m1 trial seeds). One trial needed more than 500
    # iterations under the former default rho0, n^2 / (4 ||P_Omega(Y)||_1);
    # 1.25 / ||P_Omega(Y)||_2 without the lambda sqrt(n) factor needed more
    # than 500 in five.
    inst = generate_planted(60, 3, equal_sizes(60, 3), seed=0)
    slow = 0
    for t in range(20):
        trial_seed = int(derive_rng(0, "min-m1", 1096, t).integers(2**63))
        plan = observe_and_corrupt(inst, 1096, 0, seed=trial_seed)
        res = complete(CompletionProblem(plan.Y, plan.omega, 1.0), SolverConfig(max_iter=500))
        slow += not res.converged
    assert slow <= 1


def test_default_max_iter_grows_with_n():
    # At n = 600 the planted solve needs more than the former fixed cap of
    # 500 iterations; the default cap, max(500, 2n), lets it converge.
    n = 600
    inst = generate_planted(n, 3, equal_sizes(n, 3), seed=0)
    m1 = 2 * round(4 * n * np.log(n)) + n
    plan = observe_and_corrupt(inst, m1, int(0.05 * m1), seed=0)
    res = complete(CompletionProblem(plan.Y, plan.omega, observation_lambda(plan.omega)))
    assert res.converged and 500 < res.iterations <= 2 * n


def test_objective_never_beats_planted_point():
    for seed in range(10):
        inst = generate_planted(12, 3, (4, 4, 4), seed=seed)
        plan = observe_and_corrupt(inst, m1=101, m2=2, seed=seed)
        lam = default_lambda(12)
        res = complete(CompletionProblem(plan.Y, plan.omega, lam))
        obj_star = planted_objective(inst, plan, lam)
        assert res.objective() <= obj_star + 1e-6 * max(1.0, obj_star), seed


def test_result_contract():
    inst = generate_planted(10, 2, (5, 5), seed=4)
    plan = observe_and_corrupt(inst, m1=80, m2=3, seed=4)
    res = complete(CompletionProblem(plan.Y, plan.omega, default_lambda(10)))
    # E lives on omega only
    assert not np.abs(res.E[~plan.omega]).any()
    # X is symmetric after symmetrization
    assert np.array_equal(res.X, res.X.T)
    # reported residual matches its definition
    R = np.where(plan.omega, plan.Y - res.X - res.E, 0.0)
    expect = np.linalg.norm(R) / max(1.0, np.linalg.norm(np.where(plan.omega, plan.Y, 0.0)))
    assert res.final_residual == pytest.approx(expect, rel=1e-9)
    assert res.converged and res.final_residual < 1e-7


def test_default_lambda():
    assert default_lambda(90) == pytest.approx(1.0 / np.sqrt(90))
    assert default_lambda(4) == 0.5


def test_observation_lambda_is_the_inlined_rule():
    rng = np.random.default_rng(0)
    for n in (1, 7, 48):
        observed = rng.random((n, n)) < 0.3
        observed = observed | observed.T | np.eye(n, dtype=bool)
        lam = observation_lambda(observed)
        assert type(lam) is float
        assert lam == float(np.sqrt(n / observed.sum()))
    assert observation_lambda(np.ones((4, 4), dtype=bool)) == 0.5
    with pytest.raises(InputError) as err:
        observation_lambda(np.zeros((3, 3), dtype=bool))
    assert err.value.code == "empty-mask"


def test_clip_to_unit_reports_fraction():
    X = np.array([[1.5, 0.5, 1 + 1e-9, 0.0], [-0.25, 0.75, -1e-9, 1.0]])
    clipped, frac = clip_to_unit(X)
    assert np.array_equal(clipped, [[1.0, 0.5, 1.0, 0.0], [0.0, 0.75, 0.0, 1.0]])
    assert frac == pytest.approx(0.25)  # rounding just outside [0, 1] is not counted
    tol = completion.CLIP_TOL
    assert clip_to_unit(np.array([1 + 2 * tol, -tol / 2, -2 * tol]))[1] == pytest.approx(2 / 3)


def test_clip_to_unit_holds_one_distance_buffer():
    """Beside X, clip_to_unit holds the clipped copy, one n x n buffer that
    takes clipped - X and then its magnitude, and the bool mask of that
    buffer: 2.125 n x n float64 arrays, not 3 with the difference and its
    magnitude in separate arrays. The fraction is the same number."""
    n = 300
    X = np.random.default_rng(0).uniform(-0.5, 1.5, size=(n, n))
    clip_to_unit(X[:4, :4])  # first-call set-up is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        clipped, frac = clip_to_unit(X)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * n * n * 8
    assert frac == float(np.mean(np.abs(clipped - X) > completion.CLIP_TOL))


def test_solver_config_validation():
    # The stopping rule is the only setting; the penalty schedule is fixed.
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol", "max_iter"]
    with pytest.raises(InputError):
        SolverConfig(tol=0.0)
    with pytest.raises(InputError):
        SolverConfig(max_iter=0)
    for value in (np.nan, np.inf):
        with pytest.raises(InputError) as err:
            SolverConfig(tol=value)
        assert err.value.code == "bad-tol"


def test_complete_similarity_is_the_hand_written_chain():
    """lambda default, complete() and clip_to_unit, in one call, with the
    solver's scalars and the clipped fraction as its diagnostics."""
    tm, _ = synthetic_transfer_matrix(12, 3, 19, seed=0, sampling="anchored")
    ps = filter_scores(tm, FilterParams(include_diagonal=False))
    X, diagnostics, result = complete_similarity(ps.values, ps.observed)
    lam = observation_lambda(ps.observed)
    ref = complete(CompletionProblem(ps.values.astype(float), ps.observed.copy(), lam))
    ref_X, ref_clipped = clip_to_unit(ref.X)
    assert X.tobytes() == ref_X.tobytes()
    assert result.X.tobytes() == ref.X.tobytes() and result.lam == lam
    assert diagnostics == {
        "iterations": ref.iterations, "final_residual": ref.final_residual,
        "converged": ref.converged, "rho_initial": ref.rho_initial, "rho_final": ref.rho_final,
        "x_rank": ref.x_rank, "e_support": ref.e_support, "full_steps": ref.full_steps,
        "lambda": lam, "clipped_fraction": ref_clipped,
    }
    config = SolverConfig(max_iter=3)
    _, _, result = complete_similarity(ps.values, ps.observed, 0.25, config)
    assert result.lam == 0.25 and result.iterations == 3 and not result.converged


@pytest.mark.parametrize("seed", range(3))
def test_complete_similarity_output_clusters_where_the_raw_x_is_rejected(seed):
    """At n = 60 the raw X holds entries just below 0, which spectral_cluster
    rejects; the clipped X clusters the planted families exactly."""
    tm, membership = synthetic_transfer_matrix(60, 3, 491, seed=seed, sampling="anchored")
    ps = filter_scores(tm, FilterParams(include_diagonal=False))
    X, _, result = complete_similarity(ps.values, ps.observed)
    assert result.converged and (result.X < 0).any()
    with pytest.raises(InputError) as err:
        spectral_cluster(result.X, 3, seed=0)
    assert err.value.code == "bad-value"
    part = spectral_cluster(X, 3, seed=0)
    assert adjusted_rand_index(part.assignment, membership) == 1.0


@pytest.mark.parametrize("lam", [0.0, np.nan, np.inf])
def test_problem_rejects_a_lambda_outside_zero_to_infinity(lam):
    with pytest.raises(InputError) as err:
        CompletionProblem(np.ones((3, 3)), np.ones((3, 3), dtype=bool), lam)
    assert err.value.code == "bad-lambda"


def test_problem_validation():
    with pytest.raises(InputError) as err:
        CompletionProblem(np.ones((3, 2)), np.ones((3, 2), dtype=bool), 0.5)
    assert err.value.code == "bad-shape"
    with pytest.raises(InputError) as err:
        CompletionProblem(np.ones((3, 3)), np.zeros((3, 3), dtype=bool), 0.5)
    assert err.value.code == "empty-mask"
    with pytest.raises(InputError) as err:
        CompletionProblem(np.ones((3, 3)), np.ones((3, 3), dtype=bool), -1.0)
    assert err.value.code == "bad-lambda"
