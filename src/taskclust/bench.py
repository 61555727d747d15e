"""Planted-cluster benchmark for the recovery guarantee.

Ground truth is the block similarity matrix X* = sum_i a_i a_i^T built from
cluster membership vectors, so rank(X*) equals the number of clusters. We
observe m1 entries uniformly at random, corrupt m2 of them by bit-flips,
run the completion solver, and check entrywise recovery of X*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .completion import CompletionProblem, SolverConfig, complete, default_lambda
from .errors import InputError, NumericalError
from .seeding import derive_rng


@dataclass
class PlantedInstance:
    n: int
    k: int
    sizes: list[int]
    membership: np.ndarray  # cluster id per task
    X_star: np.ndarray      # {0,1}, X*_ij = 1 iff i and j share a cluster


@dataclass
class ObservationPlan:
    m1: int
    m2: int
    omega: np.ndarray  # bool mask of observed positions, |omega| = m1
    delta: np.ndarray  # bool mask of corrupted positions, subset of omega
    Y: np.ndarray      # X* with delta positions bit-flipped


@dataclass
class CoherenceDiagnostics:
    mu0: float      # sqrt(n/k) * max_i max(||P_U e_i||, ||P_V e_i||)
    uv_max: float   # max |(U V^T)_ij|
    mu1: float      # uv_max * n / sqrt(k)


def generate_planted(n: int, k: int, sizes, seed: int = 0) -> PlantedInstance:
    """Block similarity matrix with the given cluster sizes; membership is a
    seeded permutation so blocks are not contiguous."""
    sizes = [int(s) for s in sizes]
    if len(sizes) != k or sum(sizes) != n or any(s < 1 for s in sizes):
        raise InputError("bad-sizes", f"sizes {sizes} incompatible with n={n}, k={k}")
    labels = np.repeat(np.arange(k), sizes)
    rng = derive_rng(seed, "planted", n, k)
    membership = labels[rng.permutation(n)]
    X_star = (membership[:, None] == membership[None, :]).astype(float)
    return PlantedInstance(n=n, k=k, sizes=sizes, membership=membership, X_star=X_star)


def equal_sizes(n: int, k: int) -> list[int]:
    base, extra = divmod(n, k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def _weighted_unit_order(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Efraimidis-Spirakis: sorting by Exp(1)/w reproduces sequential sampling
    # where each draw picks a position uniformly among remaining ones.
    keys = rng.exponential(size=weights.size) / weights
    return np.argsort(keys, kind="stable")


def _take_units(order: np.ndarray, weights: np.ndarray, budget: int) -> np.ndarray:
    """Prefix of ``order`` whose weights sum to exactly ``budget``."""
    cw = np.cumsum(weights[order])
    cut = int(np.searchsorted(cw, budget, side="right"))
    taken = order[:cut]
    short = budget - (cw[cut - 1] if cut > 0 else 0)
    if short == 0:
        return taken
    # need one more position: pull the next weight-1 (diagonal) unit forward
    rest = order[cut:]
    singles = rest[weights[rest] == 1]
    if singles.size:
        return np.concatenate([taken, singles[:1]])
    # every remaining unit is a mirrored pair: swap one sampled diagonal for
    # the next pair instead, which changes the count by +2-1 = +1
    taken_singles = weights[taken] == 1
    if rest.size == 0 or not taken_singles.any():
        raise InputError(
            "infeasible-budget",
            f"cannot hit odd budget {budget}: no diagonal slots left",
        )
    drop = np.flatnonzero(taken_singles)[-1]
    return np.concatenate([np.delete(taken, drop), rest[:1]])


def observe_and_corrupt(
    inst: PlantedInstance,
    m1: int,
    m2: int,
    seed: int = 0,
) -> ObservationPlan:
    """Sample m1 observed positions, flip m2 of them.

    Sampling mirrors how the pipeline produces Y, so Omega and Y are
    symmetric: an off-diagonal draw yields both (i,j) and (j,i), counting 2
    toward m1, and flips hit both mirrored positions.
    """
    n = inst.n
    if not (0 <= m2 <= m1 <= n * n):
        raise InputError("bad-budget", f"need 0 <= m2 <= m1 <= n^2, got m1={m1}, m2={m2}")
    rng = derive_rng(seed, "observe", n, m1, m2)
    omega = np.zeros((n, n), dtype=bool)
    delta = np.zeros((n, n), dtype=bool)

    iu, ju = np.triu_indices(n, k=1)
    # units: n diagonal cells (weight 1) then the n(n-1)/2 pairs (weight 2)
    weights = np.concatenate([np.ones(n, dtype=int), np.full(iu.size, 2, dtype=int)])
    order = _weighted_unit_order(weights.astype(float), rng)
    chosen = _take_units(order, weights, m1)
    diag_units = chosen[chosen < n]
    pair_units = chosen[chosen >= n] - n
    omega[diag_units, diag_units] = True
    omega[iu[pair_units], ju[pair_units]] = True
    omega[ju[pair_units], iu[pair_units]] = True

    sub_weights = weights[chosen]
    sub_order = _weighted_unit_order(sub_weights.astype(float), rng)
    corrupt = chosen[_take_units(sub_order, sub_weights, m2)]
    cd = corrupt[corrupt < n]
    cp = corrupt[corrupt >= n] - n
    delta[cd, cd] = True
    delta[iu[cp], ju[cp]] = True
    delta[ju[cp], iu[cp]] = True

    Y = inst.X_star.copy()
    Y[delta] = 1.0 - Y[delta]
    return ObservationPlan(m1=m1, m2=m2, omega=omega, delta=delta, Y=np.where(omega, Y, 0.0))


def coherence(inst: PlantedInstance) -> CoherenceDiagnostics:
    """Incoherence proxies of X* from its rank-k SVD."""
    if not inst.X_star.any():
        raise InputError("zero-matrix", "X* is identically zero")
    U, _, Vt = np.linalg.svd(inst.X_star)
    k = inst.k
    U, V = U[:, :k], Vt[:k].T
    row_u = np.linalg.norm(U, axis=1)
    row_v = np.linalg.norm(V, axis=1)
    mu0 = float(np.sqrt(inst.n / k) * max(row_u.max(), row_v.max()))
    uv_max = float(np.abs(U @ V.T).max())
    mu1 = uv_max * inst.n / np.sqrt(k)
    return CoherenceDiagnostics(mu0=mu0, uv_max=uv_max, mu1=mu1)


@dataclass
class TrialResult:
    recovered: bool
    max_abs_err: float
    iterations: int = 0
    converged: bool = False
    failure: str | None = None


def recovery_trial(
    inst: PlantedInstance,
    m1: int,
    m2: int,
    lam: float | None = None,
    seed: int = 0,
    solver: SolverConfig | None = None,
    recovery_tol: float = 1e-3,
) -> TrialResult:
    """Observe, corrupt, complete; recovered iff max |X - X*| < recovery_tol."""
    plan = observe_and_corrupt(inst, m1, m2, seed=seed)
    lam = default_lambda(inst.n) if lam is None else lam
    try:
        result = complete(CompletionProblem(plan.Y, plan.omega, lam), solver)
    except NumericalError as err:
        return TrialResult(recovered=False, max_abs_err=np.inf, failure=err.code)
    err = float(np.abs(result.X - inst.X_star).max())
    return TrialResult(
        recovered=err < recovery_tol,
        max_abs_err=err,
        iterations=result.iterations,
        converged=result.converged,
    )


@dataclass
class SweepCell:
    n: int
    k: int
    m1: int
    m2: int
    trials: int
    recovered_count: int

    @property
    def prob(self) -> float:
        return self.recovered_count / self.trials


def phase_sweep(
    n: int,
    k: int,
    m1_fracs,
    m2_fracs,
    trials: int,
    seed: int = 0,
    lam: float | None = None,
    solver: SolverConfig | None = None,
) -> list[SweepCell]:
    """Empirical recovery probability over a (m1 fraction, m2 fraction) grid.

    m1 = round(frac * n^2), m2 = round(frac * m1). Per-trial seeds derive
    from (seed, cell, trial).
    """
    m1_fracs = list(m1_fracs)
    m2_fracs = list(m2_fracs)
    if not m1_fracs or not m2_fracs:
        raise InputError("empty-grid", "phase sweep needs a nonempty grid")
    inst = generate_planted(n, k, equal_sizes(n, k), seed=seed)

    cells = []
    for ci, f1 in enumerate(m1_fracs):
        for cj, f2 in enumerate(m2_fracs):
            m1 = int(round(f1 * n * n))
            m2 = int(round(f2 * m1))
            recovered = 0
            for t in range(trials):
                trial_seed = int(derive_rng(seed, "sweep", ci, cj, t).integers(2**63))
                recovered += recovery_trial(
                    inst, m1, m2, lam=lam, seed=trial_seed, solver=solver
                ).recovered
            cells.append(
                SweepCell(n=n, k=k, m1=m1, m2=m2, trials=trials, recovered_count=recovered)
            )
    return cells


def minimal_m1_for_recovery(
    n: int,
    k: int,
    target_prob: float = 0.95,
    trials: int = 20,
    seed: int = 0,
    lam: float | None = None,
    solver: SolverConfig | None = None,
    resolution: int | None = None,
) -> int:
    """Bisect for the smallest m1 with empirical recovery >= target_prob at m2=0.

    Each probe stops as soon as its outcome is decided: once the hits reach
    the target, or once even winning every remaining trial could not. Trial
    seeds derive from (seed, m1, t), so stopping early changes no decision.
    """
    inst = generate_planted(n, k, equal_sizes(n, k), seed=seed)

    def reaches_target(m1: int) -> bool:
        hits = 0
        for t in range(trials):
            if hits / trials >= target_prob:
                return True
            if (hits + trials - t) / trials < target_prob:
                return False
            trial_seed = int(derive_rng(seed, "min-m1", m1, t).integers(2**63))
            hits += recovery_trial(inst, m1, 0, lam=lam, seed=trial_seed, solver=solver).recovered
        return hits / trials >= target_prob

    lo, hi = n, n * n  # below n entries even the support is undeterminable
    if not reaches_target(hi):
        raise NumericalError("no-recovery", f"full observation fails at n={n}")
    resolution = resolution or max(1, n * n // 200)
    while hi - lo > resolution:
        mid = (lo + hi) // 2
        if reaches_target(mid):
            hi = mid
        else:
            lo = mid
    return hi
