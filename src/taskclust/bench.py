"""Planted-cluster experiments: the recovery guarantee and few-shot transfer.

Ground truth is the block similarity matrix X* = sum_i a_i a_i^T built from
cluster membership vectors, so rank(X*) equals the number of clusters. We
observe m1 entries uniformly at random, corrupt m2 of them by bit-flips,
run the completion solver, and check entrywise recovery of X*.

phase_sweep runs its trials on every CPU the process may use, in forked
workers with one BLAS thread each. It runs them one after another in this
process on one CPU, where there is no fork, or where numpy has no bundled
OpenBLAS whose thread count can be set. Each trial is fixed by its budget
and seed, so the cells are the same either way. (On a 2-CPU machine the
solves gave the same bits on one and two BLAS threads up to n = 120. At
n = 150 X differed in its last bits, which changes a trial's outcome only
if its error lies within that rounding of RECOVERY_TOL.)

fewshot_trial runs the whole pipeline on a planted task family instead and
compares few-shot predictors built with and without its clusters.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .completion import CompletionProblem, complete, default_lambda
from .errors import InputError, NumericalError
from .filtering import FilterParams, filter_scores
from .learning import fsl_combine, train_support_only
from .seeding import derive_rng
from .spectral import adjusted_rand_index, cluster_scores
from .synthdata import (FamilyConfig, equal_sizes, fewshot_from_dataset, make_target_task,
                        make_task_family)
from .transfer import TrainConfig, build_transfer_matrix, train_cluster_models

# recovery_trial's test: recovered iff every entry of X is this close to X*.
RECOVERY_TOL = 1e-3


@dataclass
class PlantedInstance:
    n: int
    membership: np.ndarray  # cluster id per task
    X_star: np.ndarray      # {0,1}, X*_ij = 1 iff i and j share a cluster


@dataclass
class ObservationPlan:
    omega: np.ndarray  # bool mask of observed positions, m1 of them
    delta: np.ndarray  # bool mask of corrupted positions, subset of omega
    Y: np.ndarray      # X* with delta positions bit-flipped


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
    return PlantedInstance(n=n, membership=membership, X_star=X_star)


def _weighted_unit_order(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # Efraimidis-Spirakis: sorting by Exp(1)/w reproduces sequential sampling
    # where each draw picks a position uniformly among remaining ones.
    keys = rng.exponential(size=weights.size) / weights
    return np.argsort(keys, kind="stable")


def _take_units(order: np.ndarray, weights: np.ndarray, budget: int) -> np.ndarray:
    """Prefix of ``order`` whose weights (1 or 2) sum to exactly ``budget``.

    A prefix one short takes the next weight-1 unit; where none is left, it
    swaps its own last weight-1 unit for the next unit (+2 - 1 = +1). So an
    odd budget needs a weight-1 unit somewhere in ``order``, which
    observe_and_corrupt guarantees for both of its draws.
    """
    cw = np.cumsum(weights[order])
    cut = int(np.searchsorted(cw, budget, side="right"))
    taken = order[:cut]
    short = budget - (cw[cut - 1] if cut > 0 else 0)
    if short == 0:
        return taken
    rest = order[cut:]
    singles = rest[weights[rest] == 1]
    if singles.size:
        return np.concatenate([taken, singles[:1]])
    drop = np.flatnonzero(weights[taken] == 1)[-1]
    return np.concatenate([np.delete(taken, drop), rest[:1]])


def _check_budget(n: int, m1: int, m2: int) -> None:
    if not (0 <= m2 <= m1 <= n * n):
        raise InputError("bad-budget", f"need 0 <= m2 <= m1 <= n^2, got m1={m1}, m2={m2}")


def observe_and_corrupt(
    inst: PlantedInstance,
    m1: int,
    m2: int,
    seed: int = 0,
) -> ObservationPlan:
    """Sample m1 observed positions, flip m2 of them.

    Sampling mirrors how the pipeline produces Y, so Omega and Y are
    symmetric: an off-diagonal draw yields both (i,j) and (j,i), counting 2
    toward m1, and flips hit both mirrored positions. Every 0 <= m2 <= m1 <=
    n^2 is drawn exactly: an odd m2 gets a diagonal cell to flip.
    """
    n = inst.n
    _check_budget(n, m1, m2)
    rng = derive_rng(seed, "observe", n, m1, m2)
    omega = np.zeros((n, n), dtype=bool)
    delta = np.zeros((n, n), dtype=bool)

    iu, ju = np.triu_indices(n, k=1)
    # units: n diagonal cells (weight 1) then the n(n-1)/2 pairs (weight 2)
    weights = np.concatenate([np.ones(n, dtype=int), np.full(iu.size, 2, dtype=int)])
    order = _weighted_unit_order(weights.astype(float), rng)
    chosen = _take_units(order, weights, m1)
    if m2 % 2 and not (chosen < n).any():
        # only mirrored pairs were drawn, so no odd count of them can be
        # flipped: trade the last pair for the first two diagonal cells
        chosen = np.concatenate([chosen[:-1], order[order < n][:2]])
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
    return ObservationPlan(omega=omega, delta=delta, Y=np.where(omega, Y, 0.0))


@dataclass
class TrialResult:
    recovered: bool
    max_abs_err: float


def recovery_trial(
    inst: PlantedInstance,
    m1: int,
    m2: int,
    lam: float | None = None,
    seed: int = 0,
) -> TrialResult:
    """Observe, corrupt, complete; recovered iff max |X - X*| < RECOVERY_TOL."""
    plan = observe_and_corrupt(inst, m1, m2, seed=seed)
    lam = default_lambda(inst.n) if lam is None else lam
    try:
        result = complete(CompletionProblem(plan.Y, plan.omega, lam))
    except NumericalError:
        return TrialResult(recovered=False, max_abs_err=np.inf)
    err = float(np.abs(result.X - inst.X_star).max())
    return TrialResult(recovered=err < RECOVERY_TOL, max_abs_err=err)


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
) -> list[SweepCell]:
    """Empirical recovery probability over a (m1 fraction, m2 fraction) grid.

    m1 = round(frac * n^2), m2 = round(frac * m1). Per-trial seeds derive
    from (seed, cell, trial). Fewer than one trial or a non-finite fraction
    is bad-config, and a cell outside 0 <= m2 <= m1 <= n^2 is bad-budget,
    both reported before any solve.
    """
    m1_fracs = list(m1_fracs)
    m2_fracs = list(m2_fracs)
    if not m1_fracs or not m2_fracs:
        raise InputError("empty-grid", "phase sweep needs a nonempty grid")
    if trials < 1:
        raise InputError("bad-config", f"need at least one trial per cell, got {trials}")
    if not np.isfinite(m1_fracs + m2_fracs).all():
        raise InputError("bad-config", "grid fractions must be finite")
    inst = generate_planted(n, k, equal_sizes(n, k), seed=seed)
    budgets = {}
    for ci, f1 in enumerate(m1_fracs):
        for cj, f2 in enumerate(m2_fracs):
            m1 = int(round(f1 * n * n))
            budgets[ci, cj] = m1, int(round(f2 * m1))
            _check_budget(n, *budgets[ci, cj])

    # one job per trial, in cell order then trial order
    jobs = [(m1, m2, int(derive_rng(seed, "sweep", ci, cj, t).integers(2**63)))
            for (ci, cj), (m1, m2) in budgets.items() for t in range(trials)]
    recovered = _run_trials(inst, lam, jobs)
    return [SweepCell(n=n, k=k, m1=m1, m2=m2, trials=trials,
                      recovered_count=sum(recovered[i * trials:(i + 1) * trials]))
            for i, (m1, m2) in enumerate(budgets.values())]


def _run_trials(inst: PlantedInstance, lam: float | None, jobs: list) -> list[bool]:
    """recovery_trial(inst, m1, m2, lam, seed).recovered for each (m1, m2, seed)
    job, in job order.

    The pool has one worker per usable CPU, at most one per job, and each job
    carries inst and lam. A worker runs OpenBLAS on one thread: with numpy's
    default of one thread per core in each worker, the workers' BLAS threads
    contended, and a pool on 2 CPUs ran the benchmark's sweep 3-6x slower
    than one process. Jobs go out one at a time, because most of the work
    sits in a few cells. Results are read in job order, so the first failing
    job raises, as in a loop.
    """
    import multiprocessing

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(jobs))
    set_threads = _blas_thread_setter() if workers > 1 else None
    trial = partial(_trial, inst, lam)
    if set_threads is None or "fork" not in multiprocessing.get_all_start_methods():
        return [trial(job) for job in jobs]
    ctx = multiprocessing.get_context("fork")
    # On an error, leaving the with block terminates the workers and joins them.
    with ctx.Pool(workers, initializer=set_threads, initargs=(1,)) as pool:
        recovered = list(pool.imap(trial, jobs, chunksize=1))
        pool.close()
        pool.join()
    return recovered


def _trial(inst: PlantedInstance, lam: float | None, job) -> bool:
    m1, m2, seed = job
    return recovery_trial(inst, m1, m2, lam=lam, seed=seed).recovered


def _blas_thread_setter():
    """numpy's bundled OpenBLAS thread-count setter, or None where there is none."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))  # numpy loaded it already: the same handle
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            setter = lib.scipy_openblas_set_num_threads64_
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return setter
    return None


def minimal_m1_for_recovery(
    n: int,
    k: int,
    target_prob: float = 0.95,
    trials: int = 20,
    seed: int = 0,
    lam: float | None = None,
) -> int:
    """Bisect for the smallest m1 with empirical recovery >= target_prob at m2=0,
    to within max(1, n^2 // 200) entries.

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
            hits += recovery_trial(inst, m1, 0, lam=lam, seed=trial_seed).recovered
        return hits / trials >= target_prob

    lo, hi = n, n * n  # below n entries even the support is undeterminable
    if not reaches_target(hi):
        raise NumericalError("no-recovery", f"full observation fails at n={n}")
    while hi - lo > max(1, n * n // 200):
        mid = (lo + hi) // 2
        if reaches_target(mid):
            hi = mid
        else:
            lo = mid
    return hi


# fewshot_trial's families: two opposed clusters of noisy tasks. Targets get
# task_noise 0.15, so they lie close to their cluster's geometry.
FEWSHOT_FAMILY = FamilyConfig(dim=10, label_count=3, train_per_class=4, test_per_class=30,
                              separation=1.3, task_noise=0.7, sample_spread=1.2)


@dataclass
class FewShotResult:
    """The family's clustering ARI and three mean query accuracies."""

    ari: float
    clustered: float  # fsl_combine over one model per cluster
    flat: float       # fsl_combine over one model per task (no clustering)
    single: float     # train_support_only


def fewshot_trial(seed: int, n_tasks: int = 10, targets: int = 6, shots: int = 1,
                  epochs: int = 100) -> FewShotResult:
    """One seed of the few-shot comparison on an opposed two-cluster family.

    The family is clustered from direct-evaluation scores on every pair by
    filter_scores without the diagonal, then cluster_scores.
    Each target, alternating between the clusters, is then served from
    ``shots`` support examples per label in the three ways FewShotResult
    lists. Every model trains for ``epochs``.
    """
    tasks, membership = make_task_family(n_tasks, 2, FEWSHOT_FAMILY, seed=seed, opposed=True)
    every_pair = np.triu(np.ones((n_tasks, n_tasks), dtype=bool), 1)
    config = TrainConfig(epochs=epochs, seed=0)
    tm = build_transfer_matrix(tasks, every_pair, config)
    part = cluster_scores(filter_scores(tm, FilterParams(include_diagonal=False)), 2,
                          seed=seed)[0]
    cluster_models = train_cluster_models(
        [[tasks[i] for i in part.members(k)] for k in range(2)], "shared_classifier", config)
    flat_models = train_cluster_models([[t] for t in tasks], "shared_classifier", config)
    accs = np.zeros(3)
    for tag in range(targets):
        target = make_target_task(tag % 2, 2, replace(FEWSHOT_FAMILY, task_noise=0.15),
                                  seed=seed, tag=tag, opposed=True)
        fs = fewshot_from_dataset(target, shots=shots, seed=seed + tag)
        predictors = [fsl_combine(cluster_models, fs), fsl_combine(flat_models, fs),
                      train_support_only(fs, config)]
        accs += [p.accuracy(*fs.test) for p in predictors]
    accs /= targets
    return FewShotResult(adjusted_rand_index(part.assignment, membership), *accs.tolist())
