"""Recover a full similarity matrix from partial, possibly corrupted entries.

Solves the convex program

    min ||X||_* + lambda * ||E||_1   s.t.   P_Omega(X + E) = P_Omega(Y)

by an inexact augmented-Lagrangian iteration with singular value
thresholding. X is the low-rank similarity matrix, E a sparse matrix of
wrong observed entries, Omega the set of observed positions.

The similarity matrix is symmetric, so Omega and P_Omega(Y) must be too:
CompletionProblem rejects anything else with ``asymmetric-input``. Each
step shrinks a warm-started partial eigendecomposition (Lin, Chen & Ma,
arXiv:1009.5055; Halko, Martinsson & Tropp, SIAM Rev. 2011): one
multiplication of the previous step's basis, then a Rayleigh-Ritz step on
it. A full eigendecomposition runs whenever that basis cannot be trusted,
and always on the step that confirms convergence.

The penalty schedule is fixed: rho starts at RHO_SCALE * lambda * sqrt(n) /
||P_Omega(Y)||_2 with RHO_SCALE = 1.25, Lin, Chen & Ma's initial penalty
scaled so that the first sparse threshold is theirs at any lambda, then
moves by RHO_STEP = 1.2 within [RHO_FLOOR, RHO_CAP] = [1e-7, 1e7].

Off Omega the sparse error E is exactly -X and the multiplier and the
primal residual are exactly 0, so complete() keeps those three as vectors
over Omega. X, the shrink input and the shrink itself stay dense: the
eigendecomposition needs the whole matrix, and at the benchmark's sizes
(Omega covers 12-18% of an n = 240-360 matrix) dense BLAS beats a product
gathered over Omega. Between steps the solve holds two dense n x n float64
arrays, which swap roles each step: the shrink input M is built over the
previous X, the shrink writes the new X into the other array, and M then
takes M - X for the dual residual. The eigendecomposition adds its own
copy, workspace and eigenvectors on top of those, and the shrink two
n x r arrays at kept rank r (see _threshold). Over Omega the shrink runs
beside four vectors only: P_Omega(Y), its flat indices, E and the
multiplier. M's values on Omega are dropped once written, Lambda / rho is
recomputed for the sparse step rather than kept across the shrink, and a
step's other vectors are dropped before the next shrink.

No step symmetrizes M. M is symmetric up to rounding by construction: off
Omega it is the previous shrink V diag(s) V^T, and on Omega it is built
from the symmetric P_Omega(Y) and that X. np.linalg.eigh reads only one
triangle, of M on a full step and of the Ritz matrix on a partial one, so
a symmetrized copy would only cost an n x n transposed pass each step. The
reported X and E are symmetrized once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InputError, NumericalError

RHO_SCALE = 1.25
RHO_STEP = 1.2
RHO_FLOOR = 1e-7
RHO_CAP = 1e7
# The warm basis carries this many eigenpairs past the kept rank, so that a
# rank increase shows as a buffer Ritz value above the threshold.
_BUFFER = 5
# A basis wider than this share of n costs about as much as a full eigh.
_WARM_WIDTH_FRACTION = 0.25
# clip_to_unit counts an entry as clipped only beyond this distance from
# [0, 1]. Nearer entries are solver error around an exact 0 or 1 (up to 2e-6
# on an exactly recovered n = 240 X); it equals bench.RECOVERY_TOL.
CLIP_TOL = 1e-3


@dataclass
class SolverConfig:
    """The stopping rule. The penalty schedule is no setting: RHO_SCALE = 1.25,
    RHO_STEP = 1.2, RHO_FLOOR = 1e-7 and RHO_CAP = 1e7 fix it (see complete())."""

    tol: float = 1e-7
    max_iter: int | None = None  # None: max(500, 2n)

    def __post_init__(self):
        if not 0 < self.tol < np.inf:  # NaN fails the test too
            raise InputError("bad-tol", "tol must be positive and finite")
        if self.max_iter is not None and self.max_iter < 1:
            raise InputError("bad-max-iter", "max_iter must be >= 1")


@dataclass
class CompletionProblem:
    """Observed values Y, observation mask Omega, l1 weight.

    Omega and P_Omega(Y) must be exactly symmetric; Y off Omega is never read.
    A real-valued Y keeps its dtype (fileio.read_partial_csv gives a 0/1
    int8 matrix), since complete() converts P_Omega(Y) to float64 itself;
    any other Y is converted to float64 here.
    """

    Y: np.ndarray
    omega: np.ndarray
    lam: float

    def __post_init__(self):
        self.Y = np.asarray(self.Y)
        if self.Y.dtype.kind not in "biuf":
            self.Y = self.Y.astype(float, copy=False)
        self.omega = np.asarray(self.omega, dtype=bool)
        if self.Y.ndim != 2 or self.Y.shape[0] != self.Y.shape[1]:
            raise InputError("bad-shape", f"Y must be square, got {self.Y.shape}")
        if self.omega.shape != self.Y.shape:
            raise InputError("bad-shape", "omega mask must match Y's shape")
        if self.Y.shape[0] < 2:
            raise InputError("bad-shape", "need at least 2 tasks")
        if not self.omega.any():
            raise InputError("empty-mask", "no observed entries")
        if not np.isfinite(self.Y[self.omega]).all():
            raise InputError("non-finite", "observed entries must be finite")
        Yp = np.where(self.omega, self.Y, 0)  # in Y's dtype: int8 stays 1 byte an entry
        if not (np.array_equal(self.omega, self.omega.T) and np.array_equal(Yp, Yp.T)):
            raise InputError("asymmetric-input", "omega and the observed values must be symmetric")
        if not 0 < self.lam < np.inf:  # NaN fails the test too
            raise InputError("bad-lambda", "lambda must be positive and finite")

    @property
    def n(self) -> int:
        return self.Y.shape[0]


@dataclass
class CompletionResult:
    X: np.ndarray
    E: np.ndarray
    iterations: int
    final_residual: float
    converged: bool
    lam: float
    rho_initial: float = field(repr=False, default=0.0)
    rho_final: float = field(repr=False, default=0.0)
    x_rank: int = field(repr=False, default=0)  # kept rank of the last shrink
    e_support: int = field(repr=False, default=0)  # nonzero entries of the reported E
    full_steps: int = field(repr=False, default=0)  # steps with a full decomposition

    def objective(self) -> float:
        """||X||_* + lambda * ||E||_1 at the reported point."""
        return nuclear_norm(self.X) + self.lam * np.abs(self.E).sum()


def nuclear_norm(M: np.ndarray) -> float:
    return float(np.linalg.svd(M, compute_uv=False).sum())


def svt(M: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding: prox of tau * nuclear norm at a symmetric M.

    A symmetric matrix's singular values are the |eigenvalues|, so each
    eigenvalue keeps its sign and eigenvector while its magnitude shrinks
    by tau. M must be exactly symmetric (``asymmetric-input`` otherwise).

    svt always decomposes M in full; complete() shrinks a warm partial
    eigendecomposition instead on most steps. M is only read, so it is not
    copied (a read-only M is fine). An eigenvalue that overflows float64
    raises NumericalError("diverged").
    """
    if tau <= 0:
        raise InputError("bad-tau", "tau must be positive")
    M = np.asarray(M, dtype=float)
    if not np.array_equal(M, M.T, equal_nan=True):  # a NaN is reported as non-finite
        raise InputError("asymmetric-input", "svt needs a symmetric matrix")
    if not np.isfinite(M).all():
        raise NumericalError("non-finite", "svt input contains NaN or inf")
    return _shrink_step(M, tau, None)[0]


def _shrink_step(M, tau, basis, out=None):
    """One prox step of complete(): (X, kept rank, next warm basis, full).

    M is a float64 array that is finite (the callers check) and symmetric
    up to rounding. It is only read, and it is not symmetrized: the
    decompositions read one triangle (see the module docstring). Without a
    basis, M is decomposed in full (the exact svt). With an orthonormal
    basis B, M is multiplied by B once, the product orthonormalized, and
    only the Ritz pairs of M in that subspace are shrunk. When every Ritz
    value clears tau, the kept rank may have outgrown the basis, so M is
    decomposed in full after all (full=True). A decomposition that fails or
    gives a non-finite eigenvalue (M near the float64 limit) raises
    NumericalError("diverged").

    X is written into out, an n x n float64 array that does not overlap M,
    or into a new array when out is None. The next basis holds the
    eigenvectors of the kept rank plus _BUFFER more, by |eigenvalue|; it is
    None (next step full) when that is wider than _WARM_WIDTH_FRACTION * n.
    """
    full = basis is None
    try:
        if not full:
            Q = np.linalg.qr(M @ basis)[0]
            w, Z = np.linalg.eigh(Q.T @ M @ Q)
            V = Q @ Z
            full = bool((np.abs(w) > tau).all())
        if full:
            w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as err:
        raise NumericalError("diverged", f"eigendecomposition failed: {err}") from err
    if not np.isfinite(w).all():
        raise NumericalError("diverged", "eigendecomposition gave a non-finite eigenvalue")
    X, rank = _threshold(V, w, tau, out)
    width = rank + _BUFFER
    if width > _WARM_WIDTH_FRACTION * len(M):
        return X, rank, None, full
    order = np.argsort(-np.abs(w), kind="stable")[:width]
    return X, rank, V[:, order], full


def _threshold(V, w, tau, out=None):
    """Shrink the eigenvalues w of V diag(w) V^T by tau in magnitude:
    (V diag(sign(w) (|w| - tau)_+) V^T, kept rank).

    Only the kept columns of V are scaled, so a step keeping r of n
    eigenpairs forms an n x r product, not an n x n one. It holds two n x r
    arrays: the kept columns Vk and one scaled copy of them. Vk^T is a view.
    The product is written into out when it is given.
    """
    n = V.shape[0]
    X = np.empty((n, n)) if out is None else out
    s = np.maximum(np.abs(w) - tau, 0.0)
    keep = s > 0
    rank = int(keep.sum())
    if not rank:
        X.fill(0.0)
        return X, 0
    Vk = V[:, keep]
    return np.matmul(Vk * (np.sign(w[keep]) * s[keep]), Vk.T, out=X), rank


def soft_threshold(M: np.ndarray, tau: float) -> np.ndarray:
    """Elementwise sign(m) * max(|m| - tau, 0)."""
    if tau < 0:
        raise InputError("bad-tau", "tau must be nonnegative")
    M = np.asarray(M, dtype=float)
    return np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)


def default_lambda(n: int) -> float:
    """The phase sweep's sparsity weight, 1/sqrt(n).

    bench.recovery_trial (and so ``sweep``) uses it when no lambda is
    given; the pipeline commands use observation_lambda instead.
    """
    return 1.0 / np.sqrt(n)


def observation_lambda(observed: np.ndarray) -> float:
    """The pipeline's sparsity weight, sqrt(n / |Omega|), for an n x n mask.

    It grows as observations thin out, weighting the sparse error term more
    heavily. ``complete`` and ``cluster`` use it when no lambda is given.
    """
    observed = np.asarray(observed, dtype=bool)
    count = observed.sum()
    if not count:
        raise InputError("empty-mask", "lambda needs at least one observed entry")
    return float(np.sqrt(observed.shape[0] / count))


def complete(problem: CompletionProblem, config: SolverConfig | None = None) -> CompletionResult:
    """Run the augmented-Lagrangian iteration until primal and dual residuals are small.

    Off-Omega positions of E absorb the residual exactly each step, so
    unobserved entries impose no constraint and the multiplier stays zero
    there. The penalty rho is rebalanced (Boyd et al., sec. 3.4.1): grow by
    RHO_STEP = 1.2 (up to RHO_CAP = 1e7) when the primal residual dominates,
    shrink by it (down to RHO_FLOOR = 1e-7) when the dual one does. A
    monotone rho schedule drives the primal residual to zero while the
    iterate is still far from optimal, so both residuals must be small
    before we stop. The reported X and E are symmetrized (the iterates are
    symmetric only up to rounding), and E is 0 off Omega.

    rho starts at RHO_SCALE * lambda * sqrt(n) / ||P_Omega(Y)||_2 with
    RHO_SCALE = 1.25, or at 1.0 when P_Omega(Y) is 0. At lambda = 1/sqrt(n),
    default_lambda, that is the initial penalty of Lin, Chen & Ma's inexact
    ALM (arXiv:1009.5055). The factor lambda * sqrt(n) keeps their first
    sparse threshold, lambda / rho = 0.8 ||P_Omega(Y)||_2 / sqrt(n), whatever
    lambda is. Without it, lambda = 1 starts that threshold sqrt(n) times
    higher and some solves take thousands of iterations. Nor may the initial
    rho be much larger: the threshold 1/rho on X would then keep almost every
    eigenvalue, and the first steps would all be full decompositions.
    config.max_iter defaults to max(500, 2n): solves take about 0.75-0.9 n
    iterations from n = 720 to n = 2000.

    E, the multiplier and the primal residual are vectors over Omega's
    flat indices, because off Omega they are known exactly: E = 0 - X,
    Lambda = 0 and R = 0. The primal residual's norm is taken over Omega
    alone. X and the shrink input M stay dense n x n in two buffers that
    swap roles each step. M is built over the previous X: off Omega it is
    that X plus 0.0 (the +0.0 turns a -0.0 into the 0.0 that 0 - (0 - X)
    gives), on Omega it is Y - E + Lambda / rho. The shrink writes the new X
    into the other buffer, and M then takes M - X with e - e_prev on Omega,
    which is E - E_prev up to the sign of zeros, so the dual residual sums
    the same squares in the same order as with E dense. No copy of the
    previous X is kept, and P_Omega(Y) is dropped once its norms and its
    values on Omega are taken.

    The input is symmetric, so each step shrinks an eigendecomposition. It
    starts from the previous step's basis (its kept eigenvectors plus a
    buffer) and shrinks only the Ritz pairs in it (see _shrink_step). A full
    eigendecomposition runs on the first step, whenever the basis would be
    wider than n/4, whenever every Ritz value clears the threshold, and on
    the step after a partial one passes the stopping test: the solver stops
    only when a full step passes, so a converged X is always an exact prox.
    """
    config = config or SolverConfig()
    omega = problem.omega
    lam = problem.lam

    n = problem.n
    Yp = np.zeros((n, n))  # P_Omega(Y) in float64, whatever Y's dtype
    np.copyto(Yp, problem.Y, where=omega)
    y_norm = np.linalg.norm(Yp)
    denom = max(1.0, y_norm)

    spectral = np.abs(np.linalg.eigvalsh(Yp)).max()  # ||P_Omega(Y)||_2
    rho = RHO_SCALE * lam * np.sqrt(n) / spectral if spectral > 0 else 1.0
    rho_initial = rho
    max_iter = max(500, 2 * n) if config.max_iter is None else config.max_iter

    # A fully observed Omega is indexed by a slice: the same entries, copied
    # without fancy indexing.
    idx = slice(None) if omega.all() else np.flatnonzero(omega)
    y = Yp.ravel()[idx]
    del Yp
    X = np.zeros((n, n))
    spare = np.empty((n, n))  # takes the next X
    e = np.zeros(y.size)  # E on Omega
    mult = np.zeros(y.size)  # the multiplier Lambda on Omega

    converged = False
    residual = np.inf
    basis = None
    rank = full_steps = 0
    it = 0
    for it in range(1, max_iter + 1):
        m = y - e + mult / rho
        if not np.isfinite(m).all():  # off Omega M is X_prev, checked last step
            raise NumericalError("non-finite", "svt input contains NaN or inf")
        M = np.add(X, 0.0, out=X)  # the shrink input, over the previous X
        M.ravel()[idx] = m
        del m  # over Omega the shrink holds only y, idx, e and mult
        X, rank, basis, full = _shrink_step(M, 1.0 / rho, basis, spare)
        full_steps += full
        yx = y - X.ravel()[idx]
        e_prev = e
        e = soft_threshold(yx + mult / rho, lam / rho)
        r = yx - e
        mult = mult + rho * r
        if not (np.isfinite(X).all() and np.isfinite(e).all()):
            raise NumericalError("diverged", f"non-finite iterate at iteration {it}")
        residual = np.linalg.norm(r) / denom
        dE = np.subtract(M, X, out=M)  # E - E_prev off Omega, up to the sign of zeros
        dE.ravel()[idx] = e - e_prev
        dual = rho * np.linalg.norm(dE) / denom
        del yx, e_prev, r  # not read by the next step
        spare = dE
        if residual < config.tol and dual < config.tol:
            if full:
                converged = True
                break
            basis = None  # confirm on a full step before stopping
        if residual > 10.0 * dual:
            rho = min(rho * RHO_STEP, RHO_CAP)
        elif dual > 10.0 * residual:
            rho = max(rho / RHO_STEP, RHO_FLOOR)

    X = np.add(X, X.T, out=spare)  # symmetrized once, into the spare buffer
    X /= 2.0
    E = np.zeros((n, n))
    E.ravel()[idx] = e
    E += E.T  # symmetrized once too, as X is
    E /= 2.0
    return CompletionResult(
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


def clip_to_unit(X: np.ndarray) -> tuple[np.ndarray, float]:
    """Clip to [0, 1] for clustering; also report the fraction of entries
    that lay more than CLIP_TOL outside [0, 1]. Beside X it holds the clipped
    copy, one n x n distance buffer and a bool mask."""
    clipped = np.clip(X, 0.0, 1.0)
    d = np.subtract(clipped, X)
    np.abs(d, out=d)
    return clipped, int(np.count_nonzero(d > CLIP_TOL)) / d.size


def complete_similarity(
    values: np.ndarray,
    observed: np.ndarray,
    lam: float | None = None,
    config: SolverConfig | None = None,
) -> tuple[np.ndarray, dict, CompletionResult]:
    """The pipeline's completion step: (X clipped to [0, 1], diagnostics, result).

    lam defaults to observation_lambda(observed). The clip lets
    spectral_cluster accept X: a recovered 0 can come out as -6e-10. The
    diagnostics are result's scalars (lam as "lambda") and clipped_fraction.
    result.X is unclipped, and result.converged is left to the caller.
    """
    lam = observation_lambda(observed) if lam is None else float(lam)
    result = complete(CompletionProblem(values, observed, lam), config)
    X, clipped = clip_to_unit(result.X)
    diagnostics = {f.name: getattr(result, f.name) for f in fields(result) if f.name not in ("X", "E")}
    diagnostics["lambda"] = diagnostics.pop("lam")
    diagnostics["clipped_fraction"] = clipped
    return X, diagnostics, result
