"""Turn raw transfer scores into a partially observed binary similarity matrix.

A pair of tasks is marked similar (1) when each direction's transfer score
clears a high threshold derived from the score distribution of the target
column, dissimilar (0) when both fall below a low threshold, and left
unobserved otherwise, so only reliable pairs reach completion. The rule is
stated once, as a boolean matrix over the sampled upper triangle, not pair
by pair.

The thresholds are relative to each column's own scores, so the rule
assumes a column holds more than one level. When every score comes from
one level, as in a one-cluster plant, the noise around it is still split
into decided 1s and 0s: scripts/pipeline_demo.py --clusters 1 (12 tasks,
all scores near 0.9) decides 5 pairs, 2 similar and 3 dissimilar, and the
completed X has rank 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .transfer import TransferMatrix


@dataclass
class FilterParams:
    p1: float = 0.5
    p2: float = 0.5
    include_diagonal: bool = True

    def __post_init__(self):
        if not (0 <= self.p1 < np.inf and 0 <= self.p2 < np.inf):  # NaN fails the test too
            raise InputError("bad-params", "p1 and p2 must be finite and nonnegative")


@dataclass
class PartialSimilarity:
    """Symmetric {0,1,unobserved} matrix; `values` is only meaningful on `observed`."""

    values: np.ndarray    # int8, n x n, 0/1 where observed, 0 elsewhere
    observed: np.ndarray  # bool, n x n

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int8)
        self.observed = np.asarray(self.observed, dtype=bool)
        n = self.values.shape[0]
        if self.values.shape != (n, n) or self.observed.shape != (n, n):
            raise InputError("bad-shape", "values and observed must be square and match")
        if not np.array_equal(self.observed, self.observed.T):
            raise InputError("asymmetric-input", "observation mask must be symmetric")
        v = np.where(self.observed, self.values, 0)
        if not np.array_equal(v, v.T):
            raise InputError("asymmetric-input", "observed values must be symmetric")
        if not np.isin(self.values[self.observed], (0, 1)).all():
            raise InputError("bad-value", "observed similarity values must be 0 or 1")
        d = np.arange(n)
        if not (self.observed[d, d].all() and (self.values[d, d] == 1).all()):
            raise InputError("bad-value", "diagonal must be observed and equal to 1")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def column_stats(S: TransferMatrix, j: int, params: FilterParams) -> tuple[float, float]:
    """Mean and population std of the observed entries in column j.

    The diagonal score S_jj = 1 is counted only when params.include_diagonal
    is set; with few observations it drags both thresholds upward, which is
    why the setting exists.
    """
    mask = S.observed[:, j].copy()
    if not params.include_diagonal:
        mask[j] = False
    col = S.scores[mask, j]
    if col.size < 2:
        raise InputError(
            "degenerate-column",
            f"column {j} has {col.size} usable entries, need at least 2",
        )
    if (col == col[0]).all():
        # exact zero variance, so the strict threshold comparisons see a tie
        # instead of summation noise
        return float(col[0]), 0.0
    return float(col.mean()), float(col.std())


def filter_scores(S: TransferMatrix, params: FilterParams | None = None) -> PartialSimilarity:
    """Apply the dynamic-threshold rule to every sampled pair of S.

    Each outcome is one boolean matrix, built from the column statistics
    mu_j, sigma_j of column_stats and kept on the sampled upper triangle. A
    pair is 1 (``hi``) only when S_ij > mu_j + p1*sigma_j and
    S_ji > mu_i + p1*sigma_i both hold strictly, 0 (``lo``) only when both
    scores sit strictly below their mu - p2*sigma lines, and unobserved
    otherwise. The diagonal is always 1.
    """
    params = params or FilterParams()
    mu, sd = np.array([column_stats(S, j, params) for j in range(S.n)]).T
    # entry [i, j] tests S_ij against column j's line; its transpose tests S_ji against column i's
    above = S.scores > mu + params.p1 * sd
    below = S.scores < mu - params.p2 * sd
    hi = above & above.T
    lo = below & below.T
    sampled = np.triu(S.observed, 1)
    hi, decided = hi & sampled, (hi | lo) & sampled
    eye = np.eye(S.n, dtype=bool)
    return PartialSimilarity(values=hi | hi.T | eye, observed=decided | decided.T | eye)
