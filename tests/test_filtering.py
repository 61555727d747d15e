import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskclust.errors import InputError
from taskclust.filtering import FilterParams, column_stats, filter_scores
from taskclust.synthdata import synthetic_transfer_matrix
from taskclust.transfer import TransferMatrix

UNOBSERVED = -1  # sentinel used by the reference implementation below


def reference_filter(scores, observed, p1, p2, mode, include_diag):
    """Line-by-line threshold rule, written independently of the module.

    Returns an int matrix over {1, 0, UNOBSERVED} using plain Python loops
    and statistics.
    """
    n = len(scores)

    def stats(j):
        col = [
            scores[i][j]
            for i in range(n)
            if observed[i][j] and (include_diag or i != j)
        ]
        assert len(col) >= 2
        mu = sum(col) / len(col)
        sigma = math.sqrt(sum((v - mu) ** 2 for v in col) / len(col))
        return mu, sigma

    out = [[UNOBSERVED] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    for i in range(n):
        for j in range(i + 1, n):
            if not observed[i][j]:
                continue
            mu_j, sig_j = stats(j)
            mu_i, sig_i = stats(i)
            if mode == "standard":
                if scores[i][j] > mu_j + p1 * sig_j and scores[j][i] > mu_i + p1 * sig_i:
                    v = 1
                elif scores[i][j] < mu_j - p2 * sig_j and scores[j][i] < mu_i - p2 * sig_i:
                    v = 0
                else:
                    v = UNOBSERVED
            else:
                v = 1 if (scores[i][j] >= mu_j or scores[j][i] >= mu_i) else 0
            out[i][j] = out[j][i] = v
    return out


def as_reference(ps):
    return np.where(ps.observed, ps.values.astype(int), UNOBSERVED)


def random_transfer(n, seed, density=1.0):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(size=(n, n))
    np.fill_diagonal(scores, 1.0)
    observed = np.ones((n, n), dtype=bool)
    if density < 1.0:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.uniform() > density:
                    observed[i, j] = observed[j, i] = False
    scores[~observed] = 0.0
    return TransferMatrix(scores=scores, observed=observed)


def test_column_stats_with_diagonal():
    scores = np.array([
        [1.0, 0.5, 0.5, 0.5],
        [0.5, 1.0, 0.5, 0.5],
        [0.5, 0.5, 1.0, 0.5],
        [0.5, 0.5, 0.5, 1.0],
    ])
    tm = TransferMatrix(scores=scores, observed=np.ones((4, 4), dtype=bool))
    mu, sigma = column_stats(tm, 0, FilterParams())
    assert mu == pytest.approx(0.625)
    assert sigma == pytest.approx(0.21650635, abs=1e-8)


def test_column_stats_constant_without_diagonal():
    scores = np.full((4, 4), 0.7)
    np.fill_diagonal(scores, 1.0)
    tm = TransferMatrix(scores=scores, observed=np.ones((4, 4), dtype=bool))
    mu, sigma = column_stats(tm, 2, FilterParams(include_diagonal_in_stats=False))
    assert mu == pytest.approx(0.7)
    assert sigma == 0.0


def test_column_stats_degenerate():
    tm = random_transfer(4, seed=0)
    observed = np.eye(4, dtype=bool)
    observed[0, 1] = observed[1, 0] = True
    scores = np.where(observed, tm.scores, 0.0)
    np.fill_diagonal(scores, 1.0)
    lonely = TransferMatrix(scores=scores, observed=observed)
    with pytest.raises(InputError) as err:
        column_stats(lonely, 3, FilterParams(include_diagonal_in_stats=False))
    assert err.value.code == "degenerate-column"


def test_constant_columns_give_unobserved_ties():
    # every off-diagonal score identical: strict inequalities can never hold
    scores = np.full((5, 5), 0.6)
    np.fill_diagonal(scores, 1.0)
    tm = TransferMatrix(scores=scores, observed=np.ones((5, 5), dtype=bool))
    ps = filter_scores(tm, FilterParams(include_diagonal_in_stats=False))
    off = ~np.eye(5, dtype=bool)
    assert not ps.observed[off].any()


def test_block_matrix_fully_resolved():
    n = 6
    member = np.array([0, 0, 0, 1, 1, 1])
    scores = np.where(member[:, None] == member[None, :], 0.9, 0.1)
    np.fill_diagonal(scores, 1.0)
    tm = TransferMatrix(scores=scores, observed=np.ones((n, n), dtype=bool))
    ps = filter_scores(tm, FilterParams(include_diagonal_in_stats=False))
    assert ps.observed.all()
    expect = (member[:, None] == member[None, :]).astype(int)
    assert np.array_equal(ps.values, expect)


def test_unsampled_pairs_stay_unobserved():
    tm = random_transfer(8, seed=1, density=0.5)
    hidden = ~tm.observed
    for mode in ("standard", "xl"):
        ps = filter_scores(tm, FilterParams(mode=mode))
        assert not ps.observed[hidden].any()


def test_xl_observes_every_sampled_pair():
    tm = random_transfer(9, seed=2, density=0.6)
    ps = filter_scores(tm, FilterParams(mode="xl"))
    off = ~np.eye(9, dtype=bool)
    sampled = tm.observed & off
    assert np.array_equal(ps.observed & off, sampled)
    assert int((ps.observed & off).sum()) == int(sampled.sum())


@pytest.mark.parametrize("mode", ["standard", "xl"])
def test_oracle_equivalence_random_matrices(mode):
    for seed in range(60):
        tm = random_transfer(10, seed=seed)
        ps = filter_scores(tm, FilterParams(mode=mode))
        ref = reference_filter(
            tm.scores.tolist(), tm.observed.tolist(), 0.5, 0.5, mode, True
        )
        assert np.array_equal(as_reference(ps), np.array(ref)), f"seed {seed}"


def test_oracle_equivalence_partial_and_excluded_diagonal():
    for seed in range(30):
        tm = random_transfer(10, seed=100 + seed, density=0.7)
        params = FilterParams(p1=0.3, p2=0.8, include_diagonal_in_stats=False)
        ps = filter_scores(tm, params)
        ref = reference_filter(
            tm.scores.tolist(), tm.observed.tolist(), 0.3, 0.8, "standard", False
        )
        assert np.array_equal(as_reference(ps), np.array(ref)), f"seed {seed}"


@pytest.mark.parametrize("mode", ["standard", "xl"])
@pytest.mark.parametrize("include_diag", [True, False])
def test_oracle_equivalence_on_anchored_samples(mode, include_diag):
    """Realistic masks: planted scores at n = 60 with about 4 n ln n pairs sampled."""
    for seed in range(3):
        tm, _ = synthetic_transfer_matrix(60, 3, 491, seed=seed, sampling="anchored")
        ps = filter_scores(tm, FilterParams(mode=mode, include_diagonal_in_stats=include_diag))
        ref = reference_filter(
            tm.scores.tolist(), tm.observed.tolist(), 0.5, 0.5, mode, include_diag
        )
        assert np.array_equal(as_reference(ps), np.array(ref)), f"seed {seed}"


# Column 0 holds `col0` in rows 1-4, so S_10 = col0[0]; column 1 holds `col1`
# in rows 0, 2, 3, 4, so S_01 = col1[0]. Every value is exact in binary, so mu
# and sigma are exact and S_10 sits exactly on a threshold line of column 0.
MEAN_TIE = [0.5, 0.25, 0.75, 0.5]     # mu = 0.5
SIGMA_HI = [0.75, 0.25, 0.25, 0.75]   # mu + sigma = 0.75
SIGMA_LO = [0.25, 0.25, 0.75, 0.75]   # mu - sigma = 0.25
PARTNER_HI = [1.0, 0.25, 0.25, 0.25]  # S_01 clears mu_1 + sigma_1
PARTNER_LO = [0.0, 0.75, 0.75, 0.75]  # S_01 sits below mu_1 - sigma_1


@pytest.mark.parametrize("mode, p1, p2, col0, col1, line, expected", [
    ("xl", 0.5, 0.5, MEAN_TIE, PARTNER_LO, 0.0, 1),                  # >= mu_0 holds
    ("standard", 0.0, 0.5, MEAN_TIE, PARTNER_HI, 0.0, UNOBSERVED),   # > mu_0 fails
    ("standard", 0.5, 0.0, MEAN_TIE, PARTNER_LO, 0.0, UNOBSERVED),   # < mu_0 fails
    ("standard", 1.0, 0.5, SIGMA_HI, PARTNER_HI, 1.0, UNOBSERVED),   # > mu_0 + sigma_0 fails
    ("standard", 0.5, 1.0, SIGMA_LO, PARTNER_LO, -1.0, UNOBSERVED),  # < mu_0 - sigma_0 fails
], ids=["xl-mean", "hi-mean", "lo-mean", "hi-sigma", "lo-sigma"])
def test_score_on_a_threshold_line(mode, p1, p2, col0, col1, line, expected):
    n = 5
    scores = np.where(np.add.outer(range(n), range(n)) % 2, 0.25, 0.75)
    scores[1:, 0] = col0
    scores[[0, 2, 3, 4], 1] = col1
    np.fill_diagonal(scores, 1.0)
    tm = TransferMatrix(scores=scores, observed=np.ones((n, n), dtype=bool))
    params = FilterParams(p1=p1, p2=p2, mode=mode, include_diagonal_in_stats=False)
    mu, sigma = column_stats(tm, 0, params)
    assert scores[1, 0] == mu + line * sigma
    got = as_reference(filter_scores(tm, params))
    assert got[0, 1] == got[1, 0] == expected
    ref = reference_filter(scores.tolist(), tm.observed.tolist(), p1, p2, mode, False)
    assert np.array_equal(got, np.array(ref))


def test_output_exactly_symmetric():
    tm = random_transfer(12, seed=5, density=0.8)
    ps = filter_scores(tm, FilterParams())
    assert np.array_equal(ps.values, ps.values.T)
    assert np.array_equal(ps.observed, ps.observed.T)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    p1=st.floats(0.0, 2.0),
    bump=st.floats(0.01, 2.0),
)
def test_raising_p1_never_creates_ones(seed, p1, bump):
    tm = random_transfer(7, seed=seed)
    lo = filter_scores(tm, FilterParams(p1=p1))
    hi = filter_scores(tm, FilterParams(p1=p1 + bump))
    ones_lo = lo.observed & (lo.values == 1)
    ones_hi = hi.observed & (hi.values == 1)
    assert not (ones_hi & ~ones_lo).any()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    p2=st.floats(0.0, 2.0),
    bump=st.floats(0.01, 2.0),
)
def test_raising_p2_never_creates_zeros(seed, p2, bump):
    tm = random_transfer(7, seed=seed)
    lo = filter_scores(tm, FilterParams(p2=p2))
    hi = filter_scores(tm, FilterParams(p2=p2 + bump))
    zeros_lo = lo.observed & (lo.values == 0)
    zeros_hi = hi.observed & (hi.values == 0)
    assert not (zeros_hi & ~zeros_lo).any()


def test_bad_mode_rejected():
    with pytest.raises(InputError):
        FilterParams(mode="huge")
    with pytest.raises(InputError):
        FilterParams(p1=-0.1)


@pytest.mark.parametrize("field", ["p1", "p2"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_p_is_rejected(field, value):
    """A NaN p passes `p < 0`, and an infinite p times a zero column sigma
    is a NaN threshold: neither may reach the filter."""
    with pytest.raises(InputError) as err:
        FilterParams(**{field: value})
    assert err.value.code == "bad-params"
