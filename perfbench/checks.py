"""Correctness checks computed apart from the program under test.

Nothing here imports taskclust: every reference value (the planted
similarity matrix, the filter decisions, cluster agreement, report
arithmetic, sweep grid sizes) is rebuilt from the benchmark's own inputs.
Each check raises CheckError with a one-line reason on the first mismatch.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


class CheckError(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# artifact readers (the on-disk formats are part of the CLI's contract)


def read_scores(path) -> tuple[np.ndarray, np.ndarray]:
    """Transfer CSV -> (scores, observed); the diagonal is observed with score 1."""
    lines = Path(path).read_text().splitlines()
    n = int(lines[0][len("#n="):])
    scores, observed = np.eye(n), np.eye(n, dtype=bool)
    for line in lines[1:]:
        i, j, v = line.split(",")
        scores[int(i), int(j)] = float(v)
        observed[int(i), int(j)] = True
    return scores, observed


def read_partial(path) -> tuple[np.ndarray, np.ndarray]:
    """Partial similarity CSV -> symmetric (values, observed) with a unit diagonal."""
    lines = Path(path).read_text().splitlines()
    n = int(lines[0][len("#n="):])
    values, observed = np.eye(n, dtype=int), np.eye(n, dtype=bool)
    for line in lines[1:]:
        i, j, v = (int(t) for t in line.split(","))
        values[i, j] = values[j, i] = v
        observed[i, j] = observed[j, i] = True
    return values, observed


def read_dense(path) -> np.ndarray:
    return np.array(
        [[float(v) for v in line.split(",")] for line in Path(path).read_text().splitlines()]
    )


def read_json(path):
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# reference computations


def planted_x(membership) -> np.ndarray:
    """X*_ij = 1 iff tasks i and j share a planted cluster."""
    m = np.asarray(membership)
    return (m[:, None] == m[None, :]).astype(float)


def threshold_rule(scores, observed, p1=0.5, p2=0.5) -> tuple[np.ndarray, np.ndarray]:
    """The dynamic-threshold filter, written from its definition.

    Column j's statistics are the mean and population standard deviation of
    its observed scores, diagonal included. A sampled pair (i, j) is similar
    when both S_ij > mu_j + p1*sd_j and S_ji > mu_i + p1*sd_i, dissimilar when
    both sit below mu - p2*sd, and undecided otherwise.
    """
    n = scores.shape[0]
    mu, sd = np.empty(n), np.empty(n)
    for j in range(n):
        col = scores[observed[:, j], j]
        mu[j], sd[j] = col.mean(), col.std()
        if (col == col[0]).all():
            mu[j], sd[j] = col[0], 0.0
    hi = (scores > mu[None, :] + p1 * sd[None, :]) & (scores.T > mu[:, None] + p1 * sd[:, None])
    lo = (scores < mu[None, :] - p2 * sd[None, :]) & (scores.T < mu[:, None] - p2 * sd[:, None])
    sampled = observed & observed.T
    decided = sampled & (hi | lo)
    np.fill_diagonal(decided, True)
    values = np.where(decided & hi, 1, 0)
    np.fill_diagonal(values, 1)
    return values, decided


def same_partition(a, b) -> bool:
    """Equal up to relabeling: the label pairs form a bijection."""
    pairs = set(zip(np.asarray(a).tolist(), np.asarray(b).tolist()))
    return len(pairs) == len({p for p, _ in pairs}) == len({q for _, q in pairs})


def rand_index_adjusted(a, b) -> float:
    """Adjusted Rand index from the contingency table (Hubert & Arabie 1985)."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1)

    def pairs(x):
        return float((x * (x - 1) / 2).sum())

    total = pairs(np.array([len(ai)]))
    index, rows, cols = pairs(table), pairs(table.sum(1)), pairs(table.sum(0))
    expected = rows * cols / total
    top = (rows + cols) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


# ---------------------------------------------------------------------------
# per-artifact checks


def check_filter(scores_csv, partial_csv) -> None:
    scores, observed = read_scores(scores_csv)
    values, decided = read_partial(partial_csv)
    ref_values, ref_decided = threshold_rule(scores, observed)
    require((decided == ref_decided).all(),
            f"filter decided {int((decided != ref_decided).sum())} entries unlike the rule")
    require((values[decided] == ref_values[decided]).all(), "filter decision values differ from the rule")


def check_completion(membership, partial_csv, x_csv, e_csv, tol=1e-3) -> None:
    """X recovers X*; E is nonzero exactly on the decided entries that disagree with X*."""
    X_star = planted_x(membership)
    X, E = read_dense(x_csv), read_dense(e_csv)
    values, decided = read_partial(partial_csv)
    require(X.shape == X_star.shape == E.shape, "X, E and X* differ in shape")
    err = float(np.abs(X - X_star).max())
    require(err < tol, f"max |X - X*| = {err:.3e} >= {tol}")
    wrong = decided & (values != X_star)
    support = np.abs(E) > tol
    require((support == wrong).all(),
            f"E support has {int(support.sum())} entries, {int(wrong.sum())} decided entries disagree with X*")


def check_partition(membership, partition_json, exact: bool, min_ari: float = 0.9) -> None:
    doc = read_json(partition_json)
    got = np.asarray(doc["assignment"])
    require(got.shape == np.shape(membership), "partition size differs from the task count")
    ari = rand_index_adjusted(membership, got)
    if exact:
        require(same_partition(membership, got), f"partition differs from the plant (ARI {ari:.4f})")
    else:
        require(ari >= min_ari, f"ARI {ari:.4f} < {min_ari}")


def check_report(report_json, task_ids, min_macro: float = 0.9, mixture: bool = False) -> None:
    """mtl/fsl report: one row per task, accuracies in [0, 1], macro = mean of rows."""
    doc = read_json(report_json)
    rows = doc["tasks"]
    require(sorted(r["task_id"] for r in rows) == sorted(task_ids),
            f"report has {len(rows)} rows for {len(task_ids)} tasks")
    acc = np.array([r["accuracy"] for r in rows], dtype=float)
    require(((acc >= 0) & (acc <= 1)).all(), "an accuracy lies outside [0, 1]")
    macro = float(doc["macro_accuracy"])
    require(abs(macro - acc.mean()) <= 1e-12, f"macro accuracy {macro} is not the mean {acc.mean()}")
    require(macro >= min_macro, f"macro accuracy {macro:.4f} < {min_macro}")
    if mixture:
        for r in rows:
            alpha = np.asarray(r["alpha"], dtype=float)
            if alpha.size:  # empty when the adaptive path fell back to support-only training
                require((alpha >= 0).all() and abs(alpha.sum() - 1) <= 1e-9,
                        f"{r['task_id']}: mixture weights {alpha.tolist()} are not a distribution")


def check_sweep(sweep_csv, n, k, m1_fracs, m2_fracs, trials) -> None:
    lines = Path(sweep_csv).read_text().splitlines()
    require(lines[0] == "n,k,m1,m2,trials,recovered_count,prob", "sweep header changed")
    cells = [line.split(",") for line in lines[1:]]
    require(len(cells) == len(m1_fracs) * len(m2_fracs), f"sweep has {len(cells)} cells")
    grid = [(f1, f2) for f1 in m1_fracs for f2 in m2_fracs]
    for (f1, f2), cell in zip(grid, cells):
        cn, ck, m1, m2, ct, count = (int(v) for v in cell[:6])
        want_m1 = round(f1 * n * n)
        require((cn, ck, ct) == (n, k, trials), f"cell {cell} has the wrong n, k or trials")
        require(m1 == want_m1 and m2 == round(f2 * want_m1),
                f"cell ({f1}, {f2}) has m1={m1}, m2={m2}")
        require(0 <= count <= trials, f"cell ({f1}, {f2}) count {count} outside [0, {trials}]")
        require(abs(float(cell[6]) - count / trials) <= 1e-12, f"cell ({f1}, {f2}) prob != count/trials")
        if f1 == 1.0 and f2 == 0.0:
            require(count == trials, f"fully observed clean cell recovered {count}/{trials}")
