"""The benchmark's three workloads: their inputs, their CLI commands and the checks.

Each workload is a fixed list of ops, one CLI command each, run in order as a
round. Inputs come from the benchmark seed except where noted: an op that
fails on every run today gets inputs that do not depend on the seed, so it
fails the same way in every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

K = 3
FLIP_SHARE = 0.05
BASE_SEED = 1           # draws the n = 240 instance; the benchmark seed relabels its tasks
LARGE_SEED = 0          # the n = 360 construction is the same in every run
FAMILY_SEED = 0         # README quick start: synth --seed 0 for family and targets
PAIR_SEED = 1           # README quick start: estimate --seed 1
CLUSTER_SEED = 2        # README quick start: cluster --seed 2 (default-estimate scores)
KINDS = ("shared_classifier", "shared_encoder_multihead", "metric_encoder")
M1_FRACS = (0.2, 0.4, 0.6, 0.8, 1.0)   # the sweep command's default grid
M2_FRACS = (0.0, 0.05)


@dataclass
class Op:
    stage: str                      # the stage metric this op's time goes into
    argv: list
    check: Callable[[], None] | None = None
    # Fails on every run at the seed commit. Its time stays out of round_s, so
    # that a fix adds a stage sample and changes `failed`, not round_s.
    known_failing: bool = False


@dataclass
class Workload:
    name: str
    setup: Callable[[Path, int], None]
    ops: Callable[[Path, int], list]
    rates: dict = field(default_factory=dict)   # stage -> work units, reported as units/s


def _seed(seed: int, *tokens) -> int:
    """A CLI --seed value derived from the benchmark seed."""
    return int(np.random.default_rng([seed, *tokens]).integers(2**31))


# ---------------------------------------------------------------------------
# planted: solver-bound


def planted_scores(n: int, seed: int):
    """Planted transfer scores: K balanced clusters under a seeded permutation.

    About 4 n ln n pairs are sampled anchored (a random path inside each
    cluster, one cross-cluster pair per task, the rest uniform). Within-cluster
    scores are N(0.9, 0.05^2), cross-cluster N(0.1, 0.05^2), both directions
    drawn independently and clipped to [0, 1]; then 5% of the sampled pairs
    have both directions flipped to 1 - s, the gross errors E must absorb.
    """
    rng = np.random.default_rng([seed, n, K])
    base, extra = divmod(n, K)
    labels = np.repeat(np.arange(K), [base + (c < extra) for c in range(K)])
    membership = labels[rng.permutation(n)]
    chosen = np.zeros((n, n), dtype=bool)       # upper triangle of sampled pairs
    for c in range(K):
        path = rng.permutation(np.flatnonzero(membership == c))
        chosen[np.minimum(path[:-1], path[1:]), np.maximum(path[:-1], path[1:])] = True
    covered = np.zeros(n, dtype=bool)
    for i in rng.permutation(n):
        if covered[i]:
            continue
        others = np.flatnonzero(membership != membership[i])
        pool = others[~covered[others]]
        j = rng.choice(pool if pool.size else others)
        chosen[min(i, j), max(i, j)] = True
        covered[i] = covered[j] = True
    iu, ju = np.triu_indices(n, k=1)
    free = np.flatnonzero(~chosen[iu, ju])
    budget = int(round(4 * n * math.log(n)))
    pick = rng.choice(free, size=budget - int(chosen.sum()), replace=False)
    chosen[iu[pick], ju[pick]] = True
    pi, pj = np.nonzero(chosen)
    mean = np.where(membership[pi] == membership[pj], 0.9, 0.1)
    s_ij = np.clip(mean + 0.05 * rng.standard_normal(pi.size), 0.0, 1.0)
    s_ji = np.clip(mean + 0.05 * rng.standard_normal(pi.size), 0.0, 1.0)
    flipped = np.zeros(pi.size, dtype=bool)
    flipped[rng.choice(pi.size, size=int(round(FLIP_SHARE * pi.size)), replace=False)] = True
    s_ij = np.where(flipped, 1.0 - s_ij, s_ij)
    s_ji = np.where(flipped, 1.0 - s_ji, s_ji)
    return membership, (pi, pj, s_ij, s_ji)


def relabel(membership, pairs, seed: int):
    """The same instance with its tasks renumbered by a seeded permutation."""
    n = membership.size
    order = np.random.default_rng([seed, n]).permutation(n)   # new task k is old task order[k]
    new_index = np.argsort(order)
    pi, pj, s_ij, s_ji = pairs
    return membership[order], (new_index[pi], new_index[pj], s_ij, s_ji)


def write_scores(path: Path, n: int, pairs) -> None:
    pi, pj, s_ij, s_ji = pairs
    rows = sorted(list(zip(pi.tolist(), pj.tolist(), s_ij.tolist()))
                  + list(zip(pj.tolist(), pi.tolist(), s_ji.tolist())))
    path.write_text(f"#n={n}\n" + "".join(f"{i},{j},{v!r}\n" for i, j, v in rows))


def _planted_setup(work: Path, seed: int) -> None:
    # Solver work depends on the draw (300-450 iterations across draws at
    # n = 240), so one draw is relabeled per seed: every run solves the same
    # problem with its tasks in another order.
    instances = {"p240": relabel(*planted_scores(240, BASE_SEED), seed),
                 "p360": planted_scores(360, LARGE_SEED)}
    for tag, (membership, pairs) in instances.items():
        write_scores(work / f"{tag}-scores.csv", membership.size, pairs)
        np.save(work / f"{tag}-membership.npy", membership)


def _planted_ops(work: Path, seed: int) -> list:
    w = lambda name: str(work / name)  # noqa: E731
    membership = lambda: np.load(work / "p240-membership.npy")  # noqa: E731
    return [
        Op("filter_s", ["filter", "--scores", w("p240-scores.csv"), "--out", w("p240-partial.csv")],
           lambda: checks.check_filter(w("p240-scores.csv"), w("p240-partial.csv"))),
        Op("complete_s", ["complete", "--similarity", w("p240-partial.csv"),
                          "--out-x", w("p240-X.csv"), "--out-e", w("p240-E.csv"),
                          "--diagnostics", w("p240-complete.json")],
           lambda: checks.check_completion(membership(), w("p240-partial.csv"),
                                           w("p240-X.csv"), w("p240-E.csv"))),
        Op("cluster_s", ["cluster", "--scores", w("p240-scores.csv"), "--out", w("p240-part.json"),
                         "--clusters", str(K), "--seed", str(_seed(seed, 240)),
                         "--diagnostics", w("p240-cluster.json")],
           lambda: checks.check_partition(membership(), w("p240-part.json"), exact=True)),
        Op("cluster_large_s", ["cluster", "--scores", w("p360-scores.csv"), "--out", w("p360-part.json"),
                               "--clusters", str(K), "--diagnostics", w("p360-cluster.json")],
           lambda: checks.check_partition(np.load(work / "p360-membership.npy"),
                                          w("p360-part.json"), exact=False),
           known_failing=True),
    ]


# ---------------------------------------------------------------------------
# tasks48: training-bound


def _no_setup(work: Path, seed: int) -> None:
    pass


def _tasks48_ops(work: Path, seed: int) -> list:
    w = lambda name: str(work / name)  # noqa: E731
    membership = np.repeat(np.arange(K), 16)    # synth plants balanced contiguous blocks
    family = [f"task{t:03d}" for t in range(48)]
    targets = [f"task{t:03d}" for t in range(6)]

    def check_family():
        doc = checks.read_json(w("family/membership.json"))
        checks.require(doc["membership"] == membership.tolist(), "family membership is not 3 blocks of 16")
        checks.require(len(list((work / "family").glob("task-*.json"))) == 48, "family does not hold 48 tasks")

    def check_scores(name):
        def check():
            scores, observed = checks.read_scores(w(name))
            off = observed & ~np.eye(48, dtype=bool)
            checks.require(off.sum() == 600 and (off == off.T).all(), "scores do not cover 300 pairs both ways")
            checks.require(((scores[off] >= 0) & (scores[off] <= 1)).all(), "a transfer score lies outside [0, 1]")
        return check

    ops = [
        Op("synth_s", ["synth", "--out", w("family"), "--n-tasks", "48", "--clusters", str(K),
                       "--seed", str(FAMILY_SEED)], check_family),
        Op("synth_s", ["synth", "--out", w("targets"), "--n-tasks", "6", "--clusters", str(K),
                       "--seed", str(FAMILY_SEED)]),
        Op("estimate_s", ["estimate", "--tasks", w("family"), "--out", w("scores.csv"),
                          "--pairs", "300", "--seed", str(PAIR_SEED)], check_scores("scores.csv")),
        Op("cluster_default_s", ["cluster", "--scores", w("scores.csv"), "--out", w("part-default.json"),
                                 "--clusters", str(K), "--seed", str(CLUSTER_SEED),
                                 "--diagnostics", w("cluster-default.json")],
           lambda: checks.check_partition(membership, w("part-default.json"), exact=False),
           known_failing=True),
        Op("estimate_reuse_s", ["estimate", "--tasks", w("family"), "--out", w("reuse.csv"),
                                "--pairs", "300", "--seed", str(PAIR_SEED),
                                "--reuse-source-classifier"], check_scores("reuse.csv")),
        Op("cluster_s", ["cluster", "--scores", w("reuse.csv"), "--out", w("part.json"),
                         "--clusters", str(K), "--seed", str(_seed(seed, 48, 1)),
                         "--diagnostics", w("cluster-reuse.json")],
           lambda: checks.check_partition(membership, w("part.json"), exact=False)),
    ]
    for i, kind in enumerate(KINDS):
        out = w(f"mtl-{kind}.json")
        ops.append(Op("mtl_s", ["mtl", "--tasks", w("family"), "--partition", w("part.json"),
                                "--out", out, "--kind", kind, "--seed", str(_seed(seed, 48, 2, i))],
                      lambda out=out: checks.check_report(out, family)))
    ops.append(Op("fsl_s", ["fsl", "--tasks", w("family"), "--partition", w("part.json"),
                            "--targets", w("targets"), "--out", w("fsl.json"), "--shots", "5",
                            "--adaptive", "--seed", str(_seed(seed, 48, 3))],
                  lambda: checks.check_report(w("fsl.json"), targets, mixture=True)))
    return ops


# ---------------------------------------------------------------------------
# sweep: many small solves

SWEEP_N, SWEEP_TRIALS = 60, 5


def _sweep_ops(work: Path, seed: int) -> list:
    out = str(work / "sweep.csv")
    return [Op("sweep_trials_per_s",
               ["sweep", "--out", out, "--n", str(SWEEP_N), "--clusters", str(K),
                "--trials", str(SWEEP_TRIALS), "--seed", str(_seed(seed, SWEEP_N))],
               lambda: checks.check_sweep(out, SWEEP_N, K, M1_FRACS, M2_FRACS, SWEEP_TRIALS))]


WORKLOADS = {
    "planted": Workload("planted", _planted_setup, _planted_ops),
    "tasks48": Workload("tasks48", _no_setup, _tasks48_ops),
    "sweep": Workload("sweep", _no_setup, _sweep_ops,
                      rates={"sweep_trials_per_s": len(M1_FRACS) * len(M2_FRACS) * SWEEP_TRIALS}),
}
