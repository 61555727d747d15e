"""Walk one synthetic problem through the full clustering pipeline.

Fabricates planted two-level transfer scores, thresholds them into a partial
binary similarity matrix, recovers the full matrix by robust completion and
partitions it spectrally, printing what happened at every stage and the
final agreement with the plant.
"""

import argparse

import numpy as np

from taskclust.completion import complete_similarity
from taskclust.filtering import FilterParams, filter_scores
from taskclust.spectral import adjusted_rand_index, spectral_cluster
from taskclust.synthdata import synthetic_transfer_matrix


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=12, help="number of tasks")
    ap.add_argument("--clusters", type=int, default=3)
    ap.add_argument("--pair-fraction", type=float, default=0.30,
                    help="fraction of task pairs whose transfer gets evaluated")
    ap.add_argument("--within", type=float, default=0.9)
    ap.add_argument("--cross", type=float, default=0.1)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    total_pairs = args.n * (args.n - 1) // 2
    budget = int(args.pair_fraction * total_pairs)
    tm, membership = synthetic_transfer_matrix(
        args.n, args.clusters, budget, seed=args.seed, sampling="anchored",
        within=(args.within, args.noise), cross=(args.cross, args.noise),
    )
    print(f"scores: {args.n} tasks, {budget}/{total_pairs} pairs sampled, "
          f"levels {args.within}/{args.cross} +- {args.noise}")

    ps = filter_scores(tm, FilterParams(include_diagonal_in_stats=False))
    off_diagonal = int(ps.observed.sum()) - ps.n
    ones = int(ps.values[ps.observed].sum()) - ps.n
    print(f"filter: {off_diagonal} off-diagonal entries decided "
          f"({ones} similar, {off_diagonal - ones} dissimilar)")

    X, clipped, result = complete_similarity(ps.values, ps.observed)
    singular_values = np.linalg.svd(X, compute_uv=False)
    top = ", ".join(f"{v:.2f}" for v in singular_values[: args.clusters + 2])
    print(f"complete: lambda={result.lam:.3f}, {result.iterations} iterations, "
          f"residual {result.final_residual:.2e}, clipped {clipped:.1%}")
    print(f"complete: leading singular values [{top}, ...]")

    part = spectral_cluster(X, args.clusters, seed=args.seed)
    ari = adjusted_rand_index(part.assignment, membership)
    print(f"cluster: sizes {[len(part.members(k)) for k in range(part.K)]}, "
          f"ARI vs plant = {ari:.3f}")
    print("assignment:", part.assignment.tolist())
    print("plant:     ", membership.tolist())


if __name__ == "__main__":
    main()
