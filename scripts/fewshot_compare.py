"""Compare few-shot strategies on planted task families.

For each seed, builds an opposed two-cluster task family, clusters it with
the full transfer-estimation pipeline, then evaluates three predictors on
fresh target tasks: the cluster-mixture, a mixture over per-task models
(no clustering), and a model trained on the support set alone. Prints a
per-seed table and the mean accuracies. Each row is one
taskclust.bench.fewshot_trial.
"""

import argparse

import numpy as np

from taskclust.bench import fewshot_trial


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--tasks", type=int, default=10)
    ap.add_argument("--targets", type=int, default=6)
    ap.add_argument("--shots", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=100)
    args = ap.parse_args()

    print(f"{'seed':>4}  {'ARI':>5}  {'clustered':>9}  {'flat':>9}  {'single':>9}")
    means = []
    for seed in range(args.seeds):
        r = fewshot_trial(seed, n_tasks=args.tasks, targets=args.targets, shots=args.shots,
                          epochs=args.epochs)
        means.append([r.clustered, r.flat, r.single])
        print(f"{seed:>4}  {r.ari:>5.2f}  {r.clustered:>9.3f}  {r.flat:>9.3f}  {r.single:>9.3f}")

    mean = np.mean(means, axis=0)
    print(f"{'mean':>4}  {'':>5}  {mean[0]:>9.3f}  {mean[1]:>9.3f}  {mean[2]:>9.3f}")


if __name__ == "__main__":
    main()
