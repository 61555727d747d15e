"""Compare few-shot strategies on planted task families.

For each seed, builds an opposed two-cluster task family, clusters it with
the full transfer-estimation pipeline, then evaluates three predictors on
fresh target tasks: the cluster-mixture, a mixture over per-task models
(no clustering), and a model trained on the support set alone. Prints a
per-seed table and the mean accuracies.
"""

import argparse
import itertools
from dataclasses import replace

import numpy as np

from taskclust.completion import CompletionProblem, clip_to_unit, complete, observation_lambda
from taskclust.filtering import FilterParams, filter_scores
from taskclust.learning import fsl_combine, train_cluster_model
from taskclust.spectral import adjusted_rand_index, spectral_cluster
from taskclust.synthdata import (
    FamilyConfig,
    fewshot_from_dataset,
    make_target_task,
    make_task_family,
)
from taskclust.transfer import TaskDataset, TrainConfig, build_transfer_matrix, train_single_task


def cluster_family(tasks, K, seed, estimate_cfg):
    pairs = set(itertools.combinations(range(len(tasks)), 2))
    tm = build_transfer_matrix(tasks, pairs, estimate_cfg)
    ps = filter_scores(tm, FilterParams(include_diagonal_in_stats=False))
    lam = observation_lambda(ps.observed)
    result = complete(CompletionProblem(ps.values.astype(float), ps.observed.copy(), lam))
    X, _ = clip_to_unit(result.X)
    return spectral_cluster(X, K, seed=seed)


def support_only_model(fs, cfg):
    d = fs.support[0].shape[1]
    empty = (np.zeros((0, d)), np.zeros(0, dtype=int))
    ds = TaskDataset("support-only", fs.label_count, fs.support, empty, empty)
    return train_single_task(ds, cfg)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--tasks", type=int, default=10)
    ap.add_argument("--targets", type=int, default=6)
    ap.add_argument("--shots", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=100)
    args = ap.parse_args()

    fc = FamilyConfig(dim=10, label_count=3, train_per_class=4, valid_per_class=10,
                      test_per_class=30, separation=1.3, task_noise=0.7,
                      sample_spread=1.2)
    fc_target = replace(fc, task_noise=0.15)
    estimate_cfg = TrainConfig(epochs=args.epochs, seed=0, reuse_source_classifier=True)
    model_cfg = TrainConfig(epochs=args.epochs, seed=0)

    print(f"{'seed':>4}  {'ARI':>5}  {'clustered':>9}  {'flat':>9}  {'single':>9}")
    means = []
    for seed in range(args.seeds):
        tasks, membership = make_task_family(args.tasks, 2, fc, seed=seed, opposed=True)
        part = cluster_family(tasks, 2, seed, estimate_cfg)
        ari = adjusted_rand_index(part.assignment, membership)
        cluster_models = [
            train_cluster_model([tasks[i] for i in part.members(k)],
                                "shared_classifier", model_cfg, cluster_id=k)
            for k in range(2)
        ]
        flat_models = [
            train_cluster_model([t], "shared_classifier", model_cfg, cluster_id=i)
            for i, t in enumerate(tasks)
        ]
        accs = np.zeros(3)
        for tag in range(args.targets):
            target = make_target_task(tag % 2, 2, fc_target, seed=seed, tag=tag,
                                      opposed=True)
            fs = fewshot_from_dataset(target, shots=args.shots, seed=seed + tag)
            _, clustered = fsl_combine(cluster_models, fs)
            _, flat = fsl_combine(flat_models, fs)
            single = support_only_model(fs, model_cfg)
            accs += [clustered.accuracy(*fs.query), flat.accuracy(*fs.query),
                     single.accuracy(*fs.query)]
        accs /= args.targets
        means.append(accs)
        print(f"{seed:>4}  {ari:>5.2f}  {accs[0]:>9.3f}  {accs[1]:>9.3f}  {accs[2]:>9.3f}")

    mean = np.mean(means, axis=0)
    print(f"{'mean':>4}  {'':>5}  {mean[0]:>9.3f}  {mean[1]:>9.3f}  {mean[2]:>9.3f}")


if __name__ == "__main__":
    main()
