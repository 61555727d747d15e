"""Acceptance gate: one test per verification criterion, one verdict line each.

Every test prints a single PASS/FAIL line through the capture so the
verdicts are visible in plain pytest output, then asserts the criterion.
"""

import math
import time

import numpy as np
import pytest

from taskclust.bench import (
    equal_sizes,
    fewshot_trial,
    generate_planted,
    minimal_m1_for_recovery,
    observe_and_corrupt,
    recovery_trial,
)
from taskclust.cli import main as cli_main
from taskclust.completion import (
    CompletionProblem,
    complete,
    default_lambda,
)
from taskclust.filtering import FilterParams, filter_scores
from taskclust.learning import adaptive_fsl, fsl_combine
from taskclust.spectral import adjusted_rand_index, cluster_scores
from taskclust.synthdata import (
    FamilyConfig,
    fewshot_from_dataset,
    make_adversarial_task,
    make_task_family,
    synthetic_transfer_matrix,
)
from taskclust.transfer import (TrainConfig, TransferMatrix, build_transfer_matrix, sample_task_pairs,
                                train_cluster_models)


def report(capsys, label: str, passed: bool, detail: str) -> None:
    """Print one verdict line that survives pytest's output capture."""
    with capsys.disabled():
        print(f"[{label}] {'PASS' if passed else 'FAIL'}: {detail}")


def test_exact_recovery_under_heavy_corruption(capsys):
    """Planted block matrices are recovered entrywise from a near-complete
    sample with 5% of the observations flipped."""
    t0 = time.perf_counter()
    n, k = 90, 3
    m1 = min(n * n, 8 * n * int(math.ceil(math.log2(n))) ** 2)
    m2 = int(round(0.05 * m1))
    lam = 1.0 / math.sqrt(n)
    recovered = 0
    for seed in range(20):
        inst = generate_planted(n, k, equal_sizes(n, k), seed=seed)
        recovered += recovery_trial(inst, m1, m2, lam=lam, seed=seed).recovered
    elapsed = time.perf_counter() - t0
    ok = recovered >= 18 and elapsed < 300
    report(capsys, "exact-recovery", ok,
           f"{recovered}/20 seeds below 1e-3 entrywise error "
           f"(n={n}, m1={m1}, m2={m2}; {elapsed:.1f}s of 300s)")
    assert recovered >= 18
    assert elapsed < 300


@pytest.mark.slow
def test_minimal_sampling_scales_subquadratically(capsys):
    """The smallest reliable sample size grows far slower than n^2."""
    t0 = time.perf_counter()
    ns = [30, 60, 90, 120]
    minimal = [
        minimal_m1_for_recovery(n, 3, target_prob=0.95, trials=20, seed=0, lam=1.0)
        for n in ns
    ]
    exponent = float(np.polyfit(np.log(ns), np.log(minimal), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = exponent < 1.6 and elapsed < 1800
    report(capsys, "sampling-scaling", ok,
           f"minimal m1 {minimal} over n={ns}, log-log exponent {exponent:.3f} "
           f"< 1.6 ({elapsed:.0f}s of 1800s)")
    assert exponent < 1.6
    assert elapsed < 1800


def test_planted_similarity_matrices_have_rank_k(capsys):
    """Every planted instance has exactly k numerically nonzero singular values."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    all_exact = True
    for _ in range(100):
        n = int(rng.integers(6, 61))
        k = int(rng.integers(1, min(6, n) + 1))
        sizes = np.bincount(rng.integers(0, k, size=n - k), minlength=k) + 1
        inst = generate_planted(n, k, sizes.tolist(), seed=int(rng.integers(2**31)))
        sv = np.linalg.svd(inst.X_star, compute_uv=False)
        nonzero = int((sv > 1e-9 * sv[0]).sum())
        all_exact &= nonzero == k
    elapsed = time.perf_counter() - t0
    ok = all_exact and elapsed < 10
    report(capsys, "rank-invariant", ok,
           f"100/100 planted instances with rank exactly k at 1e-9 relative "
           f"({elapsed:.1f}s of 10s)")
    assert all_exact
    assert elapsed < 10


def reference_filter(scores, p1, p2, include_diagonal):
    """Line-by-line reimplementation of the thresholding rule in plain Python."""
    n = len(scores)
    mu, sd = [], []
    for j in range(n):
        col = [scores[i][j] for i in range(n) if include_diagonal or i != j]
        m = sum(col) / len(col)
        sd.append(math.sqrt(sum((v - m) ** 2 for v in col) / len(col)))
        mu.append(m)
    out = [[-1] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
        for j in range(i + 1, n):
            s_ij, s_ji = scores[i][j], scores[j][i]
            if s_ij > mu[j] + p1 * sd[j] and s_ji > mu[i] + p1 * sd[i]:
                out[i][j] = out[j][i] = 1
            elif s_ij < mu[j] - p2 * sd[j] and s_ji < mu[i] - p2 * sd[i]:
                out[i][j] = out[j][i] = 0
    return out


def test_filter_agrees_with_line_by_line_reference(capsys):
    """Module thresholding is identical to an independent reimplementation on
    1000 random fully observed score matrices."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 10
    agree = True
    for trial in range(1000):
        scores = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(scores, 1.0)
        tm = TransferMatrix(scores=scores, observed=np.ones((n, n), dtype=bool))
        p1, p2 = float(rng.uniform(0, 1.5)), float(rng.uniform(0, 1.5))
        include = bool(trial % 2)
        ps = filter_scores(tm, FilterParams(p1=p1, p2=p2, include_diagonal=include))
        ref = np.array(reference_filter(scores.tolist(), p1, p2, include))
        agree &= np.array_equal(ps.observed, ref != -1)
        agree &= np.array_equal(ps.values[ps.observed], ref[ref != -1])
    elapsed = time.perf_counter() - t0
    ok = agree and elapsed < 10
    report(capsys, "filter-oracle", ok,
           f"1000 matrices identical to the reference "
           f"({elapsed:.1f}s of 10s)")
    assert agree
    assert elapsed < 10


def test_solver_objective_matches_the_planted_certificate(capsys):
    """The solver never does worse than the planted feasible point and always
    reaches a tight constraint residual."""
    t0 = time.perf_counter()
    lam = default_lambda(12)
    obj_ok = res_ok = 0
    for seed in range(50):
        inst = generate_planted(12, 3, equal_sizes(12, 3), seed=seed)
        plan = observe_and_corrupt(inst, 101, 2, seed=seed)
        result = complete(CompletionProblem(plan.Y, plan.omega, lam))
        Y_sym = (plan.Y + plan.Y.T) / 2
        objective = (np.linalg.svd(result.X, compute_uv=False).sum()
                     + lam * np.abs(result.E).sum())
        E_star = np.where(plan.omega, Y_sym - inst.X_star, 0.0)
        certificate = (np.linalg.svd(inst.X_star, compute_uv=False).sum()
                       + lam * np.abs(E_star).sum())
        obj_ok += objective <= certificate * (1 + 1e-6)
        res_ok += result.final_residual < 1e-7
    elapsed = time.perf_counter() - t0
    ok = obj_ok == 50 and res_ok == 50 and elapsed < 60
    report(capsys, "solver-optimality", ok,
           f"objective within 1e-6 of the certificate {obj_ok}/50, "
           f"residual < 1e-7 {res_ok}/50 ({elapsed:.1f}s of 60s)")
    assert obj_ok == 50
    assert res_ok == 50
    assert elapsed < 60


def test_pipeline_clusters_planted_scores_perfectly(capsys):
    """Thirty percent of pairs, noisy two-level scores: cluster_scores, the
    filter-complete-cluster chain, still reproduces the planted partition."""
    t0 = time.perf_counter()
    n, K = 12, 3
    budget = int(0.30 * (n * (n - 1) // 2))
    perfect = 0
    for seed in range(20):
        tm, membership = synthetic_transfer_matrix(
            n, K, budget, seed=seed, sampling="anchored",
            within=(0.9, 0.05), cross=(0.1, 0.05),
        )
        ps = filter_scores(tm, FilterParams(include_diagonal=False))
        part, _ = cluster_scores(ps, K, seed=seed)
        perfect += adjusted_rand_index(part.assignment, membership) == 1.0
    elapsed = time.perf_counter() - t0
    ok = perfect >= 18 and elapsed < 120
    report(capsys, "end-to-end-clustering", ok,
           f"ARI 1.0 in {perfect}/20 seeds at {budget} sampled pairs "
           f"({elapsed:.1f}s of 120s)")
    assert perfect >= 18
    assert elapsed < 120


def test_regularized_embedding_clusters_the_sampled_48_task_path(capsys):
    """Direct-evaluation scores of 300 sampled pairs on 48 tasks, clustered by
    cluster_scores at its defaults and K = 3: every one of 2 families x 12
    pair seeds reaches ARI >= 0.9. No convergence is required, because family
    0 with pair seed 2 stops at the 500-iteration cap; its X is clustered as
    is."""
    t0 = time.perf_counter()
    aris, gaps = [], []
    for family_seed in (0, 1):
        tasks, membership = make_task_family(48, 3, seed=family_seed)
        for pair_seed in range(12):
            tm = build_transfer_matrix(tasks, sample_task_pairs(48, 300, seed=pair_seed),
                                       TrainConfig(seed=pair_seed))
            part, _ = cluster_scores(filter_scores(tm), 3, seed=2)
            aris.append(adjusted_rand_index(part.assignment, membership))
            gaps.append(part.laplacian_gap)
    elapsed = time.perf_counter() - t0
    good = sum(ari >= 0.9 for ari in aris)
    ok = good == 24 and elapsed < 120
    report(capsys, "regularized-embedding", ok,
           f"ARI >= 0.9 in {good}/24 runs (min {min(aris):.3f}), Laplacian gaps "
           f"{min(gaps):.2f}-{max(gaps):.2f} ({elapsed:.1f}s of 120s)")
    assert good == 24
    assert elapsed < 120


def test_clustered_fewshot_beats_flat_and_single_baselines(capsys):
    """Cluster-mixture few-shot accuracy dominates the no-clustering mixture,
    which dominates support-only training, on most seeds."""
    t0 = time.perf_counter()
    clustered_wins = flat_wins = 0
    for seed in range(20):
        trial = fewshot_trial(seed)
        clustered_wins += trial.clustered >= trial.flat
        flat_wins += trial.flat >= trial.single
    elapsed = time.perf_counter() - t0
    ok = clustered_wins >= 15 and flat_wins >= 15 and elapsed < 300
    report(capsys, "fewshot-ordering", ok,
           f"clustered >= flat in {clustered_wins}/20, flat >= single in "
           f"{flat_wins}/20 seeds ({elapsed:.1f}s of 300s)")
    assert clustered_wins >= 15
    assert flat_wins >= 15
    assert elapsed < 300


def test_adaptive_fallback_at_least_matches_plain_mixture(capsys):
    """On label-shuffled out-of-cluster targets the fallback path never trails
    the plain mixture."""
    t0 = time.perf_counter()
    fc = FamilyConfig()
    cfg = TrainConfig(epochs=80, seed=0)
    wins = 0
    for seed in range(20):
        tasks, membership = make_task_family(8, 2, fc, seed=seed)
        clusters = [[t for t, c in zip(tasks, membership) if c == k] for k in range(2)]
        models = train_cluster_models(clusters, "shared_classifier", cfg)
        adaptive_accs, plain_accs = [], []
        for tag in range(4):
            adversarial = make_adversarial_task(tag % 2, 2, fc, seed=seed, tag=tag)
            fs = fewshot_from_dataset(adversarial, shots=2, seed=seed + tag)
            predictor = adaptive_fsl(models, fs, threshold=0.20, fallback_config=cfg)
            plain = fsl_combine(models, fs)
            adaptive_accs.append(predictor.accuracy(*fs.test))
            plain_accs.append(plain.accuracy(*fs.test))
        wins += np.mean(adaptive_accs) >= np.mean(plain_accs)
    elapsed = time.perf_counter() - t0
    ok = wins >= 15 and elapsed < 300
    report(capsys, "adaptive-fallback", ok,
           f"adaptive >= plain in {wins}/20 seeds at threshold 0.20 "
           f"({elapsed:.1f}s of 300s)")
    assert wins >= 15
    assert elapsed < 300


def test_cli_reruns_are_byte_identical(tmp_path, capsys):
    """Every subcommand, run twice with the same seeds, writes the same bytes."""
    t0 = time.perf_counter()
    from taskclust import fileio

    def run_tree(root):
        root.mkdir()
        tasks, targets = root / "tasks", root / "targets"
        cmds = [
            ["synth", "--out", tasks, "--n-tasks", 12, "--clusters", 3,
             "--dim", 5, "--seed", 0],
            ["synth", "--out", targets, "--n-tasks", 2, "--clusters", 2,
             "--dim", 5, "--seed", 9],
            ["estimate", "--tasks", tasks, "--out", root / "estimated.csv",
             "--pairs", 12, "--epochs", 15, "--seed", 1],
        ]
        for cmd in cmds:
            assert cli_main([str(a) for a in cmd]) == 0
        tm, _ = synthetic_transfer_matrix(12, 3, 19, seed=3, sampling="anchored")
        fileio.write_transfer_csv(tm, root / "scores.csv")
        cmds = [
            ["filter", "--scores", root / "scores.csv", "--out", root / "sim.csv",
             "--exclude-diagonal", "--seed", 2],
            ["complete", "--similarity", root / "sim.csv",
             "--out-x", root / "X.csv", "--out-e", root / "E.csv",
             "--diagnostics", root / "complete-diag.json", "--seed", 3],
            ["cluster", "--scores", root / "scores.csv",
             "--out", root / "partition.json", "--clusters", 3,
             "--exclude-diagonal", "--diagnostics", root / "cluster-diag.json",
             "--seed", 4],
            ["mtl", "--tasks", tasks, "--partition", root / "partition.json",
             "--out", root / "mtl.json", "--epochs", 15, "--seed", 5],
            ["fsl", "--tasks", tasks, "--partition", root / "partition.json",
             "--targets", targets, "--out", root / "fsl.json", "--shots", 2,
             "--epochs", 15, "--seed", 6],
            ["sweep", "--out", root / "sweep.csv", "--n", 12, "--clusters", 2,
             "--m1-fracs", "0.8,1.0", "--m2-fracs", "0.0", "--trials", 2,
             "--seed", 7],
        ]
        for cmd in cmds:
            assert cli_main([str(a) for a in cmd]) == 0
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    first = run_tree(tmp_path / "run1")
    second = run_tree(tmp_path / "run2")
    identical = first.keys() == second.keys() and all(
        first[name] == second[name] for name in first
    )
    elapsed = time.perf_counter() - t0
    report(capsys, "cli-determinism", identical,
           f"{len(first)} artifacts byte-identical across reruns of all 8 "
           f"commands ({elapsed:.1f}s)")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs between reruns"
