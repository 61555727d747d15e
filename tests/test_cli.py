"""End-to-end tests of the command-line pipeline, run in process."""

import json
import os
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from taskclust import bench, cli, fileio, spectral, transfer
from taskclust.cli import main, stage_seed
from taskclust.completion import complete_similarity
from taskclust.filtering import FilterParams, filter_scores
from taskclust.spectral import adjusted_rand_index, spectral_cluster
from taskclust.synthdata import balanced_membership, synthetic_transfer_matrix
from taskclust.transfer import TrainConfig, TransferMatrix, train_cluster_models


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_record(err):
    return json.loads(err.strip().splitlines()[-1])


@pytest.fixture
def family_dir(tmp_path, capsys):
    """A small synthetic family written through the synth command."""
    out = tmp_path / "tasks"
    code, _, _ = run(
        capsys, "synth", "--out", out, "--n-tasks", 6, "--clusters", 2,
        "--dim", 4, "--seed", 0,
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_tasks_and_membership(self, family_dir):
        files = sorted(p.name for p in family_dir.iterdir())
        assert files == ["membership.json"] + [f"task-{t:03d}.json" for t in range(6)]
        doc = fileio.read_json(family_dir / "membership.json")
        assert doc["membership"] == balanced_membership(6, 2).tolist()

    def test_missing_out_reports_missing_setting(self, capsys):
        code, _, err = run(capsys, "synth", "--n-tasks", 4, "--clusters", 2)
        assert code == 2
        assert stderr_record(err)["error"] == "missing-setting"

    @pytest.mark.parametrize("flag, value", [("--sample-spread", "nan"), ("--separation", "inf"),
                                             ("--task-noise", "-0.5")])
    def test_a_non_finite_or_negative_spread_exits_two(self, tmp_path, capsys, flag, value):
        out = tmp_path / "tasks"
        code, _, err = run(capsys, "synth", "--out", out, "--n-tasks", 3, "--clusters", 1, flag, value)
        assert code == 2
        record = stderr_record(err)
        assert record["error"] == "bad-config"
        assert flag[2:].replace("-", "_") in record["message"]
        assert not out.exists()

    def test_internal_key_error_is_not_a_missing_setting(self, family_dir, tmp_path, capsys,
                                                          monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("W_enc")

        monkeypatch.setattr(cli, "build_transfer_matrix", broken)
        with pytest.raises(KeyError):
            main(["estimate", "--tasks", str(family_dir), "--out", str(tmp_path / "s.csv")])
        assert "missing-setting" not in capsys.readouterr().err


class TestEstimate:
    def test_three_task_dir_yields_header_n3(self, tmp_path, capsys):
        out = tmp_path / "tasks"
        run(capsys, "synth", "--out", out, "--n-tasks", 3, "--clusters", 1,
            "--dim", 3, "--seed", 1)
        scores = tmp_path / "scores.csv"
        code, _, _ = run(capsys, "estimate", "--tasks", out, "--out", scores,
                         "--pairs", "all", "--epochs", 10, "--seed", 0)
        assert code == 0
        assert scores.read_text().splitlines()[0] == "#n=3"

    def test_missing_task_dir_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "estimate", "--tasks", tmp_path / "nope",
                           "--out", tmp_path / "s.csv")
        assert code == 2
        assert stderr_record(err)["error"] == "missing-input"

    @pytest.mark.parametrize("lr", ["nan", "inf", "0"])
    def test_bad_learning_rate_exits_two(self, family_dir, tmp_path, capsys, lr):
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "estimate", "--tasks", family_dir, "--out", out,
                           "--pairs", 8, "--lr", lr, "--seed", 3)
        assert code == 2
        assert stderr_record(err)["error"] == "bad-config"
        assert not out.exists()

    def test_a_task_id_held_twice_exits_two(self, family_dir, tmp_path, capsys):
        (family_dir / "task-006.json").write_bytes((family_dir / "task-000.json").read_bytes())
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "estimate", "--tasks", family_dir, "--out", out,
                           "--pairs", "all", "--reuse-source-classifier", "--seed", 3)
        assert code == 2
        record = stderr_record(err)
        assert record["error"] == "duplicate-task"
        assert "task-000.json" in record["message"] and "task-006.json" in record["message"]
        assert not out.exists()

    def test_direct_evaluation_needs_equal_label_counts(self, family_dir, tmp_path, capsys):
        path = family_dir / "task-001.json"
        doc = fileio.read_json(path)
        doc["label_count"] += 2
        fileio.write_json(doc, path)
        out = tmp_path / "s.csv"
        argv = ["estimate", "--tasks", family_dir, "--out", out, "--pairs", "all",
                "--epochs", 5, "--seed", 3]
        for flags in ([], ["--reuse-source-classifier"]):
            code, _, err = run(capsys, *argv, *flags)
            assert code == 2
            assert stderr_record(err)["error"] == "label-mismatch"
            assert not out.exists()

    def test_a_non_finite_feature_exits_two(self, family_dir, tmp_path, capsys):
        path = family_dir / "task-002.json"
        doc = fileio.read_json(path)
        doc["splits"]["train"][3]["x"][1] = float("nan")
        fileio.write_json(doc, path)
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "estimate", "--tasks", family_dir, "--out", out, "--pairs", "all")
        assert code == 2
        record = stderr_record(err)
        assert record["error"] == "non-finite"
        assert "task002" in record["message"]
        assert not out.exists()

    def test_the_reuse_flag_and_its_config_key_change_nothing(self, family_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        fileio.write_json({"estimate": {"reuse_source_classifier": True}}, config)
        argv = ["estimate", "--tasks", family_dir, "--pairs", 8, "--epochs", 15, "--seed", 3]
        outs = []
        for k, flags in enumerate(([], ["--reuse-source-classifier"], ["--config", config])):
            outs.append(tmp_path / f"scores-{k}.csv")
            code, _, err = run(capsys, *argv, "--out", outs[-1], *flags)
            assert code == 0 and err == ""
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    def test_the_benchmark_family_clusters_from_default_scores(self, tmp_path, capsys):
        """The benchmark's tasks48 family (48 tasks in 3 clusters, 300 sampled
        pairs): the default estimate scores separate the clusters, and X
        completes to rank 3, so cluster warns of nothing."""
        tasks, scores, part = tmp_path / "tasks", tmp_path / "scores.csv", tmp_path / "p.json"
        for argv in (["synth", "--out", tasks, "--n-tasks", 48, "--clusters", 3, "--seed", 0],
                     ["estimate", "--tasks", tasks, "--out", scores, "--pairs", 300, "--seed", 1],
                     ["cluster", "--scores", scores, "--out", part, "--clusters", 3, "--seed", 2,
                      "--diagnostics", tmp_path / "diag.json"]):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        assert err == "" and fileio.read_json(tmp_path / "diag.json")["x_rank"] == 3
        membership = fileio.read_json(tasks / "membership.json")["membership"]
        assert adjusted_rand_index(fileio.read_partition_json(part).assignment, membership) >= 0.9

    def test_rerun_is_byte_identical(self, family_dir, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(capsys, "estimate", "--tasks", family_dir, "--out", out,
                             "--pairs", 8, "--epochs", 15, "--seed", 3)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestFilterAndComplete:
    @pytest.fixture
    def scores_csv(self, tmp_path):
        tm, _ = synthetic_transfer_matrix(12, 3, 19, seed=0, sampling="anchored")
        path = tmp_path / "scores.csv"
        fileio.write_transfer_csv(tm, path)
        return path

    def test_filter_then_complete_roundtrip(self, scores_csv, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        code, _, _ = run(capsys, "filter", "--scores", scores_csv, "--out", sim,
                         "--exclude-diagonal", "--seed", 0)
        assert code == 0
        code, _, _ = run(
            capsys, "complete", "--similarity", sim,
            "--out-x", tmp_path / "X.csv", "--out-e", tmp_path / "E.csv",
            "--diagnostics", tmp_path / "diag.json", "--seed", 0,
        )
        assert code == 0
        diag = fileio.read_json(tmp_path / "diag.json")
        assert diag["converged"] is True
        assert diag["final_residual"] < 1e-7
        assert diag["rho_initial"] > 0 and diag["rho_final"] > 0
        assert set(diag) == {
            "iterations", "final_residual", "converged", "lambda", "clipped_fraction",
            "rho_initial", "rho_final", "x_rank", "e_support", "full_steps",
        }
        assert diag["x_rank"] >= 1
        E = fileio.read_dense_csv(tmp_path / "E.csv")
        assert diag["e_support"] == np.count_nonzero(E)
        assert 1 <= diag["full_steps"] <= diag["iterations"]
        X = fileio.read_dense_csv(tmp_path / "X.csv")
        assert X.shape == (12, 12)
        assert X.min() >= 0.0 and X.max() <= 1.0

    def test_the_quick_start_e_is_symmetric(self, tmp_path, capsys):
        """The README quick start's 12-task E.csv equals its transpose
        exactly (2 of its entries did not before E was symmetrized)."""
        steps = [("synth", "--out", tmp_path / "tasks", "--n-tasks", 12, "--clusters", 3, "--seed", 0),
                 ("estimate", "--tasks", tmp_path / "tasks", "--out", tmp_path / "scores.csv",
                  "--pairs", 40, "--seed", 1),
                 ("filter", "--scores", tmp_path / "scores.csv", "--out", tmp_path / "partial.csv"),
                 ("complete", "--similarity", tmp_path / "partial.csv", "--out-x", tmp_path / "X.csv",
                  "--out-e", tmp_path / "E.csv", "--diagnostics", tmp_path / "diag.json")]
        for argv in steps:
            assert run(capsys, *argv)[0] == 0
        E = fileio.read_dense_csv(tmp_path / "E.csv")
        assert E.shape == (12, 12) and np.array_equal(E, E.T)
        assert fileio.read_json(tmp_path / "diag.json")["e_support"] == np.count_nonzero(E)

    def test_complete_rerun_is_byte_identical(self, scores_csv, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        run(capsys, "filter", "--scores", scores_csv, "--out", sim,
            "--exclude-diagonal", "--seed", 0)
        outs = []
        for tag in ("1", "2"):
            x = tmp_path / f"X{tag}.csv"
            code, _, _ = run(capsys, "complete", "--similarity", sim,
                             "--out-x", x, "--out-e", tmp_path / f"E{tag}.csv",
                             "--diagnostics", tmp_path / f"d{tag}.json", "--seed", 0)
            assert code == 0
            outs.append(x.read_bytes())
        assert outs[0] == outs[1]

    def test_unconverged_solver_exits_three(self, scores_csv, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        run(capsys, "filter", "--scores", scores_csv, "--out", sim,
            "--exclude-diagonal", "--seed", 0)
        code, _, err = run(
            capsys, "complete", "--similarity", sim,
            "--out-x", tmp_path / "X.csv", "--out-e", tmp_path / "E.csv",
            "--solver-max-iter", 1, "--seed", 0,
        )
        assert code == 3
        assert stderr_record(err)["error"] == "no-convergence"

    @pytest.mark.parametrize("command", ["complete", "cluster"])
    def test_nan_lambda_exits_two(self, command, scores_csv, tmp_path, capsys):
        sim, out = tmp_path / "sim.csv", tmp_path / "out"
        run(capsys, "filter", "--scores", scores_csv, "--out", sim, "--seed", 0)
        outputs = {
            "complete": ("--similarity", sim, "--out-x", out, "--out-e", tmp_path / "E.csv"),
            "cluster": ("--scores", scores_csv, "--out", out, "--clusters", 3),
        }
        code, _, err = run(capsys, command, *outputs[command], "--lam", "nan", "--seed", 0)
        assert code == 2
        assert stderr_record(err)["error"] == "bad-lambda"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [("filter", "--p1"), ("filter", "--p2"),
                                               ("cluster", "--p1"), ("cluster", "--p2")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_non_finite_filter_p_exits_two(self, command, flag, value, scores_csv, tmp_path,
                                             capsys):
        out = tmp_path / "out"
        extra = ("--clusters", 3) if command == "cluster" else ()
        code, _, err = run(capsys, command, "--scores", scores_csv, "--out", out, *extra,
                           flag, value, "--seed", 0)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert stderr_record(err)["error"] == "bad-params"
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, code_name", [
        (("--solver-tol", "inf"), {}, "bad-tol"),
        (("--solver-tol", "nan"), {}, "bad-tol"),
    ], ids=["tol-inf", "tol-nan"])
    def test_a_non_finite_solver_setting_exits_two(self, argv, config, code_name, scores_csv,
                                                   tmp_path, capsys):
        sim, cfg = tmp_path / "sim.csv", tmp_path / "config.json"
        run(capsys, "filter", "--scores", scores_csv, "--out", sim, "--seed", 0)
        fileio.write_json({"complete": config}, cfg)
        code, _, err = run(capsys, "complete", "--config", cfg, "--similarity", sim,
                           "--out-x", tmp_path / "X.csv", "--out-e", tmp_path / "E.csv",
                           *argv, "--seed", 0)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert stderr_record(err)["error"] == code_name
        assert not (tmp_path / "X.csv").exists()

    def test_garbage_similarity_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("#n=3\nnot,a,row,at,all\n")
        code, _, err = run(capsys, "complete", "--similarity", bad,
                           "--out-x", tmp_path / "X.csv", "--out-e", tmp_path / "E.csv")
        assert code == 2
        assert stderr_record(err)["error"] == "bad-format"


class TestCluster:
    def test_planted_scores_recover_the_plant_exactly(self, tmp_path, capsys):
        tm, membership = synthetic_transfer_matrix(12, 3, 19, seed=4, sampling="anchored")
        scores = tmp_path / "scores.csv"
        fileio.write_transfer_csv(tm, scores)
        out = tmp_path / "partition.json"
        code, _, _ = run(capsys, "cluster", "--scores", scores, "--out", out,
                         "--clusters", 3, "--exclude-diagonal",
                         "--diagnostics", tmp_path / "diag.json", "--seed", 0)
        assert code == 0
        part = fileio.read_partition_json(out)
        assert adjusted_rand_index(part.assignment, membership) == 1.0

    def test_solver_flags_reach_the_solver(self, tmp_path, capsys):
        tm, _ = synthetic_transfer_matrix(12, 3, 19, seed=0, sampling="anchored")
        scores = tmp_path / "scores.csv"
        fileio.write_transfer_csv(tm, scores)
        out = tmp_path / "partition.json"
        args = ("cluster", "--scores", scores, "--out", out, "--clusters", 3, "--seed", 0)
        unconverged = tmp_path / "diag-unconverged.json"
        code, _, err = run(capsys, *args, "--solver-max-iter", 1, "--diagnostics", unconverged)
        assert code == 3
        record = stderr_record(err)
        assert record["error"] == "no-convergence"
        assert record["message"].startswith("solver stopped after 1 iterations")
        assert not out.exists() and not unconverged.exists()
        iterations = {}  # the default tolerance takes 44 iterations, 1e-3 takes 21
        for tol in (1e-7, 1e-3):
            diag = tmp_path / f"diag-{tol}.json"
            code, _, _ = run(capsys, *args, "--solver-tol", tol, "--diagnostics", diag)
            assert code == 0
            iterations[tol] = fileio.read_json(diag)["iterations"]
        assert iterations[1e-3] < iterations[1e-7]

    def test_degenerate_laplacian_warns_without_changing_the_partition(self, tmp_path, capsys):
        # Scores where no pair transfers: the unit diagonal lifts every
        # column mean above each 0.05-0.15 score, so p2 = 0 decides all 66
        # pairs 0, the completed X is 0, and every eigenvalue of L but the
        # first is 1, so eigenvalues 3 and 4 coincide and stderr warns. Four planted
        # clusters asked for four keep a gap near 1 - tau/(4 + tau) = 0.5
        # (mean degree tau = 4) and no warning.
        rng = np.random.default_rng(0)
        S = rng.uniform(0.05, 0.15, (12, 12))
        np.fill_diagonal(S, 1.0)
        silent = TransferMatrix(S, np.ones((12, 12), dtype=bool))
        planted, _ = synthetic_transfer_matrix(16, 4, 40, seed=0, sampling="anchored")
        diag = tmp_path / "diag.json"
        for tm, K, flags, params, degenerate in (
                (silent, 3, ("--p2", "0"), FilterParams(p2=0.0), True),
                (planted, 4, ("--exclude-diagonal",), FilterParams(include_diagonal=False),
                 False)):
            scores, out = tmp_path / f"scores-{K}.csv", tmp_path / f"partition-{K}.json"
            fileio.write_transfer_csv(tm, scores)
            code, _, err = run(capsys, "cluster", "--scores", scores, "--out", out,
                               "--clusters", K, *flags, "--diagnostics", diag, "--seed", 0)
            assert code == 0
            gap = fileio.read_json(diag)["laplacian_gap"]
            ps = filter_scores(tm, params)
            X = complete_similarity(ps.values, ps.observed)[0]
            if degenerate:
                assert ps.observed.all() and not X.any()
                assert gap <= cli.LAPLACIAN_GAP_WARNING
                assert stderr_record(err)["warning"] == "degenerate-embedding"
            else:
                assert gap > 0.4 and err == ""
            part = spectral_cluster(X, K, seed=0)
            assert fileio.read_partition_json(out).assignment.tolist() == part.assignment.tolist()
            assert part.laplacian_gap == gap

    def test_the_scores_are_freed_before_the_solve(self, tmp_path, capsys, monkeypatch):
        """No name holds the TransferMatrix that read_transfer_csv returns
        once filter_scores has read it, so its n x n scores are gone when
        complete_similarity runs."""
        read, complete = fileio.read_transfer_csv, spectral.complete_similarity
        refs = []

        def reading(path):
            tm = read(path)
            refs.append(weakref.ref(tm))
            return tm

        def completing(*args):
            assert len(refs) == 1 and refs[0]() is None
            return complete(*args)

        monkeypatch.setattr(fileio, "read_transfer_csv", reading)
        monkeypatch.setattr(spectral, "complete_similarity", completing)
        tm, _ = synthetic_transfer_matrix(12, 3, 19, seed=0, sampling="anchored")
        fileio.write_transfer_csv(tm, tmp_path / "scores.csv")
        code, _, err = run(capsys, "cluster", "--scores", tmp_path / "scores.csv",
                           "--out", tmp_path / "p.json", "--clusters", 3, "--seed", 0)
        assert code == 0, err

    def test_a_completion_below_rank_k_warns_without_changing_the_partition(self, tmp_path,
                                                                           capsys):
        """48 tasks in 3 clusters (synth seed 2) from 300 pairs (estimate seed
        9): the completed X has rank 2 and two clusters merge (ARI 0.544).
        cluster exits 0 with the partition cluster_scores gives, and warns."""
        tasks, scores, out = tmp_path / "tasks", tmp_path / "scores.csv", tmp_path / "p.json"
        for argv in (["synth", "--out", tasks, "--n-tasks", 48, "--clusters", 3, "--seed", 2],
                     ["estimate", "--tasks", tasks, "--out", scores, "--pairs", 300, "--seed", 9]):
            assert run(capsys, *argv)[0] == 0
        code, _, err = run(capsys, "cluster", "--scores", scores, "--out", out, "--clusters", 3,
                           "--seed", 2, "--diagnostics", tmp_path / "diag.json")
        assert code == 0
        record = stderr_record(err)
        assert record["warning"] == "low-rank-completion" and len(err.splitlines()) == 1
        assert record["message"].startswith("the completed matrix has rank 2, below K = 3")
        assert fileio.read_json(tmp_path / "diag.json")["x_rank"] == 2
        part, _ = spectral.cluster_scores(filter_scores(fileio.read_transfer_csv(scores)), 3, seed=2)
        assert fileio.read_partition_json(out).assignment.tolist() == part.assignment.tolist()
        membership = fileio.read_json(tasks / "membership.json")["membership"]
        assert round(adjusted_rand_index(part.assignment, membership), 3) == 0.544

    def test_no_rank_warning_on_the_quick_start(self, tmp_path, capsys):
        """The README quick start (12 tasks, 40 pairs) completes to rank 3:
        stderr stays empty."""
        tasks, scores, diag = tmp_path / "tasks", tmp_path / "scores.csv", tmp_path / "diag.json"
        for argv in (["synth", "--out", tasks, "--n-tasks", 12, "--clusters", 3, "--seed", 0],
                     ["estimate", "--tasks", tasks, "--out", scores, "--pairs", 40, "--seed", 1]):
            assert run(capsys, *argv)[0] == 0
        code, _, err = run(capsys, "cluster", "--scores", scores, "--out", tmp_path / "p.json",
                           "--clusters", 3, "--seed", 2, "--diagnostics", diag)
        assert code == 0 and err == ""
        assert fileio.read_json(diag)["x_rank"] == 3

    def test_diagnostics_are_written_only_when_asked(self, tmp_path, capsys, monkeypatch):
        tm, _ = synthetic_transfer_matrix(12, 3, 19, seed=0, sampling="anchored")
        fileio.write_transfer_csv(tm, tmp_path / "scores.csv")
        fileio.write_partial_csv(filter_scores(tm), tmp_path / "partial.csv")
        monkeypatch.chdir(tmp_path)
        for argv in (["cluster", "--scores", "scores.csv", "--out", "p.json", "--clusters", 3],
                     ["complete", "--similarity", "partial.csv", "--out-x", "X.csv", "--out-e", "E.csv"]):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["E.csv", "X.csv", "p.json",
                                                              "partial.csv", "scores.csv"]

    @pytest.mark.parametrize("extra", [(), ("--solver-max-iter", 1)])
    def test_more_clusters_than_tasks_exit_two_and_write_nothing(self, extra, tmp_path, capsys):
        """K = n + 1 is too-many-clusters whether or not the solve converges:
        the partition is tried before the convergence check."""
        tm, _ = synthetic_transfer_matrix(12, 3, 19, seed=0, sampling="anchored")
        scores, out, diag = tmp_path / "scores.csv", tmp_path / "p.json", tmp_path / "diag.json"
        fileio.write_transfer_csv(tm, scores)
        code, _, err = run(capsys, "cluster", "--scores", scores, "--out", out, "--clusters", 13,
                           "--diagnostics", diag, *extra, "--seed", 0)
        assert code == 2
        assert stderr_record(err)["error"] == "too-many-clusters"
        assert not out.exists() and not diag.exists()

    def test_zero_clusters_rejected(self, tmp_path, capsys):
        tm, _ = synthetic_transfer_matrix(6, 2, 9, seed=0)
        scores = tmp_path / "scores.csv"
        fileio.write_transfer_csv(tm, scores)
        code, _, err = run(capsys, "cluster", "--scores", scores,
                           "--out", tmp_path / "p.json", "--clusters", 0)
        assert code == 2
        assert stderr_record(err)["error"] == "bad-K"


class TestLearningCommands:
    @pytest.fixture
    def pipeline(self, tmp_path, capsys):
        tasks = tmp_path / "tasks"
        run(capsys, "synth", "--out", tasks, "--n-tasks", 6, "--clusters", 2,
            "--dim", 5, "--seed", 2)
        part = tmp_path / "partition.json"
        membership = fileio.read_json(tasks / "membership.json")["membership"]
        fileio.write_json({"n": 6, "K": 2, "assignment": membership, "seed": 0}, part)
        return tasks, part

    def test_mtl_single_cluster_equals_pooled_training(self, tmp_path, capsys):
        tasks_dir = tmp_path / "tasks"
        run(capsys, "synth", "--out", tasks_dir, "--n-tasks", 4, "--clusters", 1,
            "--dim", 5, "--seed", 5)
        part = tmp_path / "partition.json"
        fileio.write_json({"n": 4, "K": 1, "assignment": [0, 0, 0, 0], "seed": 0}, part)
        report = tmp_path / "mtl.json"
        code, _, _ = run(capsys, "mtl", "--tasks", tasks_dir, "--partition", part,
                         "--out", report, "--kind", "shared_classifier",
                         "--epochs", 30, "--seed", 0)
        assert code == 0
        doc = fileio.read_json(report)
        tasks = fileio.read_task_dir(tasks_dir)
        pooled = train_cluster_models([tasks], "shared_classifier", TrainConfig(epochs=30, seed=0))[0]
        for row, ds in zip(doc["tasks"], tasks):
            X, y = ds.test
            acc = float(np.mean(pooled.predict_proba(X).argmax(axis=1) == y))
            assert row["task_id"] == ds.task_id
            assert row["accuracy"] == acc
            assert row["method"] == "mtl-shared_classifier"

    def test_fsl_reports_per_target_rows(self, pipeline, tmp_path, capsys):
        tasks, part = pipeline
        targets = tmp_path / "targets"
        run(capsys, "synth", "--out", targets, "--n-tasks", 2, "--clusters", 2,
            "--dim", 5, "--seed", 9)
        report = tmp_path / "fsl.json"
        code, _, _ = run(capsys, "fsl", "--tasks", tasks, "--partition", part,
                         "--targets", targets, "--out", report, "--shots", 2,
                         "--epochs", 30, "--seed", 0)
        assert code == 0
        doc = fileio.read_json(report)
        assert len(doc["tasks"]) == 2
        for row in doc["tasks"]:
            assert row["method"] == "fsl"
            assert len(row["alpha"]) == 2
            assert 0.0 <= row["accuracy"] <= 1.0
        assert doc["macro_accuracy"] == np.mean([r["accuracy"] for r in doc["tasks"]])

    def test_fsl_singleton_clusters_match_the_no_clustering_setup(self, pipeline, tmp_path, capsys):
        tasks, _ = pipeline
        part = tmp_path / "singletons.json"
        fileio.write_json({"n": 6, "K": 6, "assignment": list(range(6)), "seed": 0}, part)
        targets = tmp_path / "targets"
        run(capsys, "synth", "--out", targets, "--n-tasks", 2, "--clusters", 2,
            "--dim", 5, "--seed", 11)
        report = tmp_path / "fsl.json"
        code, _, _ = run(capsys, "fsl", "--tasks", tasks, "--partition", part,
                         "--targets", targets, "--out", report, "--shots", 2,
                         "--epochs", 20, "--seed", 0)
        assert code == 0
        doc = fileio.read_json(report)
        for row in doc["tasks"]:
            assert len(row["alpha"]) == 6

    def test_adaptive_flag_routes_through_the_fallback_logic(self, pipeline, tmp_path, capsys):
        tasks, part = pipeline
        targets = tmp_path / "targets"
        run(capsys, "synth", "--out", targets, "--n-tasks", 1, "--clusters", 1,
            "--dim", 5, "--seed", 13)
        report = tmp_path / "fsl.json"
        code, _, _ = run(capsys, "fsl", "--tasks", tasks, "--partition", part,
                         "--targets", targets, "--out", report, "--shots", 2,
                         "--epochs", 20, "--adaptive", "--threshold", 0.2, "--seed", 0)
        assert code == 0
        doc = fileio.read_json(report)
        assert all(row["method"] == "adaptive-fsl" for row in doc["tasks"])

    def test_an_empty_test_split_exits_two(self, pipeline, tmp_path, capsys):
        tasks, part = pipeline
        targets = tmp_path / "targets"
        run(capsys, "synth", "--out", targets, "--n-tasks", 2, "--clusters", 2,
            "--dim", 5, "--seed", 9)
        for path in (tasks / "task-003.json", targets / "task-001.json"):
            doc = fileio.read_json(path)
            doc["splits"]["test"] = []
            fileio.write_json(doc, path)
        models = ["--tasks", tasks, "--partition", part, "--epochs", 20, "--seed", 0]
        for argv in (["mtl"], ["mtl", "--kind", "shared_encoder_multihead"],
                     ["fsl", "--targets", targets, "--shots", 2],
                     ["fsl", "--targets", targets, "--shots", 2, "--adaptive"]):
            report = tmp_path / "report.json"
            code, _, err = run(capsys, *argv, *models, "--out", report)
            assert code == 2
            assert stderr_record(err)["error"] == "empty-split"
            assert not report.exists()

    def test_fsl_multihead_fails_before_training(self, pipeline, tmp_path, capsys, monkeypatch):
        tasks, part = pipeline
        targets = tmp_path / "targets"
        run(capsys, "synth", "--out", targets, "--n-tasks", 2, "--clusters", 2,
            "--dim", 5, "--seed", 9)

        def untrainable(*args, **kwargs):
            raise AssertionError("per-task heads cannot score an unseen target")

        monkeypatch.setattr(cli, "train_cluster_models", untrainable)
        argv = ["fsl", "--tasks", tasks, "--partition", part, "--targets", targets,
                "--shots", 2, "--epochs", 20, "--kind", "shared_encoder_multihead", "--seed", 0]
        code, _, err = run(capsys, *argv, "--out", tmp_path / "fsl.json")
        assert code == 2
        assert stderr_record(err)["error"] == "no-compatible-cluster"
        assert not (tmp_path / "fsl.json").exists()
        report = tmp_path / "adaptive.json"
        code, _, _ = run(capsys, *argv, "--out", report, "--adaptive")
        assert code == 0
        for row in fileio.read_json(report)["tasks"]:
            assert row["method"] == "adaptive-fsl" and row["alpha"] == []

    @pytest.mark.parametrize("flags, code_name", [
        (["--shots", 0], "bad-config"),
        (["--shots", 2, "--threshold", 1.5], "bad-threshold"),
        (["--shots", 2, "--threshold", 1.5, "--adaptive"], "bad-threshold"),
        (["--shots", 2, "--threshold", -0.1, "--adaptive"], "bad-threshold"),
    ], ids=["shots-0", "threshold-1.5", "adaptive-threshold-1.5", "adaptive-threshold-negative"])
    def test_fsl_rejects_a_bad_setting_before_training(self, pipeline, tmp_path, capsys,
                                                       monkeypatch, flags, code_name):
        tasks, part = pipeline
        targets = tmp_path / "targets"
        run(capsys, "synth", "--out", targets, "--n-tasks", 2, "--clusters", 2,
            "--dim", 5, "--seed", 9)

        def untrainable(*args, **kwargs):
            raise AssertionError("a cluster model trained before the settings were checked")

        monkeypatch.setattr(transfer, "_train_clusters", untrainable)
        report = tmp_path / "fsl.json"
        code, _, err = run(capsys, "fsl", "--tasks", tasks, "--partition", part,
                           "--targets", targets, "--out", report, *flags, "--seed", 0)
        assert code == 2
        assert stderr_record(err)["error"] == code_name
        assert not report.exists()


class TestSweep:
    def test_single_trial_probabilities_are_zero_or_one(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--out", out, "--n", 12, "--clusters", 2,
                         "--m1-fracs", "0.6,1.0", "--m2-fracs", "0.0",
                         "--trials", 1, "--seed", 0)
        assert code == 0
        cells = fileio.read_sweep_csv(out)
        assert len(cells) == 2
        assert all(c.prob in (0.0, 1.0) for c in cells)

    @pytest.mark.parametrize("argv, code_name", [
        (("--trials", 0), "bad-config"),
        (("--clusters", 0), "bad-sizes"),
        (("--m1-fracs", "nan"), "bad-config"),
        (("--m1-fracs", "0.5,inf"), "bad-config"),
        (("--m2-fracs", "nan"), "bad-config"),
    ], ids=["trials-0", "clusters-0", "m1-nan", "m1-inf", "m2-nan"])
    def test_a_bad_setting_exits_two_before_any_solve(self, argv, code_name, tmp_path, capsys,
                                                      monkeypatch):
        def unsolvable(*args, **kwargs):
            raise AssertionError("a bad setting must be reported before any solve")

        monkeypatch.setattr(bench, "recovery_trial", unsolvable)
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "sweep", "--out", out, "--n", 12, *argv, "--seed", 0)
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert stderr_record(err)["error"] == code_name
        assert not out.exists()

    def test_a_budget_outside_the_grid_exits_two_before_any_solve(self, tmp_path, capsys,
                                                                  monkeypatch):
        # The 0.2 cells are valid; the 1.5 cells ask for more than n^2 entries.
        solves = []
        solve = bench.complete

        def counted(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(bench, "complete", counted)
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "sweep", "--out", out, "--n", 30, "--trials", 5,
                           "--m1-fracs", "0.2,1.5", "--m2-fracs", "0.0,0.05")
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert stderr_record(err)["error"] == "bad-budget"
        assert not solves and not out.exists()

    def test_malformed_grid_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "sweep", "--out", tmp_path / "s.csv",
                           "--m1-fracs", "0.5,banana")
        assert code == 2
        assert stderr_record(err)["error"] == "bad-format"


class TestConfigPrecedence:
    def test_flags_override_config_sections(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        fileio.write_json(
            {"seed": 7, "synth": {"out": str(tmp_path / "from-config"),
                                  "n_tasks": 3, "clusters": 1, "dim": 3}},
            config,
        )
        override = tmp_path / "from-flag"
        code, _, _ = run(capsys, "synth", "--config", config, "--out", override)
        assert code == 0
        assert override.exists()
        assert not (tmp_path / "from-config").exists()
        assert len(list(override.glob("task-*.json"))) == 3

    def test_master_seed_drives_stage_seeds(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        out = tmp_path / "tasks"
        fileio.write_json(
            {"seed": 7, "synth": {"out": str(out), "n_tasks": 3, "clusters": 1, "dim": 3}},
            config,
        )
        code, _, _ = run(capsys, "synth", "--config", config)
        assert code == 0
        doc = fileio.read_json(out / "membership.json")
        assert doc["seed"] == stage_seed(7, "synth")

    @pytest.fixture
    def cluster_argv(self, tmp_path):
        tm, _ = synthetic_transfer_matrix(12, 3, 19, seed=0, sampling="anchored")
        scores = tmp_path / "scores.csv"
        fileio.write_transfer_csv(tm, scores)
        return ["cluster", "--scores", scores, "--clusters", 3, "--seed", 0]

    @pytest.mark.parametrize("key", ["tol", "max_iter"])
    def test_a_solver_flag_overrides_the_config_under_either_name(self, cluster_argv, tmp_path,
                                                                   capsys, key):
        """A solver setting has two names, the flag's (--solver-tol) and the
        config key (tol); the flag wins."""
        flag, bad, good = (("--solver-tol", 0.5, 1e-7) if key == "tol"
                           else ("--solver-max-iter", 1, 1000))
        config = tmp_path / "config.json"
        fileio.write_json({"cluster": {key: bad}}, config)
        runs = {}
        for tag, extra in (("config", ["--config", config]), ("flag-only", [])):
            diag = tmp_path / f"diag-{tag}.json"
            code, _, _ = run(capsys, *cluster_argv, *extra, flag, good,
                             "--out", tmp_path / f"p-{tag}.json", "--diagnostics", diag)
            assert code == 0
            runs[tag] = diag.read_bytes(), (tmp_path / f"p-{tag}.json").read_bytes()
        assert runs["config"] == runs["flag-only"]

    def test_config_must_hold_an_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2, 3]\n")
        code, _, err = run(capsys, "synth", "--config", config, "--out", tmp_path / "t")
        assert code == 2
        assert stderr_record(err)["error"] == "bad-format"


class TestConfigTypes:
    @pytest.fixture
    def argv(self, family_dir, tmp_path):
        """Per command, flags that set its required settings to valid inputs
        and its outputs to paths under tmp_path (the main one is "out")."""
        tm, _ = synthetic_transfer_matrix(12, 3, 19, seed=0, sampling="anchored")
        scores, partial, part = tmp_path / "scores.csv", tmp_path / "partial.csv", tmp_path / "p.json"
        fileio.write_transfer_csv(tm, scores)
        fileio.write_partial_csv(filter_scores(tm), partial)
        fileio.write_json({"n": 6, "K": 2, "assignment": [0, 0, 0, 1, 1, 1], "seed": 0}, part)
        out = tmp_path / "out"
        models = ["--tasks", family_dir, "--partition", part, "--out", out]
        return {
            "synth": ["--out", out],
            "estimate": ["--tasks", family_dir, "--out", out],
            "filter": ["--scores", scores, "--out", out],
            "complete": ["--similarity", partial, "--out-x", out, "--out-e", tmp_path / "E.csv",
                         "--diagnostics", tmp_path / "diag.json"],
            "cluster": ["--scores", scores, "--out", out, "--clusters", 2],
            "mtl": models,
            "fsl": models + ["--targets", family_dir],
            "sweep": ["--out", out],
        }

    @pytest.mark.parametrize("command, section", [
        ("synth", {"dim": "8"}),
        ("synth", {"opposed": 1}),
        ("estimate", {"lr": "0.1"}),
        ("estimate", {"pairs": 4.5}),
        ("estimate", {"pairs": "lots"}),
        ("filter", {"include_diagonal": "false"}),
        ("filter", {"p1": True}),
        ("complete", {"max_iter": 5.0}),
        ("complete", {"lam": "0.1"}),
        ("cluster", {"tol": "1e-3"}),
        ("cluster", {"p2": "0.5"}),
        ("mtl", {"epochs": "5"}),
        ("fsl", {"threshold": "0.2"}),
        ("fsl", {"shots": 2.0}),
    ])
    def test_a_value_of_the_wrong_type_exits_two(self, argv, tmp_path, capsys, command, section):
        config = tmp_path / "config.json"
        fileio.write_json({command: section}, config)
        code, _, err = run(capsys, command, "--config", config, *argv[command])
        assert code == 2
        record = stderr_record(err)
        assert record["error"] == "bad-config"
        assert repr(next(iter(section))) in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, section", [
        ("mtl", {"epoch": 1}),                      # a misspelt epochs
        ("mtl", {"reuse_source_classifier": True}),  # an estimate flag
        ("estimate", {"transfer_epochs": 50}),      # a field of no section's dataclass
        ("mtl", {"transfer_epochs": 50}),
        ("synth", {"valid_per_class": 8}),          # the split synth no longer draws
        ("fsl", {"steps": 1}),                      # the mixture fit's step count is no setting
        ("complete", {"lambda_override": 0.05}),
        ("filter", {"include_diagonal_in_stats": False}),  # the library's old name for include_diagonal
        ("sweep", {"tol": 1e-3}),                   # a solver setting sweep does not take
        ("filter", {"mode": "xl"}),                 # the filter has one rule
        ("cluster", {"mode": "xl"}),
    ], ids=["mtl-epoch", "mtl-reuse", "estimate-transfer_epochs", "mtl-transfer_epochs",
            "synth-valid_per_class", "fsl-steps",
            "complete-lambda_override", "filter-include_diagonal_in_stats", "sweep-tol",
            "filter-mode", "cluster-mode"])
    def test_a_key_no_setting_reads_exits_two(self, argv, tmp_path, capsys, command, section):
        config = tmp_path / "config.json"
        fileio.write_json({command: section}, config)
        code, _, err = run(capsys, command, "--config", config, *argv[command])
        assert code == 2
        record = stderr_record(err)
        assert record["error"] == "bad-config"
        assert repr(command) in record["message"] and repr(next(iter(section))) in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["complete", "cluster"])
    @pytest.mark.parametrize("key", ["rho0", "rho_growth", "solver_tol", "solver_max_iter"])
    def test_a_retired_solver_key_exits_two(self, argv, tmp_path, capsys, command, key):
        """The penalty schedule is fixed, and tol and max_iter are the only
        config names of the solver's settings: the penalty knobs and the
        second names that tol and max_iter had are unknown keys."""
        config = tmp_path / "config.json"
        fileio.write_json({command: {key: 2}}, config)
        code, _, err = run(capsys, command, "--config", config, *argv[command])
        assert code == 2
        record = stderr_record(err)
        assert record["error"] == "bad-config" and repr(key) in record["message"]
        assert not any((tmp_path / name).exists() for name in ("out", "E.csv", "diag.json"))

    @pytest.mark.parametrize("command", ["filter", "cluster"])
    def test_a_mode_flag_is_a_usage_error(self, argv, tmp_path, capsys, command):
        """The filter has one rule, so --mode is refused, not ignored."""
        with pytest.raises(SystemExit) as exc:
            main([command, *map(str, argv[command]), "--mode", "xl"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode xl" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_a_top_level_key_that_is_no_stage_exits_two(self, tmp_path, capsys):
        # Reported before any input is read: the scores file does not exist.
        config = tmp_path / "config.json"
        fileio.write_json({"seed": 7, "clustr": {"clusters": 3}}, config)
        code, _, err = run(capsys, "cluster", "--config", config, "--scores", tmp_path / "missing.csv",
                           "--out", tmp_path / "out", "--clusters", 3)
        assert code == 2
        record = stderr_record(err)
        assert record["error"] == "bad-config" and "'clustr'" in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(cli.SECTION_CLASSES))
    def test_a_section_may_set_every_field_of_its_dataclass(self, tmp_path, command):
        cls = cli.SECTION_CLASSES[command]
        section = {f.name: f.default for f in fields(cls)}
        config = tmp_path / "config.json"
        fileio.write_json({command: section}, config)
        args = cli.build_parser().parse_args([command, "--config", str(config)])
        assert section.items() <= cli._settings(args, command).items()

    def test_a_string_master_seed_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        fileio.write_json({"seed": "7"}, config)
        code, _, err = run(capsys, "synth", "--config", config, "--out", tmp_path / "out")
        assert code == 2
        assert stderr_record(err)["error"] == "bad-config"

    def test_an_int_fits_a_float_setting(self, tmp_path, capsys):
        tm, _ = synthetic_transfer_matrix(12, 3, 19, seed=0, sampling="anchored")
        scores = tmp_path / "scores.csv"
        fileio.write_transfer_csv(tm, scores)
        outs = []
        for tag, section, flags in (("config", {"p1": 1, "p2": 0}, []),
                                    ("flags", {}, ["--p1", "1.0", "--p2", "0.0"])):
            config, out = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
            fileio.write_json({"filter": section}, config)
            code, _, _ = run(capsys, "filter", "--config", config, "--scores", scores,
                             "--out", out, *flags)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_the_package_loads_only_numpy_and_the_standard_library():
    """numpy is the one declared dependency: importing the CLI in a fresh
    interpreter loads no other top-level module from outside the standard
    library (scipy is often installed, but the package must not use it)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; before = set(sys.modules); import taskclust.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(out.split())
    assert {"numpy", "taskclust"} <= loaded
    assert not loaded - {"numpy", "taskclust"} - sys.stdlib_module_names
