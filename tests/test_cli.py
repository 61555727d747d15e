"""End-to-end tests of the command-line pipeline, run in process."""

import json
from dataclasses import fields

import numpy as np
import pytest

from taskclust import bench, cli, fileio
from taskclust.cli import main, stage_seed
from taskclust.completion import complete_similarity
from taskclust.filtering import FilterParams, filter_scores
from taskclust.learning import train_cluster_model
from taskclust.spectral import adjusted_rand_index, spectral_cluster
from taskclust.synthdata import balanced_membership, synthetic_transfer_matrix
from taskclust.transfer import TrainConfig


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
        pairs): the default estimate scores separate the clusters."""
        tasks, scores, part = tmp_path / "tasks", tmp_path / "scores.csv", tmp_path / "p.json"
        for argv in (["synth", "--out", tasks, "--n-tasks", 48, "--clusters", 3, "--seed", 0],
                     ["estimate", "--tasks", tasks, "--out", scores, "--pairs", 300, "--seed", 1],
                     ["cluster", "--scores", scores, "--out", part, "--clusters", 3, "--seed", 2,
                      "--diagnostics", tmp_path / "diag.json"]):
            code, _, err = run(capsys, *argv)
            assert code == 0, err
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

    def test_xl_mode_flag_routes_to_the_disjunction_rule(self, scores_csv, tmp_path, capsys):
        out = tmp_path / "xl.csv"
        code, _, _ = run(capsys, "filter", "--scores", scores_csv, "--out", out,
                         "--mode", "xl", "--seed", 0)
        assert code == 0
        tm = fileio.read_transfer_csv(scores_csv)
        expected = filter_scores(tm, FilterParams(mode="xl"))
        ref = tmp_path / "ref.csv"
        fileio.write_partial_csv(expected, ref)
        assert out.read_bytes() == ref.read_bytes()

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

    def test_nonpositive_rho0_in_config_exits_two(self, scores_csv, tmp_path, capsys):
        sim, config = tmp_path / "sim.csv", tmp_path / "config.json"
        run(capsys, "filter", "--scores", scores_csv, "--out", sim, "--seed", 0)
        fileio.write_json({"complete": {"rho0": -1}}, config)
        code, _, err = run(capsys, "complete", "--config", config, "--similarity", sim,
                           "--out-x", tmp_path / "X.csv", "--out-e", tmp_path / "E.csv",
                           "--seed", 0)
        assert code == 2
        assert stderr_record(err)["error"] == "bad-rho0"
        assert not (tmp_path / "X.csv").exists()

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
        ((), {"rho_growth": float("nan")}, "bad-rho-growth"),
        ((), {"rho_growth": float("inf")}, "bad-rho-growth"),
    ], ids=["tol-inf", "tol-nan", "rho_growth-nan", "rho_growth-inf"])
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
        code, _, err = run(capsys, *args, "--solver-max-iter", 1)
        assert code == 3
        record = stderr_record(err)
        assert record["error"] == "no-convergence"
        assert record["message"].startswith("solver stopped after 1 iterations")
        assert not out.exists()
        iterations = {}  # the default tolerance takes 44 iterations, 1e-3 takes 21
        for tol in (1e-7, 1e-3):
            diag = tmp_path / f"diag-{tol}.json"
            code, _, _ = run(capsys, *args, "--solver-tol", tol, "--diagnostics", diag)
            assert code == 0
            iterations[tol] = fileio.read_json(diag)["iterations"]
        assert iterations[1e-3] < iterations[1e-7]

    def test_degenerate_laplacian_warns_without_changing_the_partition(self, tmp_path, capsys):
        # Four planted clusters asked for three: the Laplacian has four zero
        # eigenvalues, so eigenvalues 3 and 4 coincide and stderr warns.
        tm, _ = synthetic_transfer_matrix(16, 4, 40, seed=0, sampling="anchored")
        scores = tmp_path / "scores.csv"
        fileio.write_transfer_csv(tm, scores)
        diag = tmp_path / "diag.json"
        for K, degenerate in ((3, True), (4, False)):
            out = tmp_path / f"partition-{K}.json"
            code, _, err = run(capsys, "cluster", "--scores", scores, "--out", out,
                               "--clusters", K, "--exclude-diagonal", "--diagnostics", diag,
                               "--seed", 0)
            assert code == 0
            gap = fileio.read_json(diag)["laplacian_gap"]
            if degenerate:
                assert gap <= cli.LAPLACIAN_GAP_WARNING
                assert stderr_record(err)["warning"] == "degenerate-embedding"
            else:
                assert gap > 0.5 and err == ""
            ps = filter_scores(tm, FilterParams(include_diagonal_in_stats=False))
            X = complete_similarity(ps.values, ps.observed)[0]
            part = spectral_cluster(X, K, seed=0)
            assert fileio.read_partition_json(out).assignment.tolist() == part.assignment.tolist()
            assert part.laplacian_gap == gap

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
        pooled = train_cluster_model(tasks, "shared_classifier",
                                     TrainConfig(epochs=30, seed=0), cluster_id=0)
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

    @pytest.mark.parametrize("section", [
        {"solver_tol": 1e-3, "tol": 1e-9},
        {"tol": 1e-9, "solver_tol": 1e-3},
        {"solver_max_iter": 20, "max_iter": 1000},
        {"max_iter": 1000, "solver_max_iter": 20},
    ])
    def test_a_solver_setting_named_twice_exits_two(self, cluster_argv, tmp_path, capsys, section):
        config = tmp_path / "config.json"
        fileio.write_json({"cluster": section}, config)
        out = tmp_path / "p.json"
        code, _, err = run(capsys, *cluster_argv, "--config", config, "--out", out)
        assert code == 2
        record = stderr_record(err)
        assert record["error"] == "bad-config"
        assert all(repr(key) in record["message"] for key in section)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["tol", "solver_tol", "max_iter", "solver_max_iter"])
    def test_a_solver_flag_overrides_the_config_under_either_name(self, cluster_argv, tmp_path,
                                                                   capsys, key):
        flag, bad, good = (("--solver-tol", 0.5, 1e-7) if key.endswith("tol")
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
        ("complete", {"solver_max_iter": 5.0}),
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
        ("filter", {"include_diagonal_in_stats": False}),  # FilterParams' name for include_diagonal
        ("sweep", {"tol": 1e-3}),                   # a solver setting sweep does not take
    ], ids=["mtl-epoch", "mtl-reuse", "estimate-transfer_epochs", "mtl-transfer_epochs",
            "synth-valid_per_class", "fsl-steps",
            "complete-lambda_override", "filter-include_diagonal_in_stats", "sweep-tol"])
    def test_a_key_no_setting_reads_exits_two(self, argv, tmp_path, capsys, command, section):
        config = tmp_path / "config.json"
        fileio.write_json({command: section}, config)
        code, _, err = run(capsys, command, "--config", config, *argv[command])
        assert code == 2
        record = stderr_record(err)
        assert record["error"] == "bad-config"
        assert repr(command) in record["message"] and repr(next(iter(section))) in record["message"]
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
