"""Tests for planted-cluster score matrices and synthetic task families."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from taskclust.errors import InputError
from taskclust.seeding import derive_rng
from taskclust.synthdata import (
    FamilyConfig,
    _anchored_pairs,
    balanced_membership,
    cluster_prototypes,
    fewshot_from_dataset,
    make_adversarial_task,
    make_target_task,
    make_task_family,
    synthetic_transfer_matrix,
)


class TestMembership:
    def test_balanced_contiguous_blocks(self):
        m = balanced_membership(10, 3)
        assert m.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_even_split(self):
        m = balanced_membership(12, 3)
        assert np.bincount(m).tolist() == [4, 4, 4]
        assert np.all(np.diff(m) >= 0)

    def test_bad_K_rejected(self):
        for K in (0, 13):
            with pytest.raises(InputError) as exc:
                balanced_membership(12, K)
            assert exc.value.code == "bad-K"


class TestAnchoredPairs:
    def test_sample_is_an_upper_triangle_mask_within_budget(self):
        membership = balanced_membership(12, 3)
        pairs = _anchored_pairs(membership, 25, derive_rng(0, "t"))
        assert pairs.dtype == bool and pairs.shape == (12, 12)
        assert pairs.sum() == 25 and not np.tril(pairs).any()

    def test_every_task_gets_within_and_cross_pairs(self):
        membership = balanced_membership(12, 3)
        for seed in range(5):
            pairs = _anchored_pairs(membership, 25, derive_rng(seed, "t"))
            assert pairs.sum() <= 25
            linked = pairs | pairs.T
            for t in range(12):
                partners = np.flatnonzero(linked[t])
                assert any(membership[q] == membership[t] for q in partners)
                assert any(membership[q] != membership[t] for q in partners)

    def test_within_cluster_pairs_connect_each_cluster(self):
        """The within-cluster pairs form a connected graph on every cluster."""
        membership = balanced_membership(9, 3)
        pairs = _anchored_pairs(membership, 14, derive_rng(0, "t"))
        for c in range(3):
            members = set(np.flatnonzero(membership == c).tolist())
            reached = {min(members)}
            frontier = True
            while frontier:
                frontier = False
                for i, j in zip(*(idx.tolist() for idx in np.nonzero(pairs))):
                    if i in members and j in members and (i in reached) != (j in reached):
                        reached |= {i, j}
                        frontier = True
            assert reached == members

    def test_infeasible_budget_rejected(self):
        membership = balanced_membership(12, 3)
        with pytest.raises(InputError) as exc:
            _anchored_pairs(membership, 5, derive_rng(0, "t"))
        assert exc.value.code == "infeasible-budget"

    def test_budget_above_every_pair_rejected(self):
        membership = balanced_membership(6, 2)
        with pytest.raises(InputError) as exc:
            _anchored_pairs(membership, 16, derive_rng(0, "t"))
        assert exc.value.code == "budget-too-large"
        assert exc.value.message == "asked for 16 pairs but only 15 exist"
        with pytest.raises(InputError) as exc:
            synthetic_transfer_matrix(6, 2, 100, sampling="anchored")
        assert exc.value.code == "budget-too-large"

    def test_budget_of_every_pair_returns_every_pair(self):
        membership = balanced_membership(6, 2)
        pairs = _anchored_pairs(membership, 15, derive_rng(0, "t"))
        assert np.array_equal(pairs, np.triu(np.ones((6, 6), dtype=bool), 1))

    def test_one_cluster_is_a_spanning_path_plus_uniform_draws(self):
        """A one-cluster plant has no cross-cluster pair to draw, so the
        budget is a random path through every task and then uniform draws."""
        membership = balanced_membership(6, 1)
        path = derive_rng(0, "t").permutation(6)
        on_path = np.zeros((6, 6), dtype=bool)
        on_path[np.minimum(path[:-1], path[1:]), np.maximum(path[:-1], path[1:])] = True
        for budget in (5, 9):  # the path alone, then the path and 4 uniform draws
            pairs = _anchored_pairs(membership, budget, derive_rng(0, "t"))
            assert pairs.sum() == budget and not np.tril(pairs).any()
            assert (pairs >= on_path).all()
        with pytest.raises(InputError) as exc:
            _anchored_pairs(membership, 4, derive_rng(0, "t"))
        assert exc.value.code == "infeasible-budget"
        tm, plant = synthetic_transfer_matrix(4, 1, 5, sampling="anchored")
        assert np.triu(tm.observed, 1).sum() == 5 and not plant.any()


class TestSyntheticTransferMatrix:
    @pytest.mark.parametrize("sampling, scores_sha, observed_sha", [
        ("anchored", "33c9935b6958127a3f51c94861a79af40d8d422fd26b0c1ad69fc55d2c94f504",
         "deea38577d535391debbfb2c7d0d6d0d94fc8b0d81e09538ff062cf2a1c35261"),
        ("uniform", "345b200f0f8bc3e6307accdd35cdf368b3db05590221e650cf0647bb6e4c53a4",
         "11eb94141a726c18254d957487c0346dcad032aa4b0412425dd3c3d5a1d3773b"),
    ])
    def test_matrix_matches_recorded_draws(self, sampling, scores_sha, observed_sha):
        """Pinned bytes: a rewrite of the pair samplers or the score draw must reproduce them."""
        tm, _ = synthetic_transfer_matrix(24, 3, 60, seed=7, sampling=sampling)
        assert hashlib.sha256(tm.scores.tobytes()).hexdigest() == scores_sha
        assert hashlib.sha256(tm.observed.tobytes()).hexdigest() == observed_sha

    def test_observation_count_matches_budget(self):
        tm, membership = synthetic_transfer_matrix(12, 3, 20, seed=0)
        assert tm.observed.sum() == 2 * 20 + 12
        assert membership.tolist() == balanced_membership(12, 3).tolist()

    def test_scores_concentrate_on_planted_levels(self):
        tm, membership = synthetic_transfer_matrix(
            18, 3, 100, seed=1, within=(0.9, 0.05), cross=(0.1, 0.05)
        )
        off = ~np.eye(18, dtype=bool)
        same = membership[:, None] == membership[None, :]
        within_scores = tm.scores[tm.observed & off & same]
        cross_scores = tm.scores[tm.observed & off & ~same]
        assert within_scores.size and cross_scores.size
        assert abs(within_scores.mean() - 0.9) < 0.05
        assert abs(cross_scores.mean() - 0.1) < 0.05
        assert within_scores.min() > cross_scores.max()

    def test_scores_stay_in_unit_interval_under_huge_noise(self):
        tm, _ = synthetic_transfer_matrix(10, 2, 30, seed=3, within=(0.5, 10.0), cross=(0.5, 10.0))
        obs = tm.scores[tm.observed]
        assert obs.min() >= 0.0 and obs.max() <= 1.0

    def test_generation_is_deterministic(self):
        a, _ = synthetic_transfer_matrix(10, 2, 15, seed=9)
        b, _ = synthetic_transfer_matrix(10, 2, 15, seed=9)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.observed, b.observed)

    def test_anchored_sampling_keeps_every_task_connected(self):
        tm, membership = synthetic_transfer_matrix(12, 3, 15, seed=2, sampling="anchored")
        off = ~np.eye(12, dtype=bool)
        same = membership[:, None] == membership[None, :]
        for t in range(12):
            row = tm.observed[t] & off[t]
            assert (row & same[t]).any() and (row & ~same[t]).any()

    def test_bad_sampling_mode_rejected(self):
        with pytest.raises(InputError) as exc:
            synthetic_transfer_matrix(10, 2, 15, sampling="greedy")
        assert exc.value.code == "bad-config"


class TestPrototypes:
    def test_opposed_prototypes_are_cyclic_rolls_of_one_base(self):
        fc = FamilyConfig(dim=6, label_count=4)
        protos = cluster_prototypes(3, fc, seed=5, opposed=True)
        assert protos.shape == (3, 4, 6)
        for c in range(3):
            assert np.array_equal(protos[c], np.roll(protos[0], c, axis=0))

    def test_opposed_needs_enough_labels(self):
        fc = FamilyConfig(dim=4, label_count=2)
        with pytest.raises(InputError) as exc:
            cluster_prototypes(3, fc, seed=0, opposed=True)
        assert exc.value.code == "bad-K"

    def test_prototypes_ignore_split_sizes_and_task_noise(self):
        """Prototype draws depend only on geometry fields, so a family and a
        target config that differ in task_noise or split sizes share them."""
        fc = FamilyConfig(dim=10, label_count=3, task_noise=0.7)
        fc_tgt = replace(fc, task_noise=0.15, train_per_class=4)
        a = cluster_prototypes(2, fc, seed=11)
        b = cluster_prototypes(2, fc_tgt, seed=11)
        assert np.array_equal(a, b)

    def test_separation_scales_prototypes_linearly(self):
        fc1 = FamilyConfig(dim=5, label_count=3, separation=1.0)
        fc2 = replace(fc1, separation=2.5)
        a = cluster_prototypes(2, fc1, seed=3)
        b = cluster_prototypes(2, fc2, seed=3)
        assert np.allclose(b, 2.5 * a)


class TestTaskFamilies:
    def test_family_shapes_and_ids(self):
        fc = FamilyConfig(dim=4, label_count=2, train_per_class=3, test_per_class=2)
        tasks, membership = make_task_family(5, 2, fc, seed=0)
        assert len(tasks) == 5
        assert membership.tolist() == [0, 0, 0, 1, 1]
        for t, ds in enumerate(tasks):
            assert ds.task_id == f"task{t:03d}"
            assert ds.train[0].shape == (6, 4)
            assert ds.test[0].shape == (4, 4)
            assert np.bincount(ds.train[1], minlength=2).tolist() == [3, 3]

    def test_family_generation_is_deterministic(self):
        a, _ = make_task_family(4, 2, seed=7)
        b, _ = make_task_family(4, 2, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.train[0], y.train[0])
            assert np.array_equal(x.train[1], y.train[1])

    def test_low_noise_tasks_sit_on_their_prototype(self):
        fc = FamilyConfig(dim=6, label_count=3, train_per_class=200,
                          task_noise=0.0, sample_spread=0.01)
        tasks, membership = make_task_family(4, 2, fc, seed=3)
        protos = cluster_prototypes(2, fc, seed=3)
        for ds, c in zip(tasks, membership):
            X, y = ds.train
            for l in range(3):
                class_mean = X[y == l].mean(axis=0)
                assert np.linalg.norm(class_mean - protos[c, l]) < 0.01

    def test_target_task_draws_from_the_shared_prototype(self):
        fc = FamilyConfig(dim=6, label_count=3, train_per_class=200,
                          task_noise=0.0, sample_spread=0.01)
        protos = cluster_prototypes(2, fc, seed=3)
        tgt = make_target_task(1, 2, fc, seed=3, tag=4)
        assert tgt.task_id == "target-c1-4"
        X, y = tgt.train
        for l in range(3):
            assert np.linalg.norm(X[y == l].mean(axis=0) - protos[1, l]) < 0.01

    def test_opposed_target_shares_opposed_prototypes(self):
        fc = FamilyConfig(dim=6, label_count=3, train_per_class=100,
                          task_noise=0.0, sample_spread=0.01)
        protos = cluster_prototypes(2, fc, seed=9, opposed=True)
        tgt = make_target_task(1, 2, fc, seed=9, tag=0, opposed=True)
        X, y = tgt.train
        for l in range(3):
            assert np.linalg.norm(X[y == l].mean(axis=0) - protos[1, l]) < 0.01

    def test_target_cluster_out_of_range(self):
        with pytest.raises(InputError) as exc:
            make_target_task(3, 2, seed=0)
        assert exc.value.code == "bad-K"

    def test_adversarial_task_rotates_the_label_names(self):
        """With noise off, adversarial class l sits on the prototype of the
        previous label, so every cluster model misnames its classes."""
        fc = FamilyConfig(dim=6, label_count=3, train_per_class=100,
                          task_noise=0.0, sample_spread=0.01)
        protos = cluster_prototypes(2, fc, seed=4)
        adv = make_adversarial_task(0, 2, fc, seed=4, tag=1)
        assert adv.task_id == "adversarial-c0-1"
        X, y = adv.train
        for l in range(3):
            class_mean = X[y == l].mean(axis=0)
            assert np.linalg.norm(class_mean - protos[0, (l - 1) % 3]) < 0.01
            assert np.linalg.norm(class_mean - protos[0, l]) > 0.5


class TestFewShot:
    def test_support_counts_and_query_identity(self):
        """The few-shot task is ds with `shots` training rows per label as its
        train split (the support set) and ds's test split as the query set."""
        fc = FamilyConfig(dim=4, label_count=3, train_per_class=10)
        ds = make_target_task(0, 2, fc, seed=0)
        fs = fewshot_from_dataset(ds, shots=2, seed=1)
        Xs, ys = fs.train
        assert np.bincount(ys, minlength=3).tolist() == [2, 2, 2]
        assert (fs.task_id, fs.label_count) == (ds.task_id, 3)
        assert np.array_equal(fs.test[0], ds.test[0])
        assert np.array_equal(fs.test[1], ds.test[1])

    def test_support_rows_come_from_the_training_split(self):
        ds = make_target_task(0, 2, FamilyConfig(dim=4), seed=2)
        fs = fewshot_from_dataset(ds, shots=3, seed=5)
        train_rows = {row.tobytes() for row in ds.train[0]}
        for row in fs.train[0]:
            assert row.tobytes() in train_rows

    def test_sampling_is_deterministic_and_seed_sensitive(self):
        ds = make_target_task(0, 2, FamilyConfig(dim=4, train_per_class=20), seed=3)
        a = fewshot_from_dataset(ds, shots=2, seed=9)
        b = fewshot_from_dataset(ds, shots=2, seed=9)
        c = fewshot_from_dataset(ds, shots=2, seed=10)
        assert np.array_equal(a.train[0], b.train[0])
        assert not np.array_equal(a.train[0], c.train[0])

    def test_too_many_shots_rejected(self):
        fc = FamilyConfig(dim=4, label_count=2, train_per_class=2)
        ds = make_target_task(0, 2, fc, seed=0)
        with pytest.raises(InputError) as exc:
            fewshot_from_dataset(ds, shots=3)
        assert exc.value.code == "no-support"

    def test_nonpositive_shots_rejected(self):
        ds = make_target_task(0, 2, FamilyConfig(dim=4), seed=0)
        with pytest.raises(InputError) as exc:
            fewshot_from_dataset(ds, shots=0)
        assert exc.value.code == "bad-config"


def test_synthdata_does_not_import_learning():
    """The data generators sit below the learning layer: importing them in a
    fresh interpreter leaves taskclust.learning unloaded."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, taskclust.synthdata; print('taskclust.learning' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
