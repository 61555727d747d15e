import ctypes
import multiprocessing
import os
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskclust import bench
from taskclust.bench import (
    TrialResult,
    equal_sizes,
    generate_planted,
    minimal_m1_for_recovery,
    observe_and_corrupt,
    phase_sweep,
    recovery_trial,
)
from taskclust.errors import InputError, NumericalError
from taskclust.seeding import derive_rng


def test_planted_structure_and_singular_values():
    inst = generate_planted(6, 2, (3, 3), seed=0)
    s = np.linalg.svd(inst.X_star, compute_uv=False)
    assert np.allclose(s, [3, 3, 0, 0, 0, 0], atol=1e-12)
    assert np.array_equal(inst.membership, [0, 0, 0, 1, 1, 1])


def test_planted_extremes():
    ones = generate_planted(5, 1, (5,), seed=0)
    assert np.array_equal(ones.X_star, np.ones((5, 5)))
    singletons = generate_planted(4, 4, (1, 1, 1, 1), seed=0)
    assert np.array_equal(singletons.X_star, np.eye(4))


def test_planted_rank_invariant():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(6, 61))
        k = int(rng.integers(1, min(n, 8) + 1))
        sizes = equal_sizes(n, k)
        inst = generate_planted(n, k, sizes, seed=int(rng.integers(1 << 30)))
        s = np.linalg.svd(inst.X_star, compute_uv=False)
        assert int((s > 1e-9 * s[0]).sum()) == k


def test_bad_sizes():
    with pytest.raises(InputError) as err:
        generate_planted(6, 2, (3, 2), seed=0)
    assert err.value.code == "bad-sizes"


def test_observation_counts_and_flips():
    inst = generate_planted(12, 3, (4, 4, 4), seed=1)
    plan = observe_and_corrupt(inst, m1=100, m2=6, seed=1)
    assert int(plan.omega.sum()) == 100
    assert int(plan.delta.sum()) == 6
    assert (plan.delta & ~plan.omega).sum() == 0
    diff = (plan.Y != inst.X_star) & plan.omega
    assert int(diff.sum()) == 6  # Hamming distance equals m2 exactly
    assert np.array_equal(plan.Y[plan.omega & ~plan.delta], inst.X_star[plan.omega & ~plan.delta])


def test_no_corruption_matches_plant():
    inst = generate_planted(10, 2, (5, 5), seed=2)
    plan = observe_and_corrupt(inst, m1=60, m2=0, seed=2)
    assert np.array_equal(plan.Y[plan.omega], inst.X_star[plan.omega])
    full = observe_and_corrupt(inst, m1=100, m2=0, seed=2)
    assert full.omega.all()
    assert np.array_equal(full.Y, inst.X_star)


def test_observation_masks_are_symmetric():
    inst = generate_planted(11, 3, (4, 4, 3), seed=3)
    plan = observe_and_corrupt(inst, m1=77, m2=5, seed=3)
    assert np.array_equal(plan.omega, plan.omega.T)
    assert np.array_equal(plan.delta, plan.delta.T)


def test_odd_budgets_are_always_satisfiable():
    # any odd m1 <= n^2 can mix diagonal cells with mirrored pairs
    inst = generate_planted(4, 2, (2, 2), seed=0)
    for m1 in (1, 7, 15):
        for seed in range(10):
            plan = observe_and_corrupt(inst, m1=m1, m2=0, seed=seed)
            assert int(plan.omega.sum()) == m1


def test_an_all_pairs_draw_still_flips_an_odd_count():
    # seed picked so the two observed positions would be one mirrored pair;
    # the draw trades it for the two diagonal cells, one of which is flipped
    inst = generate_planted(2, 2, (1, 1), seed=0)
    plan = observe_and_corrupt(inst, m1=2, m2=1, seed=2)
    assert int(plan.omega.sum()) == 2
    assert int(plan.delta.sum()) == 1


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_every_budget_in_range_is_drawn_exactly(data, n, seed):
    m1 = data.draw(st.integers(0, n * n), label="m1")
    m2 = data.draw(st.integers(0, m1), label="m2")
    plan = observe_and_corrupt(generate_planted(n, 1, (n,), seed=0), m1, m2, seed=seed)
    assert int(plan.omega.sum()) == m1
    assert int(plan.delta.sum()) == m2
    assert np.array_equal(plan.omega, plan.omega.T)
    assert np.array_equal(plan.delta, plan.delta.T)
    assert not (plan.delta & ~plan.omega).any()


def test_recovery_trial_full_observation():
    inst = generate_planted(12, 3, (4, 4, 4), seed=7)
    trial = recovery_trial(inst, m1=144, m2=0, seed=7)
    assert trial.recovered
    assert trial.max_abs_err < 1e-3


def test_recovery_fails_below_information_limit():
    # fewer observed-clean entries than one row's worth cannot pin n^2 values
    inst = generate_planted(12, 3, (4, 4, 4), seed=8)
    failures = 0
    for seed in range(20):
        trial = recovery_trial(inst, m1=10, m2=0, seed=seed)
        failures += not trial.recovered
    assert failures >= 18


def test_phase_sweep_grid_and_monotonicity():
    cells = phase_sweep(12, 3, (0.35, 0.7, 1.0), (0.0,), trials=4, seed=0)
    assert len(cells) == 3
    clean_full = cells[-1]
    assert clean_full.m1 == 144 and clean_full.prob == 1.0
    probs = [c.prob for c in cells]
    for lo, hi in zip(probs, probs[1:]):
        assert hi >= lo - 2 / 4  # allow Monte-Carlo noise of 2 trials


def test_phase_sweep_empty_grid():
    with pytest.raises(InputError) as err:
        phase_sweep(10, 2, (), (0.0,), trials=2, seed=0)
    assert err.value.code == "empty-grid"


@pytest.fixture
def two_cpus(monkeypatch):
    """phase_sweep sees two usable CPUs, so it pools its trials wherever it can."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def openblas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or None without one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return lib.scipy_openblas_get_num_threads64_()
    return None


def test_task_errors_survive_pickling():
    for error in (InputError("empty-mask", "no observed entries"), NumericalError("diverged", "x")):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert (copy.code, copy.message, str(copy)) == (error.code, error.message, str(error))


def test_sweep_trials_run_in_forked_single_thread_workers(two_cpus, monkeypatch):
    if bench._blas_thread_setter() is None:
        pytest.skip("numpy has no bundled OpenBLAS here, so the sweep runs serially")
    parent = os.getpid()
    monkeypatch.setattr(bench, "recovery_trial", lambda *a, **k: TrialResult(
        recovered=os.getpid() != parent and openblas_threads() == 1, max_abs_err=0.0))
    cells = phase_sweep(12, 3, (0.5, 1.0), (0.0,), trials=3, seed=0)
    assert [c.recovered_count for c in cells] == [3, 3]
    assert not multiprocessing.active_children()


def test_phase_sweep_leaves_no_worker_running(two_cpus, monkeypatch):
    phase_sweep(12, 3, (0.5, 1.0), (0.0,), trials=3, seed=0)
    assert not multiprocessing.active_children()

    def fails(*args, **kwargs):
        raise ValueError("a trial failed")

    monkeypatch.setattr(bench, "recovery_trial", fails)
    with pytest.raises(ValueError, match="a trial failed"):
        phase_sweep(12, 3, (0.5, 1.0), (0.0,), trials=3, seed=0)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("serial", ["one-cpu", "no-thread-setter"])
def test_the_serial_fallback_gives_the_pooled_cells(serial, two_cpus, monkeypatch):
    grid = dict(n=12, k=3, m1_fracs=(0.35, 0.7, 1.0), m2_fracs=(0.0, 0.05), trials=3, seed=0)
    pooled = phase_sweep(**grid)
    counts = [c.recovered_count for c in pooled]
    assert 0 in counts and 3 in counts  # recovered and failed cells both
    if serial == "one-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.setattr(bench, "_blas_thread_setter", lambda: None)
    monkeypatch.setattr(multiprocessing, "get_context", None)  # a pool would fail
    assert phase_sweep(**grid) == pooled


def test_minimal_m1_bisection_small():
    m1 = minimal_m1_for_recovery(12, 3, lam=1.0, trials=4, seed=0, target_prob=0.75)
    assert 12 <= m1 <= 144
    # the bound it returns actually achieves the target probability
    inst = generate_planted(12, 3, equal_sizes(12, 3), seed=0)
    wins = sum(
        recovery_trial(inst, m1, 0, lam=1.0, seed=1000 + t).recovered for t in range(4)
    )
    assert wins / 4 >= 0.75


@pytest.mark.parametrize("target", [0.5, 0.75])
def test_minimal_m1_probes_stop_once_decided(target, monkeypatch):
    n, trials = 12, 4
    inst = generate_planted(n, 3, equal_sizes(n, 3), seed=0)

    def rate(m1):  # the full probe: every trial runs
        seeds = (int(derive_rng(0, "min-m1", m1, t).integers(2**63)) for t in range(trials))
        return sum(recovery_trial(inst, m1, 0, lam=1.0, seed=s).recovered for s in seeds) / trials

    lo, hi, probes = n, n * n, 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if rate(mid) >= target else (mid, hi)
        probes += 1

    calls = []
    trial = bench.recovery_trial
    monkeypatch.setattr(bench, "recovery_trial", lambda *a, **k: calls.append(1) or trial(*a, **k))
    assert minimal_m1_for_recovery(n, 3, target_prob=target, trials=trials, seed=0, lam=1.0) == hi
    assert len(calls) < probes * trials
