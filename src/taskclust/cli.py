"""Command-line pipeline driver.

Each subcommand wraps one pipeline stage and reads its settings from an
optional JSON config file (one section per stage) with command-line flags
taking precedence. All randomness derives from a single master seed that is
split per stage, so any command rerun with the same config writes
byte-identical artifacts.

Exit codes: 0 success, 2 bad input or configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .bench import phase_sweep
from .completion import SolverConfig, complete_similarity
from .errors import InputError, NumericalError, TaskClustError
from .filtering import MODES, FilterParams, filter_scores
from .learning import (
    KINDS,
    PER_TASK_KINDS,
    TrainConfig,
    adaptive_fsl,
    fsl_combine,
    train_cluster_models,
)
from .seeding import derive_rng
from .spectral import spectral_cluster
from .synthdata import FamilyConfig, fewshot_from_dataset, make_task_family
from .transfer import build_transfer_matrix, sample_task_pairs

STAGES = ("synth", "estimate", "filter", "complete", "cluster", "mtl", "fsl", "sweep")


def stage_seed(master: int, stage: str) -> int:
    """Deterministic per-stage seed derived from the master seed."""
    return int(derive_rng(master, "cli", stage).integers(2**31))


def _load_config(path) -> dict:
    if path is None:
        return {}
    doc = fileio.read_json(path)
    if not isinstance(doc, dict):
        raise InputError("bad-format", f"{path} must hold a JSON object")
    return doc


def _settings(args, stage: str, *required: str) -> dict:
    """Stage settings: config-file section overridden by explicit flags.

    Every name in ``required`` must be set by one or the other.
    """
    config = _load_config(args.config)
    section = config.get(stage, {})
    if not isinstance(section, dict):
        raise InputError("bad-format", f"config section {stage!r} must be an object")
    merged = dict(section)
    for key, value in vars(args).items():
        if key in ("config", "command", "func") or value is None:
            continue
        merged[key] = value
    for key in required:
        if key not in merged:
            raise InputError("missing-setting", f"required setting {key!r} was not provided")
    if "seed" not in merged:
        merged["seed"] = stage_seed(int(config.get("seed", 0)), stage)
    return merged


def _pick(settings: dict, cls, **renames):
    """Build a config dataclass from the matching keys of ``settings``."""
    fields = cls.__dataclass_fields__
    kwargs = {}
    for key, value in settings.items():
        name = renames.get(key, key)
        if name in fields:
            kwargs[name] = value
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    s = _settings(args, "synth", "out")
    fc = _pick(s, FamilyConfig)
    out = Path(s["out"])
    out.mkdir(parents=True, exist_ok=True)
    tasks, membership = make_task_family(
        int(s.get("n_tasks", 12)),
        int(s.get("clusters", 3)),
        fc,
        seed=int(s["seed"]),
        opposed=bool(s.get("opposed", False)),
    )
    for t, ds in enumerate(tasks):
        fileio.write_task_json(ds, out / f"task-{t:03d}.json")
    fileio.write_json(
        {"n_tasks": len(tasks), "clusters": int(s.get("clusters", 3)),
         "membership": membership, "seed": int(s["seed"])},
        out / "membership.json",
    )
    print(f"wrote {len(tasks)} tasks to {out}")
    return 0


def cmd_estimate(args) -> int:
    s = _settings(args, "estimate", "tasks", "out")
    tasks = fileio.read_task_dir(s["tasks"])
    n = len(tasks)
    budget = s.get("pairs")
    if budget in (None, "all"):
        pairs = set(itertools.combinations(range(n), 2))
    else:
        pairs = sample_task_pairs(n, int(budget), seed=int(s["seed"]))
    config = _pick(s, TrainConfig)
    tm = build_transfer_matrix(tasks, pairs, config)
    fileio.write_transfer_csv(tm, s["out"])
    print(f"estimated {len(pairs)} pairs over {n} tasks -> {s['out']}")
    return 0


def _filter_params(s: dict) -> FilterParams:
    return FilterParams(
        p1=float(s.get("p1", 0.5)),
        p2=float(s.get("p2", 0.5)),
        mode=str(s.get("mode", "standard")),
        include_diagonal_in_stats=bool(s.get("include_diagonal", True)),
    )


def cmd_filter(args) -> int:
    s = _settings(args, "filter", "scores", "out")
    tm = fileio.read_transfer_csv(s["scores"])
    ps = filter_scores(tm, _filter_params(s))
    fileio.write_partial_csv(ps, s["out"])
    kept = int(ps.observed.sum() - ps.n)
    print(f"kept {kept} off-diagonal entries of {ps.n}x{ps.n} -> {s['out']}")
    return 0


def _solve(ps, s: dict):
    solver = _pick(s, SolverConfig, solver_tol="tol", solver_max_iter="max_iter")
    X, clipped, result = complete_similarity(ps.values, ps.observed, s.get("lam"), solver)
    if not result.converged:
        raise NumericalError(
            "no-convergence",
            f"solver stopped after {result.iterations} iterations "
            f"with residual {result.final_residual:.3e}",
        )
    diagnostics = {
        "iterations": result.iterations,
        "final_residual": result.final_residual,
        "converged": result.converged,
        "lambda": result.lam,
        "clipped_fraction": clipped,
        "rho_final": result.rho_final,
        "x_rank": result.x_rank,
        "e_support": result.e_support,
        "full_steps": result.full_steps,
    }
    return X, result, diagnostics


def cmd_complete(args) -> int:
    s = _settings(args, "complete", "similarity", "out_x", "out_e")
    ps = fileio.read_partial_csv(s["similarity"])
    X, result, diagnostics = _solve(ps, s)
    fileio.write_dense_csv(X, s["out_x"])
    fileio.write_dense_csv(result.E, s["out_e"])
    fileio.write_json(diagnostics, s.get("diagnostics", "diagnostics.json"))
    print(
        f"completed {ps.n}x{ps.n} in {result.iterations} iterations, "
        f"residual {result.final_residual:.3e}"
    )
    return 0


def cmd_cluster(args) -> int:
    s = _settings(args, "cluster", "scores", "out")
    K = int(s.get("clusters", 0))
    if K < 1:
        raise InputError("bad-K", "clusters must be >= 1")
    tm = fileio.read_transfer_csv(s["scores"])
    ps = filter_scores(tm, _filter_params(s))
    X, result, diagnostics = _solve(ps, s)
    part = spectral_cluster(X, K, seed=int(s["seed"]))
    fileio.write_partition_json(part, s["out"])
    fileio.write_json(diagnostics, s.get("diagnostics", "diagnostics.json"))
    print(f"partitioned {ps.n} tasks into {K} clusters -> {s['out']}")
    return 0


def _cluster_members(tasks, part):
    if part.n != len(tasks):
        raise InputError("bad-shape", "partition size does not match task count")
    return [[tasks[i] for i in part.members(k)] for k in range(part.K)]


def cmd_mtl(args) -> int:
    s = _settings(args, "mtl", "tasks", "partition", "out")
    tasks = fileio.read_task_dir(s["tasks"])
    part = fileio.read_partition_json(s["partition"])
    kind = str(s.get("kind", "shared_classifier"))
    config = _pick(s, TrainConfig)
    clusters = _cluster_members(tasks, part)
    rows = []
    for members, model in zip(clusters, train_cluster_models(clusters, kind, config)):
        for ds in members:
            X, y = ds.test
            proba = model.predict_proba(X, task_id=ds.task_id, support=ds.train)
            rows.append(
                {"task_id": ds.task_id, "method": f"mtl-{kind}",
                 "accuracy": float(np.mean(proba.argmax(axis=1) == y)), "alpha": []}
            )
    rows.sort(key=lambda r: r["task_id"])
    macro = float(np.mean([r["accuracy"] for r in rows]))
    fileio.write_json({"tasks": rows, "macro_accuracy": macro}, s["out"])
    print(f"mtl {kind}: macro accuracy {macro:.4f} over {len(rows)} tasks -> {s['out']}")
    return 0


def cmd_fsl(args) -> int:
    s = _settings(args, "fsl", "tasks", "partition", "targets", "out")
    tasks = fileio.read_task_dir(s["tasks"])
    part = fileio.read_partition_json(s["partition"])
    targets = fileio.read_task_dir(s["targets"])
    kind = str(s.get("kind", "shared_classifier"))
    config = _pick(s, TrainConfig)
    shots = int(s.get("shots", 5))
    adaptive = bool(s.get("adaptive", False))
    threshold = float(s.get("threshold", 0.20))
    clusters = _cluster_members(tasks, part)
    if kind in PER_TASK_KINDS:
        # Per-task heads cannot score an unseen target: train nothing.
        if not adaptive:
            raise InputError("no-compatible-cluster",
                             f"{kind} cluster models cannot score an unseen task")
        models = []
    else:
        models = train_cluster_models(clusters, kind, config)
    rows = []
    for ds in targets:
        fs = fewshot_from_dataset(ds, shots=shots, seed=int(s["seed"]))
        if adaptive:
            predictor = adaptive_fsl(models, fs, threshold=threshold, fallback_config=config)
            method = "adaptive-fsl"
        else:
            _, predictor = fsl_combine(models, fs)
            method = "fsl"
        alpha = [] if predictor.used_fallback else predictor.weights.alpha
        rows.append(
            {"task_id": ds.task_id, "method": method,
             "accuracy": predictor.accuracy(*fs.query), "alpha": alpha}
        )
    rows.sort(key=lambda r: r["task_id"])
    macro = float(np.mean([r["accuracy"] for r in rows]))
    fileio.write_json({"tasks": rows, "macro_accuracy": macro}, s["out"])
    print(f"fsl: macro accuracy {macro:.4f} over {len(rows)} targets -> {s['out']}")
    return 0


def cmd_sweep(args) -> int:
    s = _settings(args, "sweep", "out")
    cells = phase_sweep(
        n=int(s.get("n", 30)),
        k=int(s.get("clusters", 3)),
        m1_fracs=_fracs(s.get("m1_fracs", "0.2,0.4,0.6,0.8,1.0")),
        m2_fracs=_fracs(s.get("m2_fracs", "0.0,0.05")),
        trials=int(s.get("trials", 5)),
        seed=int(s["seed"]),
        lam=float(s["lam"]) if s.get("lam") is not None else None,
    )
    fileio.write_sweep_csv(cells, s["out"])
    print(f"swept {len(cells)} grid cells -> {s['out']}")
    return 0


def _fracs(spec) -> list[float]:
    if isinstance(spec, str):
        try:
            return [float(v) for v in spec.split(",") if v.strip()]
        except ValueError as exc:
            raise InputError("bad-format", f"bad fraction list {spec!r}") from exc
    return [float(v) for v in spec]


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file with per-stage sections")
    sub.add_argument("--seed", type=int, help="stage seed (overrides derivation)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskclust",
        description="Task clustering by robust matrix completion, end to end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic task family")
    _add_common(p)
    p.add_argument("--out", help="output directory for task JSON files")
    p.add_argument("--n-tasks", dest="n_tasks", type=int)
    p.add_argument("--clusters", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--label-count", dest="label_count", type=int)
    p.add_argument("--separation", type=float)
    p.add_argument("--task-noise", dest="task_noise", type=float)
    p.add_argument("--sample-spread", dest="sample_spread", type=float)
    p.add_argument("--opposed", action="store_const", const=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("estimate", help="evaluate pairwise transfer scores")
    _add_common(p)
    p.add_argument("--tasks", help="directory of task JSON files")
    p.add_argument("--out", help="output transfer CSV")
    p.add_argument("--pairs", help="pair budget, or 'all'")
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument(
        "--reuse-source-classifier", dest="reuse_source_classifier",
        action="store_const", const=True,
        help="score by direct evaluation instead of retraining a classifier",
    )
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("filter", help="threshold scores into binary similarities")
    _add_common(p)
    p.add_argument("--scores", help="transfer CSV from estimate")
    p.add_argument("--out", help="output partial similarity CSV")
    p.add_argument("--p1", type=float)
    p.add_argument("--p2", type=float)
    p.add_argument("--mode", choices=MODES)
    p.add_argument(
        "--exclude-diagonal", dest="include_diagonal", action="store_const", const=False,
        help="leave the diagonal scores out of the column statistics",
    )
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("complete", help="recover the full similarity matrix")
    _add_common(p)
    p.add_argument("--similarity", help="partial similarity CSV from filter")
    p.add_argument("--out-x", dest="out_x", help="output CSV for the low-rank matrix")
    p.add_argument("--out-e", dest="out_e", help="output CSV for the sparse error matrix")
    p.add_argument("--diagnostics", help="output JSON for solver diagnostics")
    p.add_argument("--lam", type=float, help="sparsity weight (default: observation-aware)")
    p.add_argument("--solver-tol", dest="solver_tol", type=float)
    p.add_argument("--solver-max-iter", dest="solver_max_iter", type=int)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("cluster", help="filter + complete + spectral partition")
    _add_common(p)
    p.add_argument("--scores", help="transfer CSV from estimate")
    p.add_argument("--out", help="output partition JSON")
    p.add_argument("--diagnostics", help="output JSON for solver diagnostics")
    p.add_argument("--clusters", type=int, help="number of clusters K")
    p.add_argument("--p1", type=float)
    p.add_argument("--p2", type=float)
    p.add_argument("--mode", choices=MODES)
    p.add_argument(
        "--exclude-diagonal", dest="include_diagonal", action="store_const", const=False,
    )
    p.add_argument("--lam", type=float)
    p.add_argument("--solver-tol", dest="solver_tol", type=float)
    p.add_argument("--solver-max-iter", dest="solver_max_iter", type=int)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("mtl", help="train cluster models, report per-task accuracy")
    _add_common(p)
    p.add_argument("--tasks", help="directory of task JSON files")
    p.add_argument("--partition", help="partition JSON from cluster")
    p.add_argument("--out", help="output report JSON")
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden", type=int)
    p.set_defaults(func=cmd_mtl)

    p = sub.add_parser("fsl", help="few-shot evaluation on target tasks")
    _add_common(p)
    p.add_argument("--tasks", help="directory of task JSON files")
    p.add_argument("--partition", help="partition JSON from cluster")
    p.add_argument("--targets", help="directory of target task JSON files")
    p.add_argument("--out", help="output report JSON")
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--shots", type=int)
    p.add_argument("--adaptive", action="store_const", const=True,
                   help="fall back to support-only training on poor fit")
    p.add_argument("--threshold", type=float)
    p.add_argument("--epochs", type=int)
    p.set_defaults(func=cmd_fsl)

    p = sub.add_parser("sweep", help="recovery probability over a sampling grid")
    _add_common(p)
    p.add_argument("--out", help="output sweep CSV")
    p.add_argument("--n", type=int)
    p.add_argument("--clusters", type=int)
    p.add_argument("--m1-fracs", dest="m1_fracs")
    p.add_argument("--m2-fracs", dest="m2_fracs")
    p.add_argument("--trials", type=int)
    p.add_argument("--lam", type=float)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        _report_error(exc.code, exc.message)
        return 3
    except TaskClustError as exc:
        _report_error(exc.code, exc.message)
        return 2


def _report_error(code: str, message: str) -> None:
    json.dump({"error": code, "message": message}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
