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
import json
import sys
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import fileio
from .bench import phase_sweep
from .completion import SolverConfig, complete_similarity
from .errors import InputError, NumericalError, TaskClustError
from .filtering import FilterParams, filter_scores
from .learning import adaptive_fsl, check_threshold, fsl_combine
from .seeding import derive_rng
from .spectral import cluster_scores
from .synthdata import FamilyConfig, fewshot_from_dataset, make_task_family
from .transfer import (KINDS, PER_TASK_KINDS, TrainConfig, accuracy, build_transfer_matrix,
                       sample_task_pairs, train_cluster_models)

STAGES = ("synth", "estimate", "filter", "complete", "cluster", "mtl", "fsl", "sweep")
# cluster warns on stderr when the Laplacian's eigengap at K is this small.
LAPLACIAN_GAP_WARNING = 1e-9
# The dataclass each stage builds with _pick: a section may set its fields
# as well as the stage's flags. (FilterParams' fields are the filter flags.)
SECTION_CLASSES = {"synth": FamilyConfig, "estimate": TrainConfig, "complete": SolverConfig,
                   "cluster": SolverConfig, "mtl": TrainConfig, "fsl": TrainConfig}


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


def _fits(value, kind) -> bool:
    """Whether a JSON value fits a setting of type ``kind``: an int fits a
    float, a bool fits no number, and None fits only an optional setting."""
    kinds = typing.get_args(kind) or (kind,)
    if isinstance(value, bool):
        return bool in kinds
    return any(isinstance(value, (int, float) if k is float else k) for k in kinds)


def _get(settings: dict, key: str, kind, default=None):
    """Setting ``key`` (``default`` if unset); bad-config unless its JSON type fits ``kind``."""
    value = settings.get(key, default)
    if key in settings and not _fits(value, kind):
        raise InputError("bad-config", f"setting {key!r} cannot be {type(value).__name__} {value!r}")
    return value


def _settings(args, stage: str, *required: str) -> dict:
    """Stage settings: config-file section overridden by explicit flags.

    Every name in ``required`` is a path that one or the other must set.
    The top level holds stage sections and the master ``seed``; a section
    holds the stage's flag names (each flag's dest) and the fields of its
    SECTION_CLASSES entry. Any other key is bad-config.
    """
    config = _load_config(args.config)
    for key in config:
        if key not in STAGES and key != "seed":
            raise InputError("bad-config", f"config key {key!r} is neither a stage nor 'seed'")
    section = config.get(stage, {})
    if not isinstance(section, dict):
        raise InputError("bad-format", f"config section {stage!r} must be an object")
    known = set(vars(args)) - {"config", "command", "func"}  # the flags, seed included
    if stage in SECTION_CLASSES:
        known.update(f.name for f in fields(SECTION_CLASSES[stage]))
    for key in section:
        if key not in known:
            raise InputError("bad-config", f"config section {stage!r} has key {key!r}, "
                                           f"which no {stage} setting reads")
    merged = dict(section)
    for key, value in vars(args).items():
        if key not in ("config", "command", "func") and value is not None:
            merged[key] = value
    for key in required:
        if key not in merged:
            raise InputError("missing-setting", f"required setting {key!r} was not provided")
        _get(merged, key, str)
    merged.setdefault("seed", stage_seed(_get(config, "seed", int, 0), stage))
    _get(merged, "seed", int)
    return merged


def _pick(settings: dict, cls):
    """Build a config dataclass from the matching keys of ``settings``, type-checked."""
    types = typing.get_type_hints(cls)
    return cls(**{key: _get(settings, key, types[key]) for key in settings if key in types})


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    s = _settings(args, "synth", "out")
    clusters = _get(s, "clusters", int, 3)
    tasks, membership = make_task_family(_get(s, "n_tasks", int, 12), clusters, _pick(s, FamilyConfig),
                                         seed=s["seed"], opposed=_get(s, "opposed", bool, False))
    out = Path(s["out"])
    out.mkdir(parents=True, exist_ok=True)
    for t, ds in enumerate(tasks):
        fileio.write_task_json(ds, out / f"task-{t:03d}.json")
    fileio.write_json(
        {"n_tasks": len(tasks), "clusters": clusters,
         "membership": membership, "seed": s["seed"]},
        out / "membership.json",
    )
    print(f"wrote {len(tasks)} tasks to {out}")
    return 0


def cmd_estimate(args) -> int:
    s = _settings(args, "estimate", "tasks", "out")
    config = _pick(s, TrainConfig)
    budget = _get(s, "pairs", int | str | None)
    _get(s, "reuse_source_classifier", bool)  # accepted for old command lines; changes nothing
    tasks = fileio.read_task_dir(s["tasks"])
    n = len(tasks)
    if budget in (None, "all"):
        pairs = np.triu(np.ones((n, n), dtype=bool), 1)
    else:
        try:
            budget = int(budget)
        except ValueError as exc:
            raise InputError("bad-config",
                             f"setting 'pairs' must be an integer or 'all', not {budget!r}") from exc
        pairs = sample_task_pairs(n, budget, seed=s["seed"])
    tm = build_transfer_matrix(tasks, pairs, config)
    fileio.write_transfer_csv(tm, s["out"])
    print(f"estimated {int(pairs.sum())} pairs over {n} tasks -> {s['out']}")
    return 0


def cmd_filter(args) -> int:
    s = _settings(args, "filter", "scores", "out")
    tm = fileio.read_transfer_csv(s["scores"])
    ps = filter_scores(tm, _pick(s, FilterParams))
    fileio.write_partial_csv(ps, s["out"])
    kept = int(ps.observed.sum() - ps.n)
    print(f"kept {kept} off-diagonal entries of {ps.n}x{ps.n} -> {s['out']}")
    return 0


def _check_converged(diagnostics: dict) -> None:
    """no-convergence unless the solve that gave ``diagnostics`` converged."""
    if not diagnostics["converged"]:
        raise NumericalError(
            "no-convergence",
            f"solver stopped after {diagnostics['iterations']} iterations "
            f"with residual {diagnostics['final_residual']:.3e}",
        )


def cmd_complete(args) -> int:
    s = _settings(args, "complete", "similarity", "out_x", "out_e")
    diagnostics_path = _get(s, "diagnostics", str)
    ps = fileio.read_partial_csv(s["similarity"])
    solver = _pick(s, SolverConfig)
    lam = _get(s, "lam", float | None)
    X, diagnostics, result = complete_similarity(ps.values, ps.observed, lam, solver)
    _check_converged(diagnostics)
    fileio.write_dense_csv(X, s["out_x"])
    fileio.write_dense_csv(result.E, s["out_e"])
    if diagnostics_path is not None:
        fileio.write_json(diagnostics, diagnostics_path)
    print(
        f"completed {ps.n}x{ps.n} in {result.iterations} iterations, "
        f"residual {result.final_residual:.3e}"
    )
    return 0


def cmd_cluster(args) -> int:
    s = _settings(args, "cluster", "scores", "out")
    K = _get(s, "clusters", int, 0)
    if K < 1:
        raise InputError("bad-K", "clusters must be >= 1")
    params, diagnostics_path = _pick(s, FilterParams), _get(s, "diagnostics", str)
    # No name holds the scores: they are freed once filtered, before the solve.
    ps = filter_scores(fileio.read_transfer_csv(s["scores"]), params)
    solver = _pick(s, SolverConfig)
    part, diagnostics = cluster_scores(ps, K, _get(s, "lam", float | None), solver, s["seed"])
    _check_converged(diagnostics)
    if diagnostics["x_rank"] < K:
        _report(
            "warning", "low-rank-completion",
            f"the completed matrix has rank {diagnostics['x_rank']}, below K = {K}, "
            "so rounding alone tells at least two of the clusters apart",
        )
    if part.laplacian_gap is not None and part.laplacian_gap <= LAPLACIAN_GAP_WARNING:
        _report(
            "warning", "degenerate-embedding",
            f"Laplacian eigenvalues {K} and {K + 1} differ by {part.laplacian_gap:.3e}, "
            "so the partition depends on an arbitrary eigenbasis",
        )
    fileio.write_partition_json(part, s["out"])
    if diagnostics_path is not None:
        fileio.write_json(diagnostics, diagnostics_path)
    print(f"partitioned {part.n} tasks into {K} clusters -> {s['out']}")
    return 0


def _cluster_inputs(s: dict):
    """What mtl and fsl share: the model kind, its TrainConfig and the task clusters."""
    kind = _get(s, "kind", str, "shared_classifier")
    config = _pick(s, TrainConfig)
    tasks = fileio.read_task_dir(s["tasks"])
    part = fileio.read_partition_json(s["partition"])
    if part.n != len(tasks):
        raise InputError("bad-shape", "partition size does not match task count")
    return kind, config, [[tasks[i] for i in part.members(k)] for k in range(part.K)]


def _write_report(rows: list[dict], path, label: str, noun: str) -> int:
    """Write the rows, sorted by task id, and their macro accuracy, print a
    summary line, and return the command's exit code."""
    rows.sort(key=lambda r: r["task_id"])
    macro = float(np.mean([r["accuracy"] for r in rows]))
    fileio.write_json({"tasks": rows, "macro_accuracy": macro}, path)
    print(f"{label}: macro accuracy {macro:.4f} over {len(rows)} {noun} -> {path}")
    return 0


def cmd_mtl(args) -> int:
    s = _settings(args, "mtl", "tasks", "partition", "out")
    kind, config, clusters = _cluster_inputs(s)
    rows = []
    for members, model in zip(clusters, train_cluster_models(clusters, kind, config)):
        for ds in members:
            X, y = ds.test
            proba = model.predict_proba(X, task_id=ds.task_id, support=ds.train)
            rows.append(
                {"task_id": ds.task_id, "method": f"mtl-{kind}",
                 "accuracy": accuracy(proba, y), "alpha": []}
            )
    return _write_report(rows, s["out"], f"mtl {kind}", "tasks")


def cmd_fsl(args) -> int:
    s = _settings(args, "fsl", "tasks", "partition", "targets", "out")
    shots = _get(s, "shots", int, 5)
    adaptive = _get(s, "adaptive", bool, False)
    threshold = _get(s, "threshold", float, 0.20)
    check_threshold(threshold)
    kind, config, clusters = _cluster_inputs(s)
    targets = fileio.read_task_dir(s["targets"])
    # Every few-shot task is drawn before any model trains, so a bad shots fails first.
    fewshot = [fewshot_from_dataset(ds, shots=shots, seed=s["seed"]) for ds in targets]
    if kind in PER_TASK_KINDS:
        # Per-task heads cannot score an unseen target: train nothing.
        if not adaptive:
            raise InputError("no-compatible-cluster",
                             f"{kind} cluster models cannot score an unseen task")
        models = []
    else:
        models = train_cluster_models(clusters, kind, config)
    rows = []
    for ds, fs in zip(targets, fewshot):
        if adaptive:
            predictor = adaptive_fsl(models, fs, threshold=threshold, fallback_config=config)
            method = "adaptive-fsl"
        else:
            predictor = fsl_combine(models, fs)
            method = "fsl"
        alpha = [] if predictor.used_fallback else predictor.alpha
        rows.append(
            {"task_id": ds.task_id, "method": method,
             "accuracy": predictor.accuracy(*fs.test), "alpha": alpha}
        )
    return _write_report(rows, s["out"], "fsl", "targets")


def cmd_sweep(args) -> int:
    s = _settings(args, "sweep", "out")
    cells = phase_sweep(
        n=_get(s, "n", int, 30),
        k=_get(s, "clusters", int, 3),
        m1_fracs=_fracs(_get(s, "m1_fracs", str | list, "0.2,0.4,0.6,0.8,1.0")),
        m2_fracs=_fracs(_get(s, "m2_fracs", str | list, "0.0,0.05")),
        trials=_get(s, "trials", int, 5),
        seed=s["seed"],
        lam=_get(s, "lam", float | None),
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
    if not all(_fits(v, float) for v in spec):
        raise InputError("bad-config", f"fraction list {spec!r} holds a non-number")
    return [float(v) for v in spec]


# ---------------------------------------------------------------------------
# argument parsing


def _add_command(sub, name: str, func, help: str):
    """Subcommand ``name`` running ``func``, with the --config and --seed flags."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", help="JSON config file with per-stage sections")
    p.add_argument("--seed", type=int, help="stage seed (overrides derivation)")
    p.set_defaults(func=func)
    return p


def _add_filter_flags(sub):
    """FilterParams' settings: filter and cluster."""
    sub.add_argument("--p1", type=float, help="high threshold: mu + p1*sigma of the target column")
    sub.add_argument("--p2", type=float, help="low threshold: mu - p2*sigma of the target column")
    sub.add_argument(
        "--exclude-diagonal", dest="include_diagonal", action="store_const", const=False,
        help="leave the diagonal scores out of the column statistics",
    )


def _add_solver_flags(sub):
    """The completion step's settings: complete and cluster."""
    sub.add_argument("--diagnostics", help="output JSON for solver diagnostics (none written without it)")
    sub.add_argument("--lam", type=float, help="sparsity weight (default: observation-aware)")
    sub.add_argument("--solver-tol", dest="tol", type=float)
    sub.add_argument("--solver-max-iter", dest="max_iter", type=int)


def _add_model_flags(sub):
    """The cluster-model settings and report path: mtl and fsl."""
    sub.add_argument("--tasks", help="directory of task JSON files")
    sub.add_argument("--partition", help="partition JSON from cluster")
    sub.add_argument("--out", help="output report JSON")
    sub.add_argument("--kind", choices=KINDS)
    sub.add_argument("--epochs", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskclust",
        description="Task clustering by robust matrix completion, end to end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "synth", cmd_synth, "generate a synthetic task family")
    p.add_argument("--out", help="output directory for task JSON files")
    p.add_argument("--n-tasks", dest="n_tasks", type=int)
    p.add_argument("--clusters", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--label-count", dest="label_count", type=int)
    p.add_argument("--separation", type=float)
    p.add_argument("--task-noise", dest="task_noise", type=float)
    p.add_argument("--sample-spread", dest="sample_spread", type=float)
    p.add_argument("--opposed", action="store_const", const=True)

    p = _add_command(sub, "estimate", cmd_estimate, "evaluate pairwise transfer scores")
    p.add_argument("--tasks", help="directory of task JSON files")
    p.add_argument("--out", help="output transfer CSV")
    p.add_argument("--pairs", help="pair budget, or 'all'")
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument(
        "--reuse-source-classifier", dest="reuse_source_classifier",
        action="store_const", const=True,
        help="kept for old command lines: scores are always by direct evaluation, so it changes nothing",
    )

    p = _add_command(sub, "filter", cmd_filter, "threshold scores into binary similarities")
    p.add_argument("--scores", help="transfer CSV from estimate")
    p.add_argument("--out", help="output partial similarity CSV")
    _add_filter_flags(p)

    p = _add_command(sub, "complete", cmd_complete, "recover the full similarity matrix")
    p.add_argument("--similarity", help="partial similarity CSV from filter")
    p.add_argument("--out-x", dest="out_x", help="output CSV for the low-rank matrix")
    p.add_argument("--out-e", dest="out_e", help="output CSV for the sparse error matrix")
    _add_solver_flags(p)

    p = _add_command(sub, "cluster", cmd_cluster, "filter + complete + spectral partition")
    p.add_argument("--scores", help="transfer CSV from estimate")
    p.add_argument("--out", help="output partition JSON")
    p.add_argument("--clusters", type=int, help="number of clusters K")
    _add_filter_flags(p)
    _add_solver_flags(p)

    p = _add_command(sub, "mtl", cmd_mtl, "train cluster models, report per-task accuracy")
    _add_model_flags(p)
    p.add_argument("--hidden", type=int)

    p = _add_command(sub, "fsl", cmd_fsl, "few-shot evaluation on target tasks")
    _add_model_flags(p)
    p.add_argument("--targets", help="directory of target task JSON files")
    p.add_argument("--shots", type=int)
    p.add_argument("--adaptive", action="store_const", const=True,
                   help="fall back to support-only training on poor fit")
    p.add_argument("--threshold", type=float)

    p = _add_command(sub, "sweep", cmd_sweep, "recovery probability over a sampling grid")
    p.add_argument("--out", help="output sweep CSV")
    p.add_argument("--n", type=int)
    p.add_argument("--clusters", type=int)
    p.add_argument("--m1-fracs", dest="m1_fracs")
    p.add_argument("--m2-fracs", dest="m2_fracs")
    p.add_argument("--trials", type=int)
    p.add_argument("--lam", type=float)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        _report("error", exc.code, exc.message)
        return 3
    except TaskClustError as exc:
        _report("error", exc.code, exc.message)
        return 2


def _report(kind: str, code: str, message: str) -> None:
    """One JSON line on stderr: {kind: code, "message": message}."""
    json.dump({kind: code, "message": message}, sys.stderr)
    sys.stderr.write("\n")


if __name__ == "__main__":
    sys.exit(main())
