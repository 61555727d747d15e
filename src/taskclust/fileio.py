"""Readers and writers for the pipeline's on-disk artifacts.

Formats are deliberately plain so stage outputs can be inspected or edited
by hand: CSV for matrices and sweep grids, JSON for everything structured.
Task files are one line as json.dumps writes them; the smaller documents
are indented. Floats are serialized with repr (shortest round-trip form),
so rewriting the same object always produces byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bench import SweepCell
from .errors import InputError
from .filtering import PartialSimilarity
from .spectral import TaskPartition
from .transfer import TaskDataset, TransferMatrix

SPLITS = ("train", "test")


def require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError("missing-input", f"required file {p} does not exist")
    return p


def require_dir(path) -> Path:
    p = Path(path)
    if not p.is_dir():
        raise InputError("missing-input", f"required directory {p} does not exist")
    return p


def _fmt(x) -> str:
    return repr(float(x))


def _tolist(obj):
    """json's fallback for numpy arrays and scalars (np.float64, a float, never reaches it)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_json(obj, path) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, default=_tolist)
    Path(path).write_text(text + "\n")


def read_json(path):
    p = require_file(path)
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError("bad-format", f"{p} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# task datasets


def write_task_json(ds: TaskDataset, path) -> None:
    """The task as one line of json: label_count, task_id, and each split as
    a list of {"x": [...], "y": label} records, keys sorted.

    Unindented, json.dumps runs its C encoder; write_json's indent=2 would
    run the pure-Python one over every feature value.
    """
    splits = {}
    for name in SPLITS:
        X, y = getattr(ds, name)
        splits[name] = [{"x": x, "y": label} for x, label in zip(X.tolist(), y.tolist())]
    doc = {"label_count": int(ds.label_count), "splits": splits, "task_id": ds.task_id}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def read_task_json(path) -> TaskDataset:
    """The task in a file write_task_json wrote, in any json layout. Keys it
    does not read are ignored."""
    doc = read_json(path)
    try:
        splits = {}
        for name in SPLITS:
            rows = doc["splits"][name]
            X = np.array([r["x"] for r in rows], dtype=float)
            y = np.array([r["y"] for r in rows], dtype=int)
            if not rows:  # as wide as the other split's rows
                X = X.reshape(0, next((len(r["x"]) for s in SPLITS for r in doc["splits"][s]), 0))
            splits[name] = (X, y)
        return TaskDataset(
            task_id=str(doc["task_id"]),
            label_count=int(doc["label_count"]),
            train=splits["train"],
            test=splits["test"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad-format", f"{path} is not a task dataset file: {exc}") from exc


def read_task_dir(path) -> list[TaskDataset]:
    """All task files in a directory, sorted by file name; no two may hold one task id."""
    p = require_dir(path)
    files = [f for f in sorted(p.glob("*.json")) if f.name != "membership.json"]
    if not files:
        raise InputError("missing-input", f"no task files found in {p}")
    tasks, seen = [], {}
    for f in files:
        ds = read_task_json(f)
        if ds.task_id in seen:
            raise InputError("duplicate-task", f"{seen[ds.task_id]} and {f} both hold task {ds.task_id}")
        seen[ds.task_id] = f
        tasks.append(ds)
    return tasks


# ---------------------------------------------------------------------------
# transfer scores and filtered similarities


def _read_entries(path, partial: bool):
    """The '#n=<n>' size of a file that _write_entries wrote and its rows as
    arrays i, j and v, blank lines skipped. A row is bad-format unless it
    has three fields, i and j are distinct integers in [0, n) and v is a
    float; in a partial similarity file (``partial``) i < j and v is 0 or 1."""
    p = require_file(path)
    lines = p.read_text().splitlines()
    if not lines or not lines[0].startswith("#n="):
        raise InputError("bad-format", f"{p} must start with a '#n=<int>' header")
    try:
        n = int(lines[0][3:])
    except ValueError as exc:
        raise InputError("bad-format", f"{p} has a malformed size header") from exc
    if n < 1:
        raise InputError("bad-format", f"{p} declares a non-positive size")
    body = [line for line in lines[1:] if line.strip()]
    dtype = [("i", np.intp), ("j", np.intp), ("v", np.intp if partial else float)]
    rows = _parse_rows(body, dtype) if body else np.empty(0, dtype)  # loadtxt warns on no rows
    if rows is None:
        # A row parses or not whatever rows surround it, so bisect for the
        # first bad one: body[:lo] parses and body[lo:hi] does not.
        lo, hi = 0, len(body)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _parse_rows(body[lo:mid], dtype) is None else (mid, hi)
        raise InputError("bad-format", f"{p}: bad row {body[lo]!r}")
    i, j, v = rows["i"], rows["j"], rows["v"]
    ok = (0 <= i) & (i < n) & (0 <= j) & (j < n)
    ok &= ((i < j) & ((v == 0) | (v == 1))) if partial else (i != j)
    if not ok.all():
        raise InputError("bad-format", f"{p}: bad row {body[np.argmin(ok)]!r}")
    return n, i, j, v


def _parse_rows(lines: list[str], dtype):
    """The 'i,j,v' rows of ``lines`` as one structured array, or None if a row does not parse."""
    try:
        return np.loadtxt(lines, dtype, comments=None, delimiter=",", ndmin=1)
    except ValueError:
        return None


def _write_entries(mask: np.ndarray, values: np.ndarray, path) -> None:
    """'#n=<n>' and one 'i,j,value' line per entry of ``mask``, in row-major
    order, the value as repr writes it. Written a row of ``mask`` at a time."""
    with open(path, "w") as f:
        f.write(f"#n={mask.shape[0]}\n")
        for i, row in enumerate(mask):
            cols = np.flatnonzero(row)
            f.writelines(f"{i},{j},{v!r}\n" for j, v in zip(cols.tolist(), values[i, cols].tolist()))


def write_transfer_csv(tm: TransferMatrix, path) -> None:
    """Every observed off-diagonal score (_fmt's text)."""
    _write_entries(tm.observed & ~np.eye(tm.n, dtype=bool), tm.scores, path)


def read_transfer_csv(path) -> TransferMatrix:
    n, i, j, v = _read_entries(path, partial=False)
    scores = np.eye(n)
    observed = np.eye(n, dtype=bool)
    scores[i, j] = v
    observed[i, j] = True
    return TransferMatrix(scores=scores, observed=observed)


def write_partial_csv(ps: PartialSimilarity, path) -> None:
    """Every observed pair i < j."""
    _write_entries(np.triu(ps.observed, 1), ps.values, path)


def read_partial_csv(path) -> PartialSimilarity:
    n, i, j, v = _read_entries(path, partial=True)
    values = np.eye(n, dtype=np.int8)
    observed = np.eye(n, dtype=bool)
    values[i, j] = values[j, i] = v
    observed[i, j] = observed[j, i] = True
    return PartialSimilarity(values=values, observed=observed)


# ---------------------------------------------------------------------------
# dense matrices


def write_dense_csv(M: np.ndarray, path) -> None:
    """One line of _fmt's text per row of M, written a row at a time."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w") as f:
        for row in M:
            f.write(",".join(map(repr, row.tolist())) + "\n")


def read_dense_csv(path) -> np.ndarray:
    p = require_file(path)
    rows = []
    for line in p.read_text().splitlines():
        if not line.strip():
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            raise InputError("bad-format", f"{p}: bad row {line!r}") from exc
    if not rows or len({len(r) for r in rows}) != 1:
        raise InputError("bad-format", f"{p} is not a rectangular matrix")
    return np.array(rows, dtype=float)


# ---------------------------------------------------------------------------
# partitions


def write_partition_json(part: TaskPartition, path) -> None:
    write_json(
        {"n": part.n, "K": part.K, "assignment": part.assignment, "seed": part.seed},
        path,
    )


def read_partition_json(path) -> TaskPartition:
    doc = read_json(path)
    try:
        return TaskPartition(
            n=int(doc["n"]),
            K=int(doc["K"]),
            assignment=np.array(doc["assignment"], dtype=int),
            seed=int(doc["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad-format", f"{path} is not a partition file: {exc}") from exc


# ---------------------------------------------------------------------------
# phase sweeps


def write_sweep_csv(cells: list[SweepCell], path) -> None:
    lines = ["n,k,m1,m2,trials,recovered_count,prob"]
    for c in cells:
        lines.append(
            f"{c.n},{c.k},{c.m1},{c.m2},{c.trials},{c.recovered_count},{_fmt(c.prob)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_sweep_csv(path) -> list[SweepCell]:
    p = require_file(path)
    lines = p.read_text().splitlines()
    if not lines or lines[0] != "n,k,m1,m2,trials,recovered_count,prob":
        raise InputError("bad-format", f"{p} is missing the sweep header")
    cells = []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            n, k, m1, m2, trials, rec = (int(v) for v in parts[:6])
        except (IndexError, ValueError) as exc:
            raise InputError("bad-format", f"{p}: bad row {line!r}") from exc
        if len(parts) != 7:
            raise InputError("bad-format", f"{p}: bad row {line!r}")
        cells.append(SweepCell(n=n, k=k, m1=m1, m2=m2, trials=trials, recovered_count=rec))
    return cells
