"""Readers and writers for the pipeline's on-disk artifacts.

Formats are deliberately plain so stage outputs can be inspected or edited
by hand: CSV for matrices and sweep grids, JSON for everything structured.
Floats are serialized with repr (shortest round-trip form), so rewriting
the same object always produces byte-identical files.
"""

from __future__ import annotations

import itertools
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


def _indented_list(items: list[str], depth: int) -> str:
    """json.dumps's indent=2 text of a list at nesting depth ``depth`` whose
    items are given as text."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def write_task_json(ds: TaskDataset, path) -> None:
    """The task document as write_json writes it, byte for byte.

    json's encoder runs in pure Python when it indents, so the indented text
    is built here: each split is a list of {"x": [...], "y": label} records,
    keys sorted, floats as repr writes them (json's text for the finite
    floats a TaskDataset holds).
    """
    splits = []
    for name in sorted(SPLITS):
        X, y = getattr(ds, name)
        rows = [list(map(repr, row)) for row in X.tolist()]
        records = [f'{{\n        "x": {_indented_list(row, 4)},\n        "y": {label}\n      }}'
                   for row, label in zip(rows, y.tolist())]
        splits.append(f'    "{name}": {_indented_list(records, 2)}')
    text = (f'{{\n  "label_count": {int(ds.label_count)},\n  "splits": {{\n' + ",\n".join(splits)
            + f'\n  }},\n  "task_id": {json.dumps(ds.task_id)}\n}}\n')
    Path(path).write_text(text)


def read_task_json(path) -> TaskDataset:
    """The task in a file write_task_json wrote. Keys it does not read are ignored."""
    doc = read_json(path)
    try:
        splits = {}
        for name in SPLITS:
            rows = doc["splits"][name]
            X = np.array([r["x"] for r in rows], dtype=float)
            y = np.array([r["y"] for r in rows], dtype=int)
            if X.size == 0:
                X = X.reshape(0, _first_dim(doc))
            splits[name] = (X, y)
        return TaskDataset(
            task_id=str(doc["task_id"]),
            label_count=int(doc["label_count"]),
            train=splits["train"],
            test=splits["test"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad-format", f"{path} is not a task dataset file: {exc}") from exc


def _first_dim(doc) -> int:
    for name in SPLITS:
        for r in doc["splits"][name]:
            return len(r["x"])
    return 0


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


def _read_entries(path, parse, upper: bool):
    """The '#n=<n>' size of a file that _write_entries wrote and an iterator
    over its rows as (i, j, parse(value)), blank lines skipped. A row is
    bad-format unless it has three fields, parse accepts its value, and i and
    j are distinct indices in [0, n), with i < j when ``upper``."""
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

    def rows():
        for line in itertools.islice(lines, 1, None):
            if not line.strip():
                continue
            parts = line.split(",")
            try:
                i, j, v = int(parts[0]), int(parts[1]), parse(parts[2])
            except (IndexError, ValueError) as exc:
                raise InputError("bad-format", f"{p}: bad row {line!r}") from exc
            if len(parts) != 3 or not (0 <= i < n and 0 <= j < n) or (i >= j if upper else i == j):
                raise InputError("bad-format", f"{p}: bad row {line!r}")
            yield i, j, v

    return n, rows()


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
    n, rows = _read_entries(path, float, upper=False)
    scores = np.eye(n)
    observed = np.eye(n, dtype=bool)
    for i, j, v in rows:
        scores[i, j] = v
        observed[i, j] = True
    return TransferMatrix(scores=scores, observed=observed)


def write_partial_csv(ps: PartialSimilarity, path) -> None:
    """Every observed pair i < j."""
    _write_entries(np.triu(ps.observed, 1), ps.values, path)


def _bit(text: str) -> int:
    """int(text) if that is 0 or 1; ValueError otherwise."""
    return (0, 1).index(int(text))


def read_partial_csv(path) -> PartialSimilarity:
    n, rows = _read_entries(path, _bit, upper=True)
    values = np.eye(n, dtype=np.int8)
    observed = np.eye(n, dtype=bool)
    for i, j, v in rows:
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
