import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from taskclust import fileio
from taskclust.bench import SweepCell
from taskclust.errors import InputError
from taskclust.filtering import PartialSimilarity
from taskclust.spectral import TaskPartition
from taskclust.synthdata import make_task_family
from taskclust.transfer import TaskDataset, TransferMatrix


def _toy_transfer(n=5, seed=0):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(size=(n, n))
    np.fill_diagonal(scores, 1.0)
    observed = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(observed, True)
    for i, j in ((0, 1), (1, 2), (0, 4)):
        observed[i, j] = observed[j, i] = True
    scores[~observed] = 0.0
    return TransferMatrix(scores=scores, observed=observed)


def test_transfer_csv_round_trip(tmp_path):
    tm = _toy_transfer()
    path = tmp_path / "transfer.csv"
    fileio.write_transfer_csv(tm, path)
    back = fileio.read_transfer_csv(path)
    assert np.array_equal(back.observed, tm.observed)
    assert np.allclose(back.scores[tm.observed], tm.scores[tm.observed])
    assert path.read_text().startswith("#n=5\n")


def test_transfer_csv_rewrite_is_byte_identical(tmp_path):
    tm = _toy_transfer(seed=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    fileio.write_transfer_csv(tm, a)
    fileio.write_transfer_csv(fileio.read_transfer_csv(a), b)
    assert a.read_bytes() == b.read_bytes()


def _random_masks(n, seed):
    """Symmetric observation masks with the diagonal set: none, sparse, dense, full off-diagonal."""
    rng = np.random.default_rng(seed)
    for density in (0.0, 0.1, 0.5, 1.0):
        upper = np.triu(rng.uniform(size=(n, n)) < density, 1)
        yield upper | upper.T | np.eye(n, dtype=bool)


def loop_transfer_text(tm):
    """The cell-by-cell writer that write_transfer_csv replaced."""
    lines = [f"#n={tm.n}"]
    for i in range(tm.n):
        for j in range(tm.n):
            if i != j and tm.observed[i, j]:
                lines.append(f"{i},{j},{fileio._fmt(tm.scores[i, j])}")
    return "\n".join(lines) + "\n"


def loop_partial_text(ps):
    """The cell-by-cell writer that write_partial_csv replaced."""
    lines = [f"#n={ps.n}"]
    for i in range(ps.n):
        for j in range(i + 1, ps.n):
            if ps.observed[i, j]:
                lines.append(f"{i},{j},{int(ps.values[i, j])}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 2, 17])
def test_entry_csvs_are_the_cell_by_cell_text(tmp_path, n):
    rng = np.random.default_rng(n)
    path = tmp_path / "out.csv"
    for observed in _random_masks(n, seed=n):
        scores = np.where(observed, rng.uniform(size=(n, n)), 0.0)
        np.fill_diagonal(scores, 1.0)
        tm = TransferMatrix(scores=scores, observed=observed)
        fileio.write_transfer_csv(tm, path)
        assert path.read_text() == loop_transfer_text(tm)
        upper = np.triu(rng.integers(0, 2, size=(n, n)), 1)
        values = np.where(observed, upper + upper.T, 0) + np.eye(n, dtype=int)
        ps = PartialSimilarity(values=values, observed=observed)
        fileio.write_partial_csv(ps, path)
        assert path.read_text() == loop_partial_text(ps)


def test_transfer_csv_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("#n=3\n0,1,not-a-number\n")
    with pytest.raises(InputError) as err:
        fileio.read_transfer_csv(path)
    assert err.value.code == "bad-format"
    path.write_text("0,1,0.5\n")
    with pytest.raises(InputError) as err:
        fileio.read_transfer_csv(path)
    assert err.value.code == "bad-format"
    path.write_text("#n=3\n0,9,0.5\n")
    with pytest.raises(InputError) as err:
        fileio.read_transfer_csv(path)
    assert err.value.code == "bad-format"


@pytest.mark.parametrize("read, v", [
    (fileio.read_transfer_csv, "0.5"), (fileio.read_partial_csv, "1"),
], ids=["transfer", "partial"])
@pytest.mark.parametrize("row", [
    "1,1,{v}", "0,3,{v}", "-1,0,{v}", "0,1", "0,1,{v},7", "0,1,abc",
], ids=["i==j", "index>=n", "negative-index", "2-fields", "4-fields", "non-numeric"])
def test_entry_readers_reject_a_bad_row(tmp_path, read, v, row):
    path = tmp_path / "entries.csv"
    path.write_text(f"#n=3\n0,2,{v}\n" + row.format(v=v) + "\n")
    with pytest.raises(InputError) as err:
        read(path)
    assert err.value.code == "bad-format"


@pytest.mark.parametrize("row", ["1,0,1", "0,1,2"], ids=["i>j", "value-2"])
def test_partial_reader_rejects_a_bad_row(tmp_path, row):
    path = tmp_path / "partial.csv"
    path.write_text(f"#n=3\n{row}\n")
    with pytest.raises(InputError) as err:
        fileio.read_partial_csv(path)
    assert err.value.code == "bad-format"


@pytest.mark.parametrize("read, body", [
    (fileio.read_transfer_csv, "0,1,0.5\n\n1,0,0.25\n"),
    (fileio.read_partial_csv, "0,1,1\n"),
], ids=["transfer", "partial"])
def test_entry_readers_skip_blank_lines(tmp_path, read, body):
    path = tmp_path / "entries.csv"
    path.write_text("#n=3\n\n" + body + "  \n")
    result = read(path)
    assert result.observed[0, 1] and result.observed[1, 0]
    assert int(result.observed.sum()) == 5


@pytest.mark.parametrize("read, body, bad", [
    (fileio.read_transfer_csv, "0,1,0.5\n0,2\n1,2,0.5\n", "0,2"),
    (fileio.read_transfer_csv, "0,1,0.5\n2,2,0.5\n1,2,x\n", "1,2,x"),  # parsing comes first
    (fileio.read_transfer_csv, "0,1,0.5\n0,1_0,0.5\n", "0,1_0,0.5"),
    (fileio.read_partial_csv, "0,1,1\n1,2,1\n0,2,2\n", "0,2,2"),
    (fileio.read_partial_csv, "0,1,1\n2,1,0\n", "2,1,0"),
    (fileio.read_transfer_csv, "0,1,0.5\n0,2,0.5,7\n1,2\n", "0,2,0.5,7"),  # the first of two
], ids=["short-row", "unparsed-row", "underscore", "value-2", "i>j", "long-then-short"])
def test_entry_readers_name_the_bad_row(tmp_path, read, body, bad):
    path = tmp_path / "entries.csv"
    path.write_text("#n=3\n" + body)
    with pytest.raises(InputError) as err:
        read(path)
    assert err.value.code == "bad-format"
    assert str(path) in err.value.message and repr(bad) in err.value.message


def test_a_bad_last_row_is_found_in_log_rows_parses(tmp_path, monkeypatch):
    """One parse of the whole body, then a bisection: not one parse per row."""
    n, calls = 65, []
    rows = [f"{i},{j},0.5" for i in range(n) for j in range(n) if i != j][:4095] + ["0,1,x"]
    path = tmp_path / "scores.csv"
    path.write_text(f"#n={n}\n" + "\n".join(rows) + "\n")
    parse = fileio._parse_rows
    monkeypatch.setattr(fileio, "_parse_rows", lambda lines, dtype: calls.append(1) or parse(lines, dtype))
    with pytest.raises(InputError) as err:
        fileio.read_transfer_csv(path)
    assert repr("0,1,x") in err.value.message
    assert len(calls) <= 2 + math.ceil(math.log2(len(rows)))


@pytest.mark.parametrize("read", [fileio.read_transfer_csv, fileio.read_partial_csv],
                         ids=["transfer", "partial"])
def test_entry_readers_take_a_header_without_rows(tmp_path, read):
    path = tmp_path / "entries.csv"
    path.write_text("#n=3\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = read(path)
    assert np.array_equal(result.observed, np.eye(3, dtype=bool))


def test_missing_file_error():
    with pytest.raises(InputError) as err:
        fileio.read_transfer_csv("/nonexistent/transfer.csv")
    assert err.value.code == "missing-input"
    with pytest.raises(InputError) as err:
        fileio.read_task_dir("/nonexistent/dir")
    assert err.value.code == "missing-input"


def test_partial_csv_round_trip(tmp_path):
    n = 6
    values = np.eye(n, dtype=np.int8)
    observed = np.eye(n, dtype=bool)
    for i, j, v in ((0, 1, 1), (2, 3, 0), (4, 5, 1)):
        values[i, j] = values[j, i] = v
        observed[i, j] = observed[j, i] = True
    ps = PartialSimilarity(values=values, observed=observed)
    path = tmp_path / "partial.csv"
    fileio.write_partial_csv(ps, path)
    back = fileio.read_partial_csv(path)
    assert np.array_equal(back.values, ps.values)
    assert np.array_equal(back.observed, ps.observed)
    # entries are stored upper-triangular only
    body = path.read_text().splitlines()[1:]
    assert all(int(r.split(",")[0]) < int(r.split(",")[1]) for r in body)


def test_partial_csv_rejects_bad_value(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("#n=4\n0,1,2\n")
    with pytest.raises(InputError) as err:
        fileio.read_partial_csv(path)
    assert err.value.code == "bad-format"


def test_dense_csv_round_trip(tmp_path):
    M = np.random.default_rng(1).standard_normal((4, 7))
    path = tmp_path / "m.csv"
    fileio.write_dense_csv(M, path)
    assert np.array_equal(fileio.read_dense_csv(path), M)  # repr round-trips exactly


@pytest.mark.parametrize(
    "M",
    [
        [[-0.0, 0.0, 1e-300, 5e-324], [3.0, -7.0, 1e16, 2.0**53 + 2], [np.nan, np.inf, -np.inf, 0.1]],
        [1.0, -0.0, np.nan],  # 1-D input is written as one row
        np.arange(6).reshape(2, 3),  # integer input is written as floats
        np.random.default_rng(2).standard_normal((5, 3)),
    ],
)
def test_dense_csv_writes_the_fmt_text(tmp_path, M):
    path = tmp_path / "m.csv"
    fileio.write_dense_csv(M, path)
    rows = np.atleast_2d(np.asarray(M, dtype=float))
    expect = "\n".join(",".join(fileio._fmt(v) for v in row) for row in rows) + "\n"
    assert path.read_bytes() == expect.encode()


@pytest.mark.parametrize("writer", ["write_dense_csv", "write_transfer_csv"])
def test_matrix_writers_never_hold_the_whole_text(tmp_path, writer):
    """X and the scores are written a row at a time. The whole text of a
    300 x 300 matrix, built before writing, traced 7 and 17 times X.nbytes;
    a row at a time the peak is under half of X.nbytes (the transfer writer's
    n x n bool masks are a quarter)."""
    n = 300
    X = np.random.default_rng(0).uniform(size=(n, n))
    np.fill_diagonal(X, 1.0)
    arg = X if writer == "write_dense_csv" else TransferMatrix(X, np.ones((n, n), dtype=bool))
    write, path = getattr(fileio, writer), tmp_path / "m.csv"
    write(arg, path)  # first-call set-up is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write(arg, path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 2
    assert path.stat().st_size > 2 * X.nbytes  # the text is larger than the matrix


def test_dense_csv_rejects_ragged(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputError) as err:
        fileio.read_dense_csv(path)
    assert err.value.code == "bad-format"


def test_task_json_round_trip(tmp_path):
    tasks, _ = make_task_family(2, 2, seed=5)
    path = tmp_path / "task.json"
    fileio.write_task_json(tasks[0], path)
    back = fileio.read_task_json(path)
    assert back.task_id == tasks[0].task_id
    assert back.label_count == tasks[0].label_count
    for name in ("train", "test"):
        X0, y0 = getattr(tasks[0], name)
        X1, y1 = getattr(back, name)
        assert np.array_equal(X0, X1)
        assert np.array_equal(y0, y1)


def json_task_text(ds):
    """The task document through json.dumps, unindented, keys sorted."""
    splits = {name: [{"x": [float(v) for v in row], "y": int(lab)}
                     for row, lab in zip(*getattr(ds, name))] for name in fileio.SPLITS}
    doc = {"task_id": ds.task_id, "label_count": ds.label_count, "splits": splits}
    return json.dumps(doc, sort_keys=True) + "\n"


def test_task_json_is_the_json_dumps_text(tmp_path):
    tasks, _ = make_task_family(48, 3, seed=0)
    empty = (np.zeros((0, tasks[0].dim)), np.zeros(0, dtype=int))
    tasks += [
        TaskDataset("empty-split \u00e9\"", 3, tasks[1].train, empty),
        TaskDataset("no-features", 2, (np.zeros((2, 0)), np.array([0, 1])), empty),
    ]
    path = tmp_path / "task.json"
    for ds in tasks:
        fileio.write_task_json(ds, path)
        assert path.read_text() == json_task_text(ds)


def test_an_empty_split_and_a_zero_feature_task_read_back_as_written(tmp_path):
    """An empty split takes the other split's width; a zero-feature split
    with rows keeps its rows."""
    ds = make_task_family(1, 1, seed=0)[0][0]
    tasks = [TaskDataset("empty-test", 3, ds.train, (np.zeros((0, ds.dim)), np.zeros(0, dtype=int))),
             TaskDataset("empty-train", 3, (np.zeros((0, ds.dim)), np.zeros(0, dtype=int)), ds.test),
             TaskDataset("no-features", 2, (np.zeros((2, 0)), np.array([0, 1])),
                         (np.zeros((0, 0)), np.zeros(0, dtype=int)))]
    path = tmp_path / "task.json"
    for ds in tasks:
        fileio.write_task_json(ds, path)
        back = fileio.read_task_json(path)
        for name in fileio.SPLITS:
            for a, b in zip(getattr(back, name), getattr(ds, name)):
                assert a.shape == b.shape and np.array_equal(a, b)


def test_a_task_file_with_a_valid_split_reads_its_train_and_test(tmp_path):
    """Files written before the valid split was dropped still hold one; it is
    ignored and the train and test arrays read as written."""
    tasks, _ = make_task_family(2, 2, seed=5)
    path = tmp_path / "task.json"
    fileio.write_task_json(tasks[0], path)
    doc = json.loads(path.read_text())
    doc["splits"]["valid"] = doc["splits"]["train"][:4]
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    back = fileio.read_task_json(path)
    for name in ("train", "test"):
        for a, b in zip(getattr(back, name), getattr(tasks[0], name)):
            assert a.tobytes() == b.tobytes() and a.dtype == b.dtype


def test_task_dir_sorted_and_skips_membership(tmp_path):
    tasks, membership = make_task_family(3, 3, seed=2)
    for t, ds in enumerate(tasks):
        fileio.write_task_json(ds, tmp_path / f"task-{t}.json")
    fileio.write_json({"membership": membership}, tmp_path / "membership.json")
    back = fileio.read_task_dir(tmp_path)
    assert [ds.task_id for ds in back] == [ds.task_id for ds in tasks]


def test_task_dir_rejects_a_task_id_held_twice(tmp_path):
    tasks, _ = make_task_family(3, 3, seed=2)
    for t, ds in enumerate(tasks + [tasks[1]]):
        fileio.write_task_json(ds, tmp_path / f"task-{t}.json")
    with pytest.raises(InputError) as err:
        fileio.read_task_dir(tmp_path)
    assert err.value.code == "duplicate-task"
    assert "task-1.json" in err.value.message and "task-3.json" in err.value.message


def test_partition_round_trip(tmp_path):
    part = TaskPartition(n=5, K=2, assignment=[0, 0, 1, 1, 0], seed=9)
    path = tmp_path / "part.json"
    fileio.write_partition_json(part, path)
    back = fileio.read_partition_json(path)
    assert (back.n, back.K, back.seed) == (5, 2, 9)
    assert np.array_equal(back.assignment, part.assignment)


def test_sweep_csv_round_trip(tmp_path):
    cells = [
        SweepCell(n=30, k=3, m1=400, m2=0, trials=5, recovered_count=5),
        SweepCell(n=30, k=3, m1=200, m2=10, trials=5, recovered_count=2),
    ]
    path = tmp_path / "sweep.csv"
    fileio.write_sweep_csv(cells, path)
    back = fileio.read_sweep_csv(path)
    assert back == cells
    assert path.read_text().splitlines()[0] == "n,k,m1,m2,trials,recovered_count,prob"


@pytest.mark.parametrize("row", ["30,3,400,0,0,0,0.0", "30,3,400,0,5,6,1.2", "30,3,400,0,5,-1,-0.2"],
                         ids=["no-trials", "more-recovered-than-trials", "negative-recovered"])
def test_a_sweep_row_that_cannot_be_rendered_is_bad_format(row, tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text(f"n,k,m1,m2,trials,recovered_count,prob\n{row}\n")
    with pytest.raises(InputError) as err:
        fileio.read_sweep_csv(path)
    assert err.value.code == "bad-format"


def test_json_booleans_survive(tmp_path):
    path = tmp_path / "d.json"
    fileio.write_json({"converged": np.bool_(True), "count": np.int64(3)}, path)
    assert '"converged": true' in path.read_text()
    assert fileio.read_json(path) == {"converged": True, "count": 3}


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{not json")
    with pytest.raises(InputError) as err:
        fileio.read_json(path)
    assert err.value.code == "bad-format"
