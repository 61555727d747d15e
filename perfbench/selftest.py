"""Self-test of the correctness checks: each accepts a correct artifact and rejects a tampered one.

    python3 perfbench/selftest.py

Builds correct artifacts from the benchmark's own reference computations
(no taskclust code runs), checks that every check accepts them, then
tampers with one entry at a time (a flipped X entry, a task moved to another
cluster, an edited sweep count, and a few more) and checks that the matching
check rejects each. Exits 1 if a check accepts a tampered artifact or
rejects a correct one.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
from workloads import K, M1_FRACS, M2_FRACS, planted_scores, write_scores

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"


def write_partial(path: Path, values, decided) -> None:
    n = values.shape[0]
    rows = [f"{i},{j},{int(values[i, j])}" for i in range(n) for j in range(i + 1, n) if decided[i, j]]
    path.write_text(f"#n={n}\n" + "".join(r + "\n" for r in rows))


def write_dense(path: Path, M) -> None:
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in M))


def write_sweep(path: Path, n, trials, counts) -> None:
    lines = ["n,k,m1,m2,trials,recovered_count,prob"]
    grid = [(f1, f2) for f1 in M1_FRACS for f2 in M2_FRACS]
    for (f1, f2), c in zip(grid, counts):
        m1 = round(f1 * n * n)
        lines.append(f"{n},{K},{m1},{round(f2 * m1)},{trials},{c},{c / trials!r}")
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    failures = []

    def expect(label, fn, should_pass):
        try:
            fn()
            passed, why = True, ""
        except checks.CheckError as exc:
            passed, why = False, str(exc)
        good = passed == should_pass
        print(f"{'ok  ' if good else 'FAIL'} {label}: {'accepted' if passed else 'rejected'}"
              + (f" ({why})" if why else ""))
        if not good:
            failures.append(label)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        d = Path(tmp)
        n = 60
        membership, pairs = planted_scores(n, seed=7)
        write_scores(d / "scores.csv", n, pairs)
        scores, observed = checks.read_scores(d / "scores.csv")
        values, decided = checks.threshold_rule(scores, observed)
        X_star = checks.planted_x(membership)
        write_partial(d / "partial.csv", values, decided)
        write_dense(d / "X.csv", X_star)
        write_dense(d / "E.csv", np.where(decided, values - X_star, 0.0))
        part = {"n": n, "K": K, "assignment": membership.tolist(), "seed": 0}
        (d / "part.json").write_text(json.dumps(part))
        rows = [{"task_id": f"t{i}", "accuracy": a, "alpha": [0.25, 0.75]}
                for i, a in enumerate((1.0, 0.9, 0.95))]
        (d / "report.json").write_text(json.dumps({"tasks": rows, "macro_accuracy": float(np.mean([1.0, 0.9, 0.95]))}))
        trials = 5
        counts = [0, 0, 0, 0, 2, 0, 5, 4, trials, trials]
        write_sweep(d / "sweep.csv", n, trials, counts)

        flt = lambda: checks.check_filter(d / "scores.csv", d / "partial.csv")  # noqa: E731
        cmp = lambda: checks.check_completion(membership, d / "partial.csv", d / "X.csv", d / "E.csv")  # noqa: E731
        prt = lambda: checks.check_partition(membership, d / "part.json", exact=True)  # noqa: E731
        rep = lambda: checks.check_report(d / "report.json", ["t0", "t1", "t2"], mixture=True)  # noqa: E731
        swp = lambda: checks.check_sweep(d / "sweep.csv", n, K, M1_FRACS, M2_FRACS, trials)  # noqa: E731
        for label, fn in (("filter", flt), ("complete", cmp), ("partition", prt),
                          ("report", rep), ("sweep", swp)):
            expect(f"correct {label}", fn, True)

        i, j = map(int, np.argwhere(decided & ~np.eye(n, dtype=bool))[0])
        tampered = values.copy()
        tampered[i, j] = tampered[j, i] = 1 - tampered[i, j]
        write_partial(d / "partial.csv", tampered, decided)
        expect("filter with one decision flipped", flt, False)
        write_partial(d / "partial.csv", values, decided)

        X = X_star.copy()
        X[3, 5] = 1.0 - X[3, 5]
        write_dense(d / "X.csv", X)
        expect("complete with one X entry flipped", cmp, False)
        write_dense(d / "X.csv", X_star)
        write_dense(d / "E.csv", np.zeros((n, n)))
        expect("complete with the gross errors left out of E", cmp, False)

        moved = membership.copy()
        moved[0] = (moved[0] + 1) % K
        (d / "part.json").write_text(json.dumps(dict(part, assignment=moved.tolist())))
        expect("partition with one task moved to another cluster", prt, False)

        (d / "report.json").write_text(json.dumps({"tasks": rows, "macro_accuracy": 0.99}))
        expect("report whose macro accuracy is not the mean of its rows", rep, False)

        edited = list(counts)
        edited[-2] -= 1                       # the fully observed, uncorrupted cell
        write_sweep(d / "sweep.csv", n, trials, edited)
        expect("sweep with the clean full-observation count edited", swp, False)
        edited = list(counts)
        edited[4] = trials + 1
        write_sweep(d / "sweep.csv", n, trials, edited)
        expect("sweep with a count above the trial count", swp, False)
        write_sweep(d / "sweep.csv", n, trials, counts)
        (d / "sweep.csv").write_text((d / "sweep.csv").read_text().replace(f"{n},{K},2160,", f"{n},{K},2161,"))
        expect("sweep with an edited m1", swp, False)

    print(f"{'all checks behave' if not failures else f'{len(failures)} checks misbehave'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
