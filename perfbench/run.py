"""Run one benchmark workload and print its metrics; the last stdout line is JSON.

    python3 perfbench/run.py --workload planted|tasks48|sweep --seed N --seconds S --trace 0|1

The CLI runs in this process through taskclust.cli.main(argv), from the
checkout's src directory (no install needed). A run repeats whole rounds of
the workload's ops until --seconds have passed, then reports the slowest
round. With --trace 0 the JSON holds the end-to-end metrics; with --trace 1
every public function of the program's modules is wrapped in a span, and the
JSON holds the per-layer metrics. Both write a record to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7


def slowest(values):
    """The largest value, or None if there is none.

    On a shared 2-CPU host, rounds ran at a usual speed with bursts up to 1.5x
    faster; the slowest round tracks the usual speed across runs, where the
    median of two or three rounds swings with the bursts.
    """
    values = [v for v in values if v is not None]
    return max(values) if values else None


def fresh_import_s() -> float:
    """Seconds a new interpreter, with numpy already loaded, takes to import taskclust.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = ("import numpy\nfrom time import perf_counter\nstart = perf_counter()\n"
            "import taskclust.cli\nprint(perf_counter() - start)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    return float(proc.stdout)


def blas_threads(np):
    """The thread count the loaded OpenBLAS reports, or 'unknown' if it cannot be read."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))   # already loaded by numpy: the same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return "unknown"


def environment(np, cli) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(np),
        "cli_threads": cli.build_parser().get_default("threads"),
    }


def run_op(cli, op, tracer):
    """Run one CLI command; return (ok, seconds, error text)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.op(op.argv[0]) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        start = perf_counter()
        try:
            code = cli.main(op.argv)
        except (Exception, SystemExit) as exc:   # a crash is a failed op, not a dead run
            code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    if code == 0:
        return True, seconds, ""
    return False, seconds, f"exit {code} {err.getvalue().strip()}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "taskclust" / "cli.py").is_file():
        print(f"error: no taskclust sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import checks
    import trace_summary
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())   # which metrics the JSON line holds

    start = perf_counter()
    import taskclust.cli as cli
    import_s = perf_counter() - start

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        start = perf_counter()
        wl.setup(work, args.seed)
        setup_times.append(perf_counter() - start + fresh_import_s())

    tracer = None
    if args.trace:
        from tracing import OBSERVED, Tracer, observed_counts
        tracer = Tracer()
        tracer.install(OBSERVED)

    ops = wl.ops(work, args.seed)
    rounds, records, problems, counts = [], [], [], {}
    begin = perf_counter()
    while not rounds or perf_counter() - begin < args.seconds:
        times = []
        for op in ops:
            ok, seconds, error = run_op(cli, op, tracer)
            times.append(seconds if ok else None)
            records.append({"round": len(rounds), "stage": op.stage, "argv": op.argv[0],
                            "ok": ok, "s": seconds, "error": error})
            if tracer:
                for key, value in observed_counts(tracer.results).items():
                    counts[key] = counts.get(key, 0) + value
                tracer.results.clear()
            if ok and op.check:
                try:
                    op.check()
                except (checks.CheckError, OSError, KeyError, ValueError) as exc:
                    problems.append(f"round {len(rounds)} {op.argv[0]} ({op.stage}): {exc}")
        rounds.append(times)
    shutil.rmtree(work, ignore_errors=True)

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    stages = {}
    for stage in dict.fromkeys(op.stage for op in ops):
        per_round = []
        for times in rounds:
            mine = [t for op, t in zip(ops, times) if op.stage == stage]
            per_round.append(None if None in mine else sum(mine))
        value = slowest(per_round)
        if value is not None and stage in wl.rates:
            value = wl.rates[stage] / value
        stages[stage] = value
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "round_s": (slowest(sum(t for op, t in zip(ops, ts) if t is not None and not op.known_failing)
                            for ts in rounds), "s"),
    }

    env = environment(np, cli)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {len(rounds)} rounds, "
          f"{attempted} ops attempted, {failed} failed")
    print(f"numpy {env['numpy']}, BLAS {env['blas']}, {env['cpu_count']} CPUs, {env['blas_threads']} BLAS "
          f"threads, taskclust --threads default {env['cli_threads']}")
    for r in records:
        if not r["ok"]:
            print(f"failed op: round {r['round']} {r['argv']} ({r['stage']}) after {r['s']:.3f} s: {r['error']}")
    for msg in problems:
        print(f"check failed: {msg}")
    for stage, value in stages.items():
        print(f"stage {stage:20s} {'no sample' if value is None else f'{value:.6g}'}")

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "rounds": len(rounds),
              "environment": env, "import_s": import_s, "setup_times": setup_times,
              "ops": records, "problems": problems, "stages": stages,
              "end_to_end": {k: v for k, (v, _) in e2e.items()}}
    stem = f"{wl.name}-seed{args.seed}"
    if tracer:
        layers = trace_summary.report(tracer.spans, counts, len(rounds), import_s,
                                       OUT / f"{stem}-trace0.json", record)
        record["spans_file"] = trace_summary.write_spans(OUT / f"{stem}-spans.json", tracer.spans, counts,
                                                         len(rounds), import_s)
        metrics = {m["name"]: layers[m["name"]] for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
        for name, (value, unit) in metrics.items():
            print(f"metric {name:20s} {value:.6g} {unit}")
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
