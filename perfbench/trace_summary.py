"""Per-layer numbers from a traced run's spans, and the tracing overhead.

    python3 perfbench/trace_summary.py --workload W --seed N

reads .perfbench_out/W-seedN-spans.json (written by run.py --trace 1) and,
when present, the untraced record W-seedN-trace0.json of the same seed, and
prints every per-layer metric, each traced function's calls, inclusive and
self time (span minus the part its child spans cover), each layer's self
time, and the overhead: traced minus untraced op time per round.

All numbers are per round. Times are busy time inside the wrapped calls; in
the sweep workload's thread pool, calls overlap, so busy time can exceed
wall time.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer, summarize

def layer_metrics(spans, counts: dict, rounds: int, import_s: float):
    """Every per-layer metric as name -> (value per round, unit), and the span summary."""
    summary = summarize(spans)
    fn = summary["functions"]

    def calls(name):
        return fn.get(name, {}).get("calls", 0) / rounds

    def secs(name):
        return fn.get(name, {}).get("s", 0.0) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    m = {"cli.self_s": (summary["layer_self_s"]["cli"] / rounds, "s"),
         "cli.import_s": (import_s, "s")}
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = (summary["layer_self_s"][layer] / rounds, "s")
    complete_calls = fn.get("completion.complete", {}).get("calls", 0)
    m.update({
        "completion.complete.calls": (calls("completion.complete"), "count"),
        "completion.complete.s": (secs("completion.complete"), "s"),
        "completion.iterations": (counts.get("completion.iterations", 0) / rounds, "count"),
        "completion.svt.calls": (calls("completion.svt"), "count"),
        "completion.svt.s": (secs("completion.svt"), "s"),
        "completion.svt.ms_per_call": (1000 * ratio(secs("completion.svt"), calls("completion.svt")), "ms"),
        "completion.converged_per_call": (ratio(counts.get("completion.converged", 0), complete_calls), "ratio"),
        "completion.x_rank": (ratio(counts.get("completion.x_rank_sum", 0), complete_calls), "rank"),
        "transfer.train_single_task.calls": (calls("transfer.train_single_task"), "count"),
        "transfer.train_single_task.s": (secs("transfer.train_single_task"), "s"),
        "transfer.transfer_score.calls": (calls("transfer.transfer_score"), "count"),
        "transfer.transfer_score.s": (secs("transfer.transfer_score"), "s"),
        "transfer.build_transfer_matrix.s": (secs("transfer.build_transfer_matrix"), "s"),
        "transfer.softmax.calls": (calls("transfer.softmax"), "count"),
        "learning.train_cluster_model.calls": (calls("learning.train_cluster_model"), "count"),
        "learning.train_cluster_model.s": (secs("learning.train_cluster_model"), "s"),
        "learning.fsl_combine.s": (secs("learning.fsl_combine"), "s"),
        "learning.adaptive_fsl.calls": (calls("learning.adaptive_fsl"), "count"),
        "learning.fallback_per_target": (ratio(counts.get("learning.adaptive_fsl.fallbacks", 0),
                                               fn.get("learning.adaptive_fsl", {}).get("calls", 0)), "ratio"),
        "filtering.filter_scores.s": (secs("filtering.filter_scores"), "s"),
        "filtering.decided_pairs": (counts.get("filtering.decided_pairs", 0) / rounds, "count"),
        "spectral.spectral_cluster.s": (secs("spectral.spectral_cluster"), "s"),
        "spectral.kmeans.s": (secs("spectral.kmeans"), "s"),
        "fileio.read_task_dir.calls": (calls("fileio.read_task_dir"), "count"),
        "fileio.bytes_written": (counts.get("fileio.bytes_written", 0) / rounds, "B"),
        "synthdata.make_task_family.s": (secs("synthdata.make_task_family"), "s"),
        "bench.phase_sweep.s": (secs("bench.phase_sweep"), "s"),
        "bench.recovery_trial.calls": (calls("bench.recovery_trial"), "count"),
        "bench.recovery_trial.s": (secs("bench.recovery_trial"), "s"),
        "bench.observe_and_corrupt.s": (secs("bench.observe_and_corrupt"), "s"),
    })
    for name in ("read_task_dir", "write_task_json", "read_transfer_csv", "write_partial_csv",
                 "read_partial_csv", "write_dense_csv"):
        m[f"fileio.{name}.s"] = (secs(f"fileio.{name}"), "s")
    return m, summary


def span_cost_s(calls: int = 100_000) -> float:
    """Seconds a wrapper adds to one call, timed on a function that does nothing."""
    def nothing():
        return None

    traced = Tracer()._wrap("calibration", nothing, False)
    start = perf_counter()
    for _ in range(calls):
        nothing()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        traced()
    return max(perf_counter() - start - bare, 0.0) / calls


def report(spans, counts, rounds, import_s, untraced_path: Path, record: dict) -> dict:
    """Print the full per-layer table and the overhead; return every per-layer metric."""
    metrics, summary = layer_metrics(spans, counts, rounds, import_s)
    print(f"per-layer metrics (per round, {rounds} rounds, {len(spans)} spans):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print("traced functions (per round):    calls        incl s        self s")
    for name, row in sorted(summary["functions"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:32s} {row['calls'] / rounds:9.6g} {row['s'] / rounds:13.6g} "
              f"{row['self_s'] / rounds:13.6g}")
    cost = span_cost_s()
    print(f"tracing overhead estimate: {len(spans) / rounds:.0f} spans per round x {1e6 * cost:.2f} us "
          f"per span = {len(spans) / rounds * cost:.4f} s per round")
    traced = record["end_to_end"]["round_s"]
    if untraced_path.is_file():
        untraced = json.loads(untraced_path.read_text())["end_to_end"]["round_s"]
        print(f"tracing overhead, this one traced/untraced pair: {traced - untraced:+.4f} s per round "
              f"({100 * (traced - untraced) / untraced:+.2f}% of the untraced {untraced:.4f} s; "
              f"overhead.py compares five pairs)")
    else:
        print(f"tracing overhead, measured: no untraced record {untraced_path.name} to compare "
              f"(traced op time {traced:.4f} s per round)")
    return metrics


def write_spans(path: Path, spans, counts, rounds, import_s) -> str:
    """Spans as [id, name index, start ns, end ns, parent] relative to the first span."""
    names = sorted({s[1] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = min((s[2] for s in spans), default=0.0)
    rows = [[sid, index[name], round((a - t0) * 1e9), round((b - t0) * 1e9), parent]
            for sid, name, a, b, parent in spans]
    doc = {"names": names, "spans": rows, "counts": counts, "rounds": rounds, "import_s": import_s}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return path.name


def read_spans(path: Path):
    doc = json.loads(path.read_text())
    names = doc["names"]
    spans = [(sid, names[i], a / 1e9, b / 1e9, parent) for sid, i, a, b, parent in doc["spans"]]
    return spans, doc["counts"], doc["rounds"], doc["import_s"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", default=str(Path(__file__).resolve().parent.parent / ".perfbench_out"))
    args = p.parse_args(argv)
    base = Path(args.dir) / f"{args.workload}-seed{args.seed}"
    spans_path = Path(f"{base}-spans.json")
    if not spans_path.is_file():
        print(f"error: {spans_path} not found; run perfbench/run.py --trace 1 first", file=sys.stderr)
        return 2
    spans, counts, rounds, import_s = read_spans(spans_path)
    record = json.loads(Path(f"{base}-trace1.json").read_text())
    report(spans, counts, rounds, import_s, Path(f"{base}-trace0.json"), record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
