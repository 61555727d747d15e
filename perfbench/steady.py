"""Steadiness check: two sets of runs of the same code must agree within the bounds.

    python3 perfbench/steady.py --workload W [--first-seed 1]

Runs run.py ten times in sequence at BENCHMARK.json's run_seconds, each with
its own seed (set A takes the first five seeds, set B the next). For every
end-to-end metric in BENCHMARK.json it prints each set's median, the change
from A to B, the spread of each set and of all runs (distance between the
first and third quartile as a share of the median), whether the medians agree
within the metric's bound, and whether the spread of all runs stays within
it. Every run's attempted and failed op counts are printed, and the two sets
must fail the same share of ops. Exits 1 if anything disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5   # per set


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    sets = []
    seed = args.first_seed
    for label in "AB":
        results = []
        for _ in range(RUNS):
            r = run_once(args.workload, seed, spec["run_seconds"])
            print(f"set {label} seed {seed}: correct {r['correct']}, attempted {r['attempted']}, "
                  f"failed {r['failed']}, " + ", ".join(
                      f"{k} {v['value']:.6g} {v['unit']}" for k, v in r["metrics"].items()), flush=True)
            results.append(r)
            seed += 1
        sets.append(results)

    ok = all(r["correct"] for s in sets for r in s)
    shares = [{(r["failed"], r["attempted"]) for r in s} for s in sets]
    share_a = {f / a for f, a in shares[0]}
    share_b = {f / a for f, a in shares[1]}
    same_share = len(share_a | share_b) == 1
    ok &= same_share
    print(f"failed share: set A {sorted(share_a)}, set B {sorted(share_b)} -> "
          f"{'same' if same_share else 'DIFFERENT'}")
    print(f"{'metric':14s} {'median A':>11s} {'median B':>11s} {'change':>8s} {'bound':>6s} "
          f"{'spread A':>8s} {'spread B':>8s} {'spread':>7s}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in sets[0]]
        b = [r["metrics"][name]["value"] for r in sets[1]]
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma
        sp_a, sp_b, sp_all = spread(a), spread(b), spread(a + b)
        agree = abs(change) <= bound
        steady = sp_all <= bound
        ok &= agree and steady
        verdict = ("agree" if agree else "DISAGREE") + ("" if steady else ", SPREAD OVER BOUND")
        print(f"{name:14s} {ma:11.5g} {mb:11.5g} {100 * change:+7.2f}% {bound:6.2f} "
              f"{sp_a:8.3f} {sp_b:8.3f} {sp_all:7.3f}  {verdict}")
    print(json.dumps({"workload": args.workload, "steady": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
