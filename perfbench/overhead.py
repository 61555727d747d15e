"""Tracing overhead: traced minus untraced op time, over alternating runs of one seed.

    python3 perfbench/overhead.py --workload W

Runs run.py ten times in sequence on seed 1, alternating --trace 0 and
--trace 1, one round each (--seconds 1). From each run's record it takes
round_s, the op time of the round. It prints every pair's difference (traced
minus the untraced run before it), the median difference as a share of the
untraced median, and the first and third quartile of the differences. If that
interval holds 0 the overhead is unresolved: it is smaller than the host's
run-to-run drift.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 5
SEED = 1


def round_s(workload: str, seed: int, trace: int) -> float:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"trace {trace}: run.py exited {proc.returncode}\n{proc.stderr}")
    record = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())["end_to_end"]["round_s"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    args = p.parse_args(argv)

    untraced, diffs = [], []
    for i in range(PAIRS):
        u = round_s(args.workload, SEED, 0)
        t = round_s(args.workload, SEED, 1)
        untraced.append(u)
        diffs.append(t - u)
        print(f"pair {i}: untraced {u:.4f} s, traced {t:.4f} s, difference {t - u:+.4f} s", flush=True)
    base = statistics.median(untraced)
    q1, med, q3 = statistics.quantiles(diffs, n=4)
    resolved = q1 > 0 or q3 < 0
    print(f"{args.workload}: median difference {med:+.4f} s ({100 * med / base:+.2f}% of the untraced "
          f"median {base:.4f} s), quartiles {100 * q1 / base:+.2f}% to {100 * q3 / base:+.2f}% -> "
          f"{'resolved' if resolved else 'unresolved'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
