"""Map recovery probability over the (observation, corruption) grid.

Runs the synthetic benchmark on a planted block matrix for every cell of an
m1 x m2 fraction grid and renders the resulting probabilities as an ASCII
heatmap, with the raw numbers written to CSV. Useful for eyeballing where
the recovery phase transition sits for a given matrix size.
"""

import argparse
import time

from taskclust.bench import phase_sweep
from taskclust.fileio import write_sweep_csv

GLYPHS = " .:-=+*#%@"


def render(cells):
    # corruption counts scale with each row's m1, so group per observation level
    rows = {}
    for c in cells:
        rows.setdefault(c.m1, []).append(c)
    lines = ["recovery probability (rows: m1 low to high, cols: m2 low to high)"]
    for m1 in sorted(rows):
        row = []
        for c in sorted(rows[m1], key=lambda c: c.m2):
            row.append(GLYPHS[min(int(c.prob * (len(GLYPHS) - 1)), len(GLYPHS) - 1)])
        lines.append(f"  m1={m1:6d} |{''.join(row)}|")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=30, help="matrix size")
    ap.add_argument("--clusters", type=int, default=3)
    ap.add_argument("--trials", type=int, default=10, help="seeds per grid cell")
    ap.add_argument("--m1-steps", type=int, default=8, help="observation grid points")
    ap.add_argument("--m2-steps", type=int, default=5, help="corruption grid points")
    ap.add_argument("--m2-max", type=float, default=0.10, help="largest corruption fraction")
    ap.add_argument("--lam", type=float, default=None)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args()

    m1_fracs = [(i + 1) / args.m1_steps for i in range(args.m1_steps)]
    m2_fracs = [args.m2_max * i / max(args.m2_steps - 1, 1) for i in range(args.m2_steps)]

    t0 = time.perf_counter()
    cells = phase_sweep(
        n=args.n, k=args.clusters, m1_fracs=m1_fracs, m2_fracs=m2_fracs,
        trials=args.trials, seed=args.seed, lam=args.lam,
    )
    elapsed = time.perf_counter() - t0

    write_sweep_csv(cells, args.out)
    print(render(cells))
    print(f"\n{len(cells)} cells x {args.trials} trials in {elapsed:.1f}s -> {args.out}")


if __name__ == "__main__":
    main()
