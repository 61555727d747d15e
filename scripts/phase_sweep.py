"""Render a phase sweep as an ASCII heatmap of recovery probability.

Reads the CSV that `taskclust sweep` writes and prints one row per
observation level m1, one glyph per corruption level m2, darker where more
trials recovered the planted matrix. Useful for eyeballing where the
recovery phase transition sits for a given matrix size:

    taskclust sweep --out sweep.csv --n 30 --clusters 3 --trials 5
    python scripts/phase_sweep.py sweep.csv
"""

import argparse

from taskclust.fileio import read_sweep_csv

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
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("csv", help="a sweep CSV written by taskclust sweep")
    print(render(read_sweep_csv(ap.parse_args().csv)))


if __name__ == "__main__":
    main()
