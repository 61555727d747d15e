"""Check the result line of a perfbench run.

usage: python .github/check_bench_line.py RESULT_FILE [COUNTER ...]

RESULT_FILE holds the stdout of ``perfbench/run.py``; its last line is the
JSON result. The check passes when that line reads ``correct: true`` and
``failed: 0`` and every COUNTER named (a key of its ``metrics``) has a
nonzero value. Otherwise it exits with a message saying what it found.
"""

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int | str:
    if not argv:
        return __doc__
    lines = Path(argv[0]).read_text().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    metrics = result.get("metrics", {})
    zero = [name for name in argv[1:] if not metrics.get(name, {}).get("value")]
    if result.get("correct") is True and result.get("failed") == 0 and not zero:
        return 0
    return (f"last line is not correct: true with failed: 0, or these counters read 0: {zero} "
            f"(correct: {result.get('correct')}, failed: {result.get('failed')})")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
