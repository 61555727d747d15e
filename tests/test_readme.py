"""The README's library example runs as written and prints what it promises."""

import contextlib
import io
import re
from pathlib import Path

from taskclust.spectral import adjusted_rand_index

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_library_use_block_clusters_the_plant():
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 1
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    assert out.getvalue() == "1.0\n"
    assert adjusted_rand_index(namespace["part"].assignment, namespace["membership"]) == 1.0
