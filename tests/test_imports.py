"""Import hygiene: every name a source file imports is used in that file."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.AST) -> list[str]:
    """The names ``tree`` binds by import and never reads. ``import a.b``
    binds ``a``; ``from __future__`` imports bind nothing."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_source_file_imports_a_name_it_never_uses():
    files = sorted(f for d in ("src", "scripts", "tests") for f in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    unused = {str(f.relative_to(ROOT)): names for f in files
              if (names := unused_imports(ast.parse(f.read_text(), str(f))))}
    assert unused == {}


def test_the_scan_sees_each_kind_of_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
                     "def f():\n    from math import pi\n    return np.zeros(1), os.sep, dumps\n")
    assert unused_imports(tree) == ["line 4: loads", "line 6: pi"]
