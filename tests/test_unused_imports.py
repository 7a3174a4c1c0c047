"""Every name a ``src/pairdom`` module imports is read in that module.

A name counts as read when the module loads it (an ``ast.Name`` in a load
context, annotations included). An import kept only for re-export carries
``# noqa: F401`` on its line, as ``harness`` does for ``CHECKS``, which the
benchmark reads through it.
"""

import ast
from pathlib import Path

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "pairdom").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that it never reads,
    but for ``__future__`` imports and lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read:
                unused.append(name)
    return unused


def test_rule_on_examples():
    assert unused_imports("import os\nos.sep\n") == []
    assert unused_imports("import os.path\nos.path.sep\n") == []
    assert unused_imports("from a import b, c as d\nb\n") == ["d"]
    assert unused_imports("from a import b  # noqa: F401\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from a import b\ndef f(x: b): pass\n") == []


def test_no_unused_import_in_src():
    unused = {path.name: names for path in SRC
              if (names := unused_imports(path.read_text()))}
    assert unused == {}
