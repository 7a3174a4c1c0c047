"""Every public top-level name in pairdom has a caller outside the tests.

A name counts as used when code in ``src/`` or ``perfbench/`` reads it (an
``ast.Name`` or ``ast.Attribute``) or imports it, or when a benchmark file
spells it as a string (``perfbench/tracing.py`` names the layers it wraps
by module and attribute). Docstrings do not count. A helper that only tests
need belongs in the tests, as ``tests/oracles.py`` holds the reference
implementations.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "pairdom").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Public names kept without a caller, each for the ROADMAP item that gives
# it one.
ALLOWED = {
    "girth_at_least": "item 13: the girth5:N source of the girth >= 5 hunt",
    "at_most_one_cycle_per_component": "item 6: the onecycle:N source",
}


def public_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level, but for _private ones."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of a module and its defs."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def references(tree: ast.Module, strings: bool) -> set[str]:
    """The names a module reads or imports, and with ``strings`` also the
    string constants it holds outside docstrings."""
    skip = docstrings(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and id(node) not in skip):
            out.add(node.value)
    return out


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC + PERFBENCH}
    used = set()
    for path, tree in trees.items():
        used |= references(tree, strings=path in PERFBENCH)
    public = {name for path in SRC for name in public_names(trees[path])}
    assert sorted(public - used) == sorted(ALLOWED)
