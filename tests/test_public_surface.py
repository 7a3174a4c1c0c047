"""Every public top-level name in pairdom, and every public method and
property of its classes, has a caller outside the tests.

A name counts as used when code in ``src/`` or ``perfbench/`` reads it (an
``ast.Name`` or ``ast.Attribute``) or imports it, or when a benchmark file
spells it as a string (``perfbench/tracing.py`` names the layers it wraps
by module and attribute). A method or property counts as used when that
code reads it as an attribute, or a benchmark file spells its name as a
string. Docstrings do not count. A helper that only tests need belongs in
the tests, as ``tests/oracles.py`` holds the reference implementations.

The same helpers keep one boundary in place: ``characterizations`` is the
one module that reads ``Facts`` and catches the exact scans' guard.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "pairdom").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))

# Public names, and Class.method names, kept without a caller, each for the
# ROADMAP item that gives it one.
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


def public_methods(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) for each public method and property that a module's
    top-level classes define."""
    return {(cls.name, node.name) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


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


def references(tree: ast.Module, strings: bool, names: bool = True) -> set[str]:
    """The attributes a module reads, with ``names`` also the names it reads
    or imports, and with ``strings`` also the string constants it holds
    outside docstrings."""
    skip = docstrings(tree)
    out = set()
    for node in ast.walk(tree):
        if names and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif names and isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and id(node) not in skip):
            out.add(node.value)
    return out


def guard_handlers(tree: ast.Module) -> set[str]:
    """The name of the top-level def around each ``except`` clause that
    names ``GuardError``, alone or in a tuple; "" for one outside a def."""
    out = set()
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else ""
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                          else [node.type])
                if any(isinstance(c, ast.Name) and c.id == "GuardError"
                       or isinstance(c, ast.Attribute) and c.attr == "GuardError"
                       for c in caught):
                    out.add(name)
    return out


def test_one_module_reads_facts_and_catches_the_guard():
    # characterizations builds every record that reads Facts, so it alone
    # catches the exact scans' guard; the harness only loads sources, runs
    # the map and folds the results.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SRC}
    handlers = {(module, name) for module, tree in trees.items()
                for name in guard_handlers(tree)}
    assert handlers == {("characterizations.py", "run_checks"),
                        ("characterizations.py", "hunt_record"),
                        ("characterizations.py", "invariants_record")}
    assert "Facts" not in references(trees["harness.py"], strings=False)


def test_guard_handlers_on_examples():
    tree = ast.parse(
        "def f():\n    try:\n        pass\n    except (OSError, d.GuardError):\n        pass\n"
        "def g():\n    try:\n        pass\n    except ValueError:\n        pass\n"
        "try:\n    pass\nexcept GuardError:\n    pass\n")
    assert guard_handlers(tree) == {"f", ""}


def test_every_public_name_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SRC + PERFBENCH}
    used, attributes = set(), set()
    for path, tree in trees.items():
        used |= references(tree, strings=path in PERFBENCH)
        attributes |= references(tree, strings=path in PERFBENCH, names=False)
    public = {name for path in SRC for name in public_names(trees[path])}
    unused = public - used
    for path in SRC:
        unused |= {f"{cls}.{name}" for cls, name in public_methods(trees[path])
                   if name not in attributes}
    assert sorted(unused) == sorted(ALLOWED)
