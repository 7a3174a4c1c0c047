"""Code rules over the modules of ``src/pairdom``, ``tests`` and ``tools``.

Every name a module imports is read in that module. A name counts as read
when the module loads it (an ``ast.Name`` in a load context, annotations
included). An import kept only for re-export carries ``# noqa: F401`` on
its line, as ``harness`` does for ``CHECKS``, which the benchmark reads
through it.

No def or class name is bound twice in one module or class body: Python
keeps the later one, so the earlier never runs, and pytest collects only
the later of two same-named tests.

No function defined inside another function of ``src/pairdom`` reads its
own name. Such a closure and its cell refer to each other, so every call
of the outer function leaves a reference cycle that only the cyclic
collector frees; a search recurses through a module-level function instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "pairdom").glob("*.py"))
TESTS_AND_TOOLS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")])


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


def rebound_definitions(source: str) -> list[str]:
    """``name:line`` for each def or class statement of ``source`` that
    binds a name an earlier def or class of the same module or class body
    bound."""
    tree = ast.parse(source)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    rebound = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        seen = set()
        for node in scope.body:
            if isinstance(node, defs):
                if node.name in seen:
                    rebound.append(f"{node.name}:{node.lineno}")
                seen.add(node.name)
    return rebound


def self_referencing_closures(source: str) -> list[str]:
    """The qualified name of each function of ``source`` defined inside
    another function whose body reads its own name."""
    found = []

    def visit(node, prefix: str, nested: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if nested and any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                                  and n.id == child.name
                                  for stmt in child.body for n in ast.walk(stmt)):
                    found.append(name)
                visit(child, name + ".<locals>.", True)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", nested)
            else:
                visit(child, prefix, nested)

    visit(ast.parse(source), "", False)
    return found


def found_by(rule, paths) -> dict[str, list[str]]:
    """What ``rule`` finds in each of ``paths``, by path below the repo."""
    return {str(path.relative_to(ROOT)): found for path in paths
            if (found := rule(path.read_text()))}


def test_rule_on_examples():
    assert unused_imports("import os\nos.sep\n") == []
    assert unused_imports("import os.path\nos.path.sep\n") == []
    assert unused_imports("from a import b, c as d\nb\n") == ["d"]
    assert unused_imports("from a import b  # noqa: F401\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from a import b\ndef f(x: b): pass\n") == []


def test_rebinding_rule_on_examples():
    assert rebound_definitions("def f(): pass\ndef g(): pass\n") == []
    assert rebound_definitions("def f(): pass\nclass f: pass\n") == ["f:2"]
    assert rebound_definitions(
        "class T:\n    def test_a(self): pass\n    def test_a(self): pass\n") == ["test_a:3"]
    # separate bodies, and a def that only a branch or a function holds
    assert rebound_definitions(
        "def f(): pass\nclass A:\n    def f(self): pass\nclass B:\n    def f(self): pass\n"
    ) == []
    assert rebound_definitions(
        "if x:\n    def f(): pass\nelse:\n    def f(): pass\n") == []
    assert rebound_definitions(
        "def f():\n    def g(): pass\n    return g\ndef g(): pass\n") == []
    # a name bound twice inside a nested class counts too
    assert rebound_definitions(
        "class A:\n    class B:\n        def f(self): pass\n        def f(self): pass\n"
    ) == ["f:4"]


def test_closure_rule_on_examples():
    recursive = "def f():\n    def rec(k):\n        return k and rec(k - 1)\n    return rec(3)\n"
    assert self_referencing_closures(recursive) == ["f.<locals>.rec"]
    # a module-level or class-level function may recurse by name
    assert self_referencing_closures("def f(k):\n    return k and f(k - 1)\n") == []
    assert self_referencing_closures(
        "class A:\n    def f(self):\n        return f\n") == []
    # a closure that reads only other names, or is only named by its outer
    # function, is no cycle
    assert self_referencing_closures(
        "def f(x):\n    def g():\n        return x\n    return g\n") == []
    # deeper nesting and methods give qualified names
    assert self_referencing_closures(
        "class A:\n    def m(self):\n        def g():\n            def h():\n"
        "                return h\n            return h\n        return g\n"
    ) == ["A.m.<locals>.g.<locals>.h"]


def test_no_unused_import_in_src():
    assert found_by(unused_imports, SRC) == {}


def test_no_unused_import_in_tests_and_tools():
    assert found_by(unused_imports, TESTS_AND_TOOLS) == {}


def test_no_definition_rebound():
    assert found_by(rebound_definitions, SRC + TESTS_AND_TOOLS) == {}


def test_no_self_referencing_closure_in_src():
    assert found_by(self_referencing_closures, SRC) == {}
