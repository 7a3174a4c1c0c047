"""The pairdom names the benchmark uses must exist in pairdom.

``perfbench/tracing.py`` replaces pairdom functions by name, and the other
benchmark scripts import pairdom names or read them off pairdom modules. A
change that drops or renames one fails here, in the fast suite, and not
only in the slow ``pytest perfbench`` run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from pairdom import harness
from pairdom.characterizations import ALL_CHECK_IDS, Facts
from pairdom.families import make_cycle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_pairdom_functions():
    tracing = load_tracing()
    missing = [
        (name, module, attr)
        for name, (module, attr) in tracing.LAYER_FUNCTIONS.items()
        if not module.startswith("pairdom.")
        or not inspect.isfunction(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    assert set(tracing.COUNTED) <= set(tracing.LAYER_FUNCTIONS)


def test_counted_layers_return_sized_results():
    # The tracer adds len(result) of these layers to its counts, so each
    # must return something whose length is the number of items it holds.
    tracing = load_tracing()
    c4, c5 = make_cycle(4), make_cycle(5)
    inputs = {"generate": (3,),
              "domination.mds": (c5,),
              "domination.pds": (c5,),
              "domination.pds_filter": (c5,),
              "matching.enum": (c4, c4.full_mask)}
    assert set(inputs) == set(tracing.COUNTED)
    for name, args in inputs.items():
        module, attr = tracing.LAYER_FUNCTIONS[name]
        result = getattr(importlib.import_module(module), attr)(*args)
        assert len(result) == len(list(result)) > 0, name


def test_traced_facts_and_checks_exist():
    assert inspect.isfunction(Facts.matchings)
    assert list(harness.CHECKS) == list(ALL_CHECK_IDS)


def _submodule(name: str):
    """The pairdom module called name, or None when there is none."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _module_of(node, modules: dict):
    """The pairdom module an expression names, given the local names bound
    to pairdom modules, or None."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute):
        parent = _module_of(node.value, modules)
        if parent is not None and hasattr(parent, "__path__"):
            return _submodule(f"{parent.__name__}.{node.attr}")
    return None


def benchmark_names(path: Path):
    """(module, name) for every name a benchmark script imports from
    pairdom, and every attribute it reads off an imported pairdom module."""
    tree = ast.parse(path.read_text(), str(path))
    modules, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pairdom":
                    # "import pairdom.x" binds pairdom, "... as y" binds x
                    modules[alias.asname or "pairdom"] = importlib.import_module(
                        alias.name if alias.asname else "pairdom")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "pairdom"):
            for alias in node.names:
                sub = _submodule(f"{node.module}.{alias.name}")
                if sub is not None:
                    modules[alias.asname or alias.name] = sub
                else:
                    used.append((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            module = _module_of(node.value, modules)
            if module is not None:
                used.append((module.__name__, node.attr))
    return used


def test_benchmark_scripts_use_existing_pairdom_names():
    used = {(path.name, module, name)
            for path in sorted(PERFBENCH.glob("*.py"))
            for module, name in benchmark_names(path)}
    missing = [entry for entry in sorted(used)
               if not hasattr(importlib.import_module(entry[1]), entry[2])]
    assert missing == []
    # the collector sees both forms, so an empty "missing" means something
    assert {("worker.py", "pairdom.domination", "invariants"),
            ("worker.py", "pairdom.harness", "RunConfig"),
            ("worker.py", "pairdom.generate", "triangle_free"),
            ("worker.py", "pairdom.graph", "parse_graph6"),
            ("make_refs.py", "pairdom.domination", "paired_dominating_masks"),
            ("tracing.py", "pairdom.harness", "CHECKS"),
            ("cli_probed.py", "pairdom.cli", "main")} <= used
