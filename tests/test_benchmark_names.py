"""The pairdom names the benchmark uses must exist in pairdom, and the
outputs its references pin must still be what pairdom gives.

``perfbench/tracing.py`` replaces pairdom functions by name, and the other
benchmark scripts import pairdom names or read them off pairdom modules. A
change that drops or renames one fails here, in the fast suite, and not
only in the slow ``pytest perfbench`` run. So does a change that adds or
renames a check, or relabels a hunt satisfier, which every benchmark run
would count as wrong until the references are re-recorded.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from pairdom import harness
from pairdom.characterizations import ALL_CHECK_IDS, Facts, hunt_c3free_counterexamples
from pairdom.families import make_cycle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
RERECORD = "a benchmark PR must re-record it with perfbench/make_refs.py"


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


@pytest.mark.parametrize("name", ["verify-enum8.json", "tiny-verify-enum6.json"])
def test_verify_refs_name_every_check_in_order(name):
    # perfbench/run.py counts a verify run as wrong on every graph when its
    # check ids differ from the refs.
    totals = json.loads((PERFBENCH / "refs" / name).read_text())["totals"]
    assert list(totals) == list(ALL_CHECK_IDS), (
        f"perfbench/refs/{name} names other checks than ALL_CHECK_IDS; {RERECORD}")


@pytest.mark.parametrize("name", ["hunt-c3free9.json", "tiny-hunt-c3free7.json"])
def test_hunt_refs_pin_the_satisfiers_as_generated(name, c3free_up_to_9):
    ref = json.loads((PERFBENCH / "refs" / name).read_text())
    n = ref["n"]
    graphs = [g for g in c3free_up_to_9 if g.n <= n]
    report = hunt_c3free_counterexamples(graphs)
    got = {"per_order": [sum(g.n == k for g in graphs) for k in range(n + 1)],
           "skipped": report.skipped,
           "satisfiers": sorted(s["graph6"] for s in report.satisfiers)}
    assert got == {key: ref[key] for key in got}, (
        f"perfbench/refs/{name} pins other satisfiers or counts; {RERECORD}")
