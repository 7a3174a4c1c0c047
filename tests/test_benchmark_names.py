"""The names the benchmark's tracer wraps must exist in pairdom.

``perfbench/tracing.py`` replaces pairdom functions by name. A change that
drops or renames one fails here, in the fast suite, and not only in the
slow ``pytest perfbench`` run.
"""

import importlib.util
import inspect
from pathlib import Path

from pairdom import harness
from pairdom.characterizations import ALL_CHECK_IDS, Facts

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def test_traced_facts_and_checks_exist():
    assert inspect.isfunction(Facts.matchings)
    assert list(harness.CHECKS) == list(ALL_CHECK_IDS)
