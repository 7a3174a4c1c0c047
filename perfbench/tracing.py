"""In-memory spans around calls into pairdom's layers.

A span is (name, start, end, parent index). Spans are recorded by wrapping
public functions of the program from the benchmark side: every module
attribute of ``pairdom`` that is the original function object is replaced
by a wrapper, so calls the program makes between its own modules are
traced as well. The lazily computed fields of
``characterizations.Facts`` share one span, ``characterizations.facts``.
Nothing is written while a pass runs; ``write`` dumps the
spans once the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, function) whose calls are traced. Names match the
# per-layer metric prefixes in BENCHMARK.json.
LAYER_FUNCTIONS = {
    "generate": ("pairdom.generate", "nonisomorphic_graphs"),
    "families.classify": ("pairdom.families", "classify"),
    "families.recognize": ("pairdom.families", "recognize_family"),
    "families.cactus": ("pairdom.families", "every_block_edge_or_cycle"),
    "domination.mds": ("pairdom.domination", "minimal_dominating_masks"),
    "domination.pds": ("pairdom.domination", "paired_dominating_masks"),
    # minimal_paired_dominating_masks calls paired_dominating_masks, so its
    # self time is the minimality filter alone.
    "domination.pds_filter": ("pairdom.domination", "minimal_paired_dominating_masks"),
    "domination.invariants": ("pairdom.domination", "invariants"),
    "domination.independence": ("pairdom.domination", "independence_number"),
    "matching.enum": ("pairdom.matching", "all_perfect_matchings"),
    "characterizations.hunt_record": ("pairdom.characterizations", "hunt_record"),
    "harness.load_source": ("pairdom.harness", "load_source"),
}

# Spans whose result length is counted as work done.
COUNTED = {
    "generate": "generate.graphs",
    "domination.mds": "domination.mds_count",
    "domination.pds": "domination.pds_count",
    "domination.pds_filter": "domination.mpds_count",
    "matching.enum": "matching.count",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list = []  # [span index, seconds covered by children]

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
            took = end - start
            if self._stack:
                self._stack[-1][1] += took
            self.total_s[name] += took
            self.self_s[name] += took - frame[1]
        counter = COUNTED.get(name)
        if counter is not None:
            self.counts[counter] += len(result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def instrument(self):
        """Trace every call into LAYER_FUNCTIONS, into each registry check
        and into the Facts fields, for the rest of the process."""
        import pairdom.harness as harness
        from pairdom.characterizations import Facts

        modules = [m for k, m in sys.modules.items()
                   if k == "pairdom" or k.startswith("pairdom.")]
        for name, (module_name, attr) in LAYER_FUNCTIONS.items():
            original = getattr(importlib.import_module(module_name), attr)
            traced = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        for cid, fn in list(harness.CHECKS.items()):
            harness.CHECKS[cid] = self.wrap(f"characterizations.check.{cid}", fn)
        for attr, value in list(vars(Facts).items()):
            if isinstance(value, functools.cached_property):
                traced = functools.cached_property(
                    self.wrap("characterizations.facts", value.func))
                traced.__set_name__(Facts, attr)
                setattr(Facts, attr, traced)
        Facts.matchings = self.wrap("characterizations.facts", Facts.matchings)

    def write(self, path):
        """Write one tab-separated line per span: index, name, start,
        end, parent index (-1 for a root)."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
