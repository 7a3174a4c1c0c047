"""Record the benchmark's reference outputs from the current program.

    PYTHONPATH=src python3 perfbench/make_refs.py

Writes every ``perfbench/refs/*.json``: the full-size references the
workloads check against and the tiny ones the benchmark's own tests use,
all from the same program. Graph
counts are checked against the published OEIS tables before anything is
written. Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from pairdom import harness
from pairdom.characterizations import hunt_c3free_counterexamples
from pairdom.domination import invariants, paired_dominating_masks
from pairdom.generate import nonisomorphic_graphs, triangle_free
from pairdom.graph import build_graph, encode_graph6

REFS = Path(__file__).resolve().parent / "refs"
A000088 = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668]  # graphs on n nodes
A006785 = [1, 1, 2, 3, 7, 14, 38, 107, 410, 1897]  # triangle-free graphs


def verify_refs(n: int) -> dict:
    report, code = harness.run(harness.RunConfig("verify", f"enum:{n}", jobs=2))
    totals = report.to_record()["totals"]
    graphs = totals[harness.ALL_CHECK_IDS[0]]["scanned"]
    if graphs != A000088[n]:
        raise ValueError(f"enum:{n} gave {graphs} graphs, A000088 says {A000088[n]}")
    return {"n": n, "graphs": graphs, "exit_code": code, "totals": totals}


def hunt_refs(n: int) -> dict:
    graphs = nonisomorphic_graphs(n, triangle_free)
    per_order = [sum(g.n == k for g in graphs) for k in range(n + 1)]
    if per_order != A006785[: n + 1]:
        raise ValueError(f"triangle-free counts {per_order} differ from A006785")
    report = hunt_c3free_counterexamples(graphs)
    return {"n": n, "per_order": per_order, "scanned": report.scanned,
            "skipped": report.skipped,
            "satisfiers": sorted(s["graph6"] for s in report.satisfiers),
            "exceptions": len(report.exceptions),
            "non_cactus": len(report.non_cactus_satisfiers)}


def connected_gnp(rng: random.Random, n: int, p: float):
    """G(n, p) plus the edges of a random Hamiltonian path, so connected."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted(e)) for e in zip(order, order[1:])}
    edges |= {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p}
    return build_graph(n, sorted(edges))


def gnp_refs(ns, ps, per_cell: int) -> dict:
    cells = []
    for n in ns:
        for p in ps:
            rng = random.Random(f"pairdom-gnp-{n}-{p}")
            graphs = []
            for _ in range(per_cell):
                g = connected_gnp(rng, n, p)
                r = invariants(g)
                # "pds" counts every paired dominating set; it sets the cost
                # of the minimality filter and the memory a graph needs.
                graphs.append({"g6": encode_graph6(g), "values": [
                    r.gamma, r.upper_gamma, r.gamma_pr, r.upper_gamma_pr],
                    "pds": len(paired_dominating_masks(g))})
            cells.append({"n": n, "p": p, "graphs": graphs})
    return {"cells": cells}


def write(name: str, data: dict):
    REFS.mkdir(exist_ok=True)
    (REFS / name).write_text(json.dumps(data, indent=1) + "\n")
    print("wrote", REFS / name)


REFS_FILES = {
    "tiny-verify-enum6.json": lambda: verify_refs(6),
    "tiny-hunt-c3free7.json": lambda: hunt_refs(7),
    "tiny-invariants-gnp12.json": lambda: gnp_refs((12,), (0.15, 0.3), 6),
    "verify-enum8.json": lambda: verify_refs(8),
    "hunt-c3free9.json": lambda: hunt_refs(9),
    "invariants-gnp.json": lambda: gnp_refs((16, 17, 18), (0.15, 0.3), 24),
}


def main():
    for name, make in REFS_FILES.items():
        write(name, make())


if __name__ == "__main__":
    main()
