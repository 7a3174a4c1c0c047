"""One measured pass of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py <task> <spec-json> <draw> <trace 0|1>

Tasks: ``setup``, ``hunt``, ``gnp``, ``trace-verify``.
The worker imports the program, builds its inputs and loads the
references before its clock starts; that part is what ``setup`` times.
``draw`` is ``<seed>.<pass>`` and picks the ``invariants-gnp`` graphs.
The speed probe runs from the first import; pass times are reported in
reference-speed seconds (``wall_s``) and wall-clock seconds (``raw_wall_s``).
It prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import json
import random
import sys
from time import monotonic

import speedprobe

speedprobe.start()

from pairdom import characterizations, domination, generate, harness  # noqa: E402
from pairdom.graph import encode_graph6, parse_graph6  # noqa: E402

from run import BENCH, OUT, mismatch  # noqa: E402
from tracing import Tracer  # noqa: E402


def load_refs(spec) -> dict:
    with open(BENCH / spec["refs"]) as fh:
        return json.load(fh)


def gnp_inputs(refs, count: int, draw: str) -> list:
    """count pool entries picked by draw. Each (n, p) cell gives the same
    number of graphs for every draw, one from each of equal strata of its
    pool ordered by PDS count, so that every draw spans the cell's costs.
    Cells are listed cheapest first and the remainder goes to the last
    ones: with 40 graphs in six cells the median and the tail then fall
    inside a cell's cluster of latencies, not between two clusters where
    one slow graph would move them."""
    rng = random.Random(draw)
    cells = refs["cells"]
    base, extra = divmod(count, len(cells))
    chosen = []
    for i, cell in enumerate(cells):
        k = base + (i >= len(cells) - extra)
        pool = sorted(cell["graphs"], key=lambda entry: entry["pds"])
        edges = [len(pool) * j // k for j in range(k + 1)]
        chosen += [pool[rng.randrange(a, b)] for a, b in zip(edges, edges[1:])]
    return chosen


def prepare(spec, draw: str):
    """Load the references and build the inputs of one pass."""
    refs = load_refs(spec)
    if spec["kind"] == "gnp":
        graphs = [(parse_graph6(e["g6"]), e)
                  for e in gnp_inputs(refs, spec["graphs"], draw)]
    else:
        graphs = None
    return refs, graphs


def hunt(spec, refs, tracer) -> dict:
    """Triangle-free graphs on up to n vertices, streamed into the hunt."""
    predicate = generate.triangle_free
    calls = 0
    if tracer is not None:
        def predicate(g):
            nonlocal calls
            calls += 1
            return generate.triangle_free(g)

    start = monotonic()
    graphs = generate.nonisomorphic_graphs(spec["n"], predicate)
    report = characterizations.hunt_c3free_counterexamples(graphs)
    end = monotonic()

    per_order = [0] * (spec["n"] + 1)
    for g in graphs:
        per_order[g.n] += 1
    satisfiers = {s["graph6"] for s in report.satisfiers}
    failed = (
        sum(abs(a - b) for a, b in zip(per_order, refs["per_order"]))
        + abs(report.scanned - refs["scanned"])
        + len(satisfiers ^ set(refs["satisfiers"]))
        + abs(len(report.exceptions) - refs["exceptions"])
        + abs(len(report.non_cactus_satisfiers) - refs["non_cactus"])
        + abs(report.skipped - refs["skipped"])
    )
    out = {"wall_s": speedprobe.reference_seconds(start, end, speedprobe.samples()),
           "raw_wall_s": end - start, "attempted": report.scanned,
           "failed": min(max(report.scanned, 1), failed)}
    if tracer is not None:
        out["predicate_calls"] = calls
    return out


def invariants_ok(g, r, ref) -> bool:
    """Values equal the reference; every witness has the right size and
    passes the literal minimality predicate; Γ_pr <= 2Γ."""
    values = [r.gamma, r.upper_gamma, r.gamma_pr, r.upper_gamma_pr]
    if values != ref["values"] or r.upper_gamma_pr > 2 * r.upper_gamma:
        return False
    w = r.witnesses
    return (
        all(len(w[k]) == getattr(r, k) for k in w)
        and domination.is_minimal_dominating(g, w["gamma"])
        and domination.is_minimal_dominating(g, w["upper_gamma"])
        and domination.is_minimal_paired_dominating(g, w["gamma_pr"])
        and domination.is_minimal_paired_dominating(g, w["upper_gamma_pr"])
    )


def gnp(spec, refs, graphs) -> dict:
    """domination.invariants on each seeded G(n, p) graph. Each report is
    checked and dropped before the next graph, so that the pass itself
    holds no memory from one graph to the next. Latencies are in
    reference-speed seconds."""
    latencies, raw, failed = [], 0.0, 0
    for g, ref in graphs:
        start = monotonic()
        try:
            report = domination.invariants(g)
        except Exception:  # a crash on one graph counts as failed
            report = None
        end = monotonic()
        raw += end - start
        latencies.append(speedprobe.reference_seconds(start, end, speedprobe.samples()))
        failed += report is None or not invariants_ok(g, report, ref)
    return {"wall_s": sum(latencies), "raw_wall_s": raw, "latencies": latencies,
            "attempted": len(graphs), "failed": failed}


def trace_verify(spec, refs, tracer) -> dict:
    """The verify run in-process with one job on a graph6 file of the
    generated graphs, every layer traced. Leaves the file for the CLI."""
    n = spec["n"]
    graphs = generate.nonisomorphic_graphs(n, min_n=n)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"enum{n}.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    config = harness.RunConfig(command="verify", source=str(path), jobs=1)
    report, code = tracer.call("harness.run", harness.run, config)
    disagree = mismatch(report.to_record()["totals"], refs["totals"], len(graphs))
    return {
        "graph6_path": str(path),
        "traced_run_s": tracer.total_s["harness.run"],
        "attempted": len(graphs),
        "failed": min(len(graphs), max(disagree, abs(len(graphs) - refs["graphs"]),
                                       0 if code == refs["exit_code"] else 1)),
    }


def layer_report(tracer) -> dict:
    return {
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
        "spans": len(tracer.spans),
    }


def main(argv) -> int:
    task, spec, draw, trace = argv[0], json.loads(argv[1]), argv[2], argv[3] == "1"
    refs, graphs = prepare(spec, draw)
    if task == "setup":
        out = {"inputs": 0 if graphs is None else len(graphs),
               "probes": speedprobe.samples()}
    elif task == "gnp" and not trace:
        out = gnp(spec, refs, graphs)
    elif task == "hunt" and not trace:
        out = hunt(spec, refs, None)
    else:
        tracer = Tracer()
        tracer.instrument()
        if task == "gnp":
            out = gnp(spec, refs, graphs)
        elif task == "hunt":
            out = hunt(spec, refs, tracer)
        elif task == "trace-verify":
            out = trace_verify(spec, refs, tracer)
        else:
            raise SystemExit(f"unknown task {task!r}")
        out["layers"] = layer_report(tracer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{spec['name']}.tsv")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
