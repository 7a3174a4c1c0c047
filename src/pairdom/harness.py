"""Batch harness behind the command-line front end: graph sources, the
run configuration and report, and `run`, which executes one command.

The checks themselves live in ``characterizations.CHECKS``; this module
maps them, or one of the other per-graph workers, over a source. Runs are
deterministic: results come back in input order regardless of the worker
count, and failing verdicts and hunt exceptions are streamed to stderr as
JSON lines as they are found.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import Pool

from . import characterizations as ch
# CHECKS and run_checks are re-exported as part of this module's API.
from .characterizations import ALL_CHECK_IDS, CHECKS, Facts, run_checks  # noqa: F401
from .domination import GuardError, IsolatedVertexError, invariants
from .families import (
    classify,
    looks_like_family_spec,
    parse_family_spec,
    recognize_family,
)
from .graph import Graph, GraphError, encode_graph6, parse_edge_list, parse_graph6
from .generate import enumerate_labeled_graphs, nonisomorphic_graphs


# --- input sources ----------------------------------------------------------


@dataclass
class SourceItem:
    index: int
    graph: Graph | None
    error: str | None = None


def _looks_like_edge_list(first_line: str) -> bool:
    parts = first_line.split()
    return len(parts) == 2 and all(p.isdigit() for p in parts)


INTERNAL_ENUM_GUARD = 7
INTERNAL_ISO_ENUM_GUARD = 9


def load_source(source: str) -> list[SourceItem]:
    """Resolve a source spec: ``enum:N[:labeled]``, a family spec string,
    or a path to a graph6 / edge-list file.

    ``enum:N`` yields one representative per isomorphism class (n <= 9,
    produced by vertex augmentation); ``enum:N:labeled`` yields every
    labeled graph (n <= 7)."""
    if source.startswith("enum:"):
        parts = source.split(":")
        n = int(parts[1])
        labeled = len(parts) > 2 and parts[2] == "labeled"
        if labeled:
            if n > INTERNAL_ENUM_GUARD:
                raise GuardError(
                    f"labeled enumerator limited to n <= {INTERNAL_ENUM_GUARD}"
                )
            graphs: list[Graph] = list(enumerate_labeled_graphs(n, dedup=False))
        else:
            if n > INTERNAL_ISO_ENUM_GUARD:
                raise GuardError(
                    f"enumerator limited to n <= {INTERNAL_ISO_ENUM_GUARD}"
                )
            graphs = list(nonisomorphic_graphs(n, min_n=n))
        return [SourceItem(i, g) for i, g in enumerate(graphs)]
    if looks_like_family_spec(source):
        return [SourceItem(0, parse_family_spec(source))]
    with open(source) as fh:
        text = fh.read()
    lines = text.splitlines()
    first = next((ln for ln in lines if ln.strip()), "")
    if _looks_like_edge_list(first):
        return [SourceItem(0, parse_edge_list(text))]
    items = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            items.append(SourceItem(lineno, parse_graph6(raw)))
        except GraphError as exc:
            items.append(SourceItem(lineno, None, f"line {lineno}: {exc}"))
    return items


# --- run configuration and report --------------------------------------------


@dataclass
class RunConfig:
    command: str
    source: str
    checks: tuple[str, ...] = ()
    mode: str = "both"  # decide: "fastpath" | "brute" | "both"
    jobs: int = 1
    output: str | None = None
    fmt: str = "json"


@dataclass
class CheckTotals:
    scanned: int = 0
    holds: int = 0
    fails: int = 0
    na: int = 0
    skipped: int = 0

    def to_record(self) -> dict:
        return {
            "scanned": self.scanned,
            "holds": self.holds,
            "fails": self.fails,
            "na": self.na,
            "skipped": self.skipped,
        }


@dataclass
class RunReport:
    config: dict
    totals: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    results: list = field(default_factory=list)
    hunt: dict | None = None
    errors: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def any_failures(self) -> bool:
        return bool(self.failures)

    def to_record(self) -> dict:
        rec = {
            "config": self.config,
            "totals": {cid: t.to_record() for cid, t in self.totals.items()},
            "failures": self.failures,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.results:
            rec["results"] = self.results
        if self.hunt is not None:
            rec["hunt"] = self.hunt
        if self.errors:
            rec["errors"] = self.errors
        return rec


# --- per-graph workers (top level so they pickle for multiprocessing) --------


def _verify_worker(g: Graph, check_ids):
    return [v.to_record() for v in run_checks(g, check_ids)]


def _witness_members(ws):
    return None if ws is None else list(ws.members())


def _invariants_worker(g: Graph):
    r = invariants(g)
    return {
        "graph6": encode_graph6(g),
        "n": g.n,
        "gamma": r.gamma,
        "upper_gamma": r.upper_gamma,
        "gamma_pr": r.gamma_pr,
        "upper_gamma_pr": r.upper_gamma_pr,
        "witnesses": {k: _witness_members(v) for k, v in r.witnesses.items()},
    }


def _classify_worker(g: Graph):
    flags = classify(g)
    fam = recognize_family(g)
    return {
        "graph6": encode_graph6(g),
        "connected": flags.connected,
        "bipartite": flags.bipartite,
        "unicyclic": flags.unicyclic,
        "cactus": flags.cactus,
        "c3_free": flags.c3_free,
        "girth": None if flags.girth == float("inf") else int(flags.girth),
        "family": fam.spec_string() if fam else None,
    }


def _decision_record(d: ch.Decision | None):
    if d is None:
        return None
    rec = {"equality_holds": d.equality_holds, "method": d.method}
    if d.equality_holds is None:
        rec["votes"] = d.evidence
    return rec


def _decide_worker(g: Graph, mode: str):
    facts = Facts(g)
    rec = {"graph6": facts.graph6}
    fast = brute = None
    if mode in ("fastpath", "both"):
        fast = ch.decide_equality_fastpath(facts)
        rec["fastpath"] = _decision_record(fast)
    if mode in ("brute", "both"):
        try:
            brute = ch.decide_equality_bruteforce(facts)
        except IsolatedVertexError:
            brute = None
        rec["brute"] = _decision_record(brute)
    split = fast is not None and fast.equality_holds is None
    if mode == "both" or split:
        rec["agree"] = not split and (
            fast is None
            or brute is None
            or fast.equality_holds == brute.equality_holds
        )
    return rec


def _map_graphs(fn, graphs, jobs: int):
    """fn over graphs, lazily and in input order, in ``jobs`` processes."""
    if jobs <= 1 or len(graphs) < 4:
        yield from map(fn, graphs)
        return
    with Pool(processes=jobs) as pool:
        yield from pool.imap(fn, graphs, chunksize=32)


def run(config: RunConfig):
    """Execute one harness run. Returns (RunReport, exit_code)."""
    start = time.monotonic()
    report = RunReport(config=vars(config).copy())
    report.config["checks"] = list(config.checks)

    def done(code: int):
        report.elapsed_ms = int((time.monotonic() - start) * 1000)
        return report, code

    try:
        if config.command == "gen":
            g = parse_family_spec(config.source)
            report.results.append({"graph6": encode_graph6(g), "n": g.n,
                                   "edges": g.edges()})
            return done(0)
        items = load_source(config.source)
    except (OSError, GraphError, ValueError) as exc:
        report.errors.append(str(exc))
        return done(2)

    graphs = [it.graph for it in items if it.graph is not None]
    bad = [it for it in items if it.graph is None]
    for it in bad:
        report.errors.append(it.error)

    if config.command == "verify":
        check_ids = config.checks or ALL_CHECK_IDS
        totals = {cid: CheckTotals() for cid in check_ids}
        worker = partial(_verify_worker, check_ids=tuple(check_ids))
        for row in _map_graphs(worker, graphs, config.jobs):
            for rec in row:
                t = totals[rec["check_id"]]
                t.scanned += 1
                if rec.get("witness", {}).get("skipped") is not None:
                    t.skipped += 1
                elif rec["holds"] is True:
                    t.holds += 1
                elif rec["holds"] is False:
                    t.fails += 1
                    report.failures.append(rec)
                    print(json.dumps(rec), file=sys.stderr)
                else:
                    t.na += 1
        for t in totals.values():
            t.scanned += len(bad)
            t.skipped += len(bad)
        report.totals = totals
    elif config.command == "hunt":
        hunt = ch.HuntReport()
        for _ in bad:
            hunt.add(None)
        for rec in _map_graphs(ch.hunt_scan, graphs, config.jobs):
            if hunt.add(rec):
                print(json.dumps(rec), file=sys.stderr)
        report.hunt = hunt.to_record()
        report.failures = list(hunt.exceptions)
    elif config.command in ("invariants", "classify", "decide"):
        worker = {
            "invariants": _invariants_worker,
            "classify": _classify_worker,
            "decide": partial(_decide_worker, mode=config.mode),
        }[config.command]
        report.results = list(_map_graphs(worker, graphs, config.jobs))
        report.failures = [r for r in report.results if r.get("agree") is False]
    else:
        report.errors.append(f"unknown command {config.command!r}")
        return done(2)
    return done(1 if report.failures else 0)
