"""Batch harness behind the command-line front end: graph sources, the
run configuration and report, and `run`, which executes one command.

The checks themselves live in ``characterizations.CHECKS``; this module
maps them, or one of the other per-graph workers, over a source. An
``enum:`` source is generated as the run takes it and the worker pool
takes its input as it goes, so with ``jobs`` > 1 checking overlaps
generation. Runs are deterministic: results come back in input order
regardless of the worker count, and failing verdicts and hunt exceptions
are streamed to stderr as JSON lines as they are found.
"""

from __future__ import annotations

import json
import sys
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, islice
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
from .generate import LABELED_GUARD, enumerate_labeled_graphs
from .generate import nonisomorphic_stream, triangle_free


# --- input sources ----------------------------------------------------------


@dataclass
class SourceItem:
    graph: Graph | None
    error: str | None = None


def _looks_like_edge_list(first_line: str) -> bool:
    parts = first_line.split()
    return len(parts) == 2 and all(p.isdigit() for p in parts)


# Generated sources by their fields but the order: (largest order, stream).
_GENERATED = {
    ("enum",): (9, lambda n: nonisomorphic_stream(n, min_n=n)),
    ("enum", "labeled"): (LABELED_GUARD, enumerate_labeled_graphs),
    ("c3free",): (11, lambda n: nonisomorphic_stream(n, triangle_free, min_n=n)),
}


def load_source(source: str) -> Iterable[SourceItem]:
    """Resolve a source spec: ``enum:N[:labeled]``, ``c3free:N``, a family
    spec string, or a path to a graph6 / edge-list file.

    ``enum:N`` yields one representative per isomorphism class of order N,
    ``enum:N:labeled`` every labeled graph, and ``c3free:N`` one
    representative per class of triangle-free graphs; ``_GENERATED`` holds
    their guards. A bad spec raises, naming it, before any graph is built,
    and the graphs are generated as the result is iterated; files are read
    whole."""
    kind, sep, order = source.partition(":")
    if sep and (kind,) in _GENERATED:
        order, *suffix = order.split(":")
        if (kind, *suffix) not in _GENERATED:
            forms = " or ".join(":".join((k[0], "N") + k[1:])
                                for k in _GENERATED if k[0] == kind)
            raise ValueError(f"unknown {kind} source {source!r}: expected {forms}")
        guard, stream = _GENERATED[kind, *suffix]
        if not order.isdecimal():
            raise ValueError(f"{kind} order must be an integer >= 0, got {source!r}")
        if int(order) > guard:
            raise GuardError(f"{kind} order limited to N <= {guard}, got {source!r}")
        return map(SourceItem, stream(int(order)))
    if looks_like_family_spec(source):
        return [SourceItem(parse_family_spec(source))]
    with open(source) as fh:
        text = fh.read()
    lines = text.splitlines()
    first = next((ln for ln in lines if ln.strip()), "")
    if _looks_like_edge_list(first):
        return [SourceItem(parse_edge_list(text))]
    items = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            items.append(SourceItem(parse_graph6(raw)))
        except GraphError as exc:
            items.append(SourceItem(None, f"line {lineno}: {exc}"))
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


@dataclass
class RunReport:
    config: dict
    totals: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    results: list = field(default_factory=list)
    hunt: dict | None = None
    errors: list = field(default_factory=list)
    elapsed_ms: int = 0

    def to_record(self) -> dict:
        rec = {
            "config": self.config,
            "totals": {cid: asdict(t) for cid, t in self.totals.items()},
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
    """Each check's status, and the records of the failing checks; plain
    strings and dicts are much cheaper to pickle than Verdicts."""
    verdicts = run_checks(g, check_ids)
    return ([v.status for v in verdicts],
            [v.to_record() for v in verdicts if v.status == "fails"])


def _invariants_worker(g: Graph):
    r = invariants(g)
    return {
        "graph6": encode_graph6(g),
        "n": g.n,
        "gamma": r.gamma,
        "upper_gamma": r.upper_gamma,
        "gamma_pr": r.gamma_pr,
        "upper_gamma_pr": r.upper_gamma_pr,
        "witnesses": {k: None if w is None else list(w)
                      for k, w in r.witnesses.items()},
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
            rec["brute"] = _decision_record(brute)
        except IsolatedVertexError:
            rec["brute"] = None
        except GuardError as exc:
            rec["brute"] = {"skipped": str(exc)}
    if fast is not None and fast.equality_holds is None:
        rec["agree"] = False  # the fast paths split
    elif mode == "both":  # null unless both sides decided
        rec["agree"] = None if fast is None or brute is None else (
            fast.equality_holds == brute.equality_holds)
    return rec


def _or_skipped(worker, g: Graph):
    """worker(g), or a ``skipped`` record when a guard stops it on g."""
    try:
        return worker(g)
    except GraphError as exc:
        return {"graph6": encode_graph6(g), "n": g.n, "skipped": str(exc)}


def _map_graphs(fn, graphs, jobs: int):
    """fn over graphs, a stream the pool takes as it goes, lazily and in
    input order, in ``jobs`` processes; serially for fewer than 4 graphs."""
    graphs = iter(graphs)
    head = list(islice(graphs, 4))
    graphs = chain(head, graphs)
    if jobs <= 1 or len(head) < 4:
        yield from map(fn, graphs)
        return
    with Pool(processes=jobs) as pool:
        yield from pool.imap(fn, graphs, chunksize=32)


def run(config: RunConfig):
    """Execute one harness run. Returns (RunReport, exit_code); a source
    that raises ValueError partway gives an error and exit 2."""
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

    bad = 0  # unreadable items, each counted as skipped
    broken = False  # the source raised partway through

    def graphs():
        # Under a pool this runs in its task-feeding thread; the pool's
        # results end after it returns, so then bad and broken are final.
        nonlocal bad, broken
        try:
            for it in items:
                if it.graph is None:
                    bad += 1
                    report.errors.append(it.error)
                else:
                    yield it.graph
        except ValueError as exc:  # GraphError and GuardError too
            broken = True
            report.errors.append(str(exc))

    if config.command == "verify":
        check_ids = tuple(dict.fromkeys(config.checks)) or ALL_CHECK_IDS
        totals = {cid: CheckTotals() for cid in check_ids}
        worker = partial(_verify_worker, check_ids=check_ids)
        for statuses, failed in _map_graphs(worker, graphs(), config.jobs):
            for cid, status in zip(check_ids, statuses):
                t = totals[cid]
                t.scanned += 1
                setattr(t, status, getattr(t, status) + 1)
            for rec in failed:
                report.failures.append(rec)
                print(json.dumps(rec), file=sys.stderr)
        for t in totals.values():
            t.scanned += bad
            t.skipped += bad
        report.totals = totals
    elif config.command == "hunt":
        hunt = ch.HuntReport()
        for rec in _map_graphs(ch.hunt_scan, graphs(), config.jobs):
            if hunt.add(rec):
                print(json.dumps(rec), file=sys.stderr)
        for _ in range(bad):
            hunt.add({"skipped": "unreadable"})
        report.hunt = hunt.to_record()
        report.failures = list(hunt.exceptions)
    elif config.command in ("invariants", "classify", "decide"):
        worker = partial(_or_skipped, {
            "invariants": _invariants_worker,
            "classify": _classify_worker,
            "decide": partial(_decide_worker, mode=config.mode),
        }[config.command])
        report.results = list(_map_graphs(worker, graphs(), config.jobs))
        report.failures = [r for r in report.results if r.get("agree") is False]
    else:
        report.errors.append(f"unknown command {config.command!r}")
        return done(2)
    return done(2 if broken else 1 if report.failures else 0)
