"""Batch harness behind the command-line front end: graph sources, the
run configuration and report, and `run`, which executes one command.

The checks themselves live in ``characterizations.CHECKS``; this module
maps them, or one of the other per-graph workers, over a source.
``load_source`` is the one place that knows the kinds of source. It turns
each into a shard function, whose shard i of J is a stream of plain graphs:
every J-th readable graph of a file, or the generated classes whose parent
index is i mod J (``generate`` says why that split is exact and keeps every
label). It also gives the number of shards that can hold a graph, which
caps the worker count, and the errors of the unreadable lines, which never
enter a stream: ``run`` records them and counts them as skipped. With
``jobs`` = J > 1, J worker processes each generate and check their own
shard and send back (position, result) pairs, and the main process only
merges the J ordered streams by position. Runs are deterministic: results
come back in input order regardless of the worker count, and every failure
record is streamed to stderr as a JSON line as it is found.
"""

from __future__ import annotations

import heapq
import json
import math
import multiprocessing
import os
import sys
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import partial
from multiprocessing.connection import wait
from operator import itemgetter

from . import characterizations as ch
# CHECKS and run_checks are re-exported as part of this module's API.
from .characterizations import ALL_CHECK_IDS, CHECKS, Facts, run_checks  # noqa: F401
from .domination import GuardError
from .families import looks_like_family_spec, parse_family_spec
from .graph import (INFINITE, Graph, GraphError, encode_graph6, is_decimal,
                    parse_edge_list, parse_graph6)
from .generate import positioned_stream, triangle_free


# --- input sources ----------------------------------------------------------


def _looks_like_edge_list(first_line: str) -> bool:
    """A graph6 line holds no whitespace, so a first line of two or more
    fields is an edge-list header, well formed or not."""
    return len(first_line.split()) >= 2


# Generated sources by kind: (largest order, hereditary predicate or None).
_GENERATED = {
    "enum": (9, None),
    "c3free": (11, triangle_free),
}


def _source_kind(source: str) -> tuple[str, str]:
    """(kind, order) of a source spec: kind is a key of ``_GENERATED``,
    "family" or "file", and order is "" but for a generated kind."""
    kind, sep, order = source.partition(":")
    if sep and kind in _GENERATED:
        return kind, order
    return "family" if looks_like_family_spec(source) else "file", ""


def _listed(graphs: list[Graph], errors=()):
    """A list of graphs as ``load_source`` returns a source: shard (i, J)
    holds every J-th graph from the i-th, so at most len(graphs) shards
    hold one."""
    def shards(shard):
        index, count = shard  # the j-th graph of the shard sits at i + J*j
        return (((index + count * j,), g) for j, g in enumerate(graphs[index::count]))
    return shards, len(graphs), list(errors)


def load_source(source: str) -> tuple[Callable, int, list[str]]:
    """Resolve a source spec: ``enum:N``, ``c3free:N``, a family spec
    string, or a path to a graph6 / edge-list file. This is the one place
    that tells the kinds of source apart. Returns ``(shards, bound,
    errors)``. ``shards((i, J))`` yields shard i of J as (position, graph)
    pairs, in order; the positions of the J shards interleave into source
    order. No shard past the first ``bound`` holds a graph, so ``run``
    starts at most ``bound`` workers. ``errors`` holds the error of each
    unreadable graph6 line, ``"line N: ..."`` in line order; the line
    itself is left out of the source.

    ``enum:N`` yields one representative per isomorphism class of order N,
    and ``c3free:N`` one per class of triangle-free graphs; ``_GENERATED``
    holds their guards. A bad spec raises, naming it, before any graph is
    built. A generated source is ``positioned_stream``, which generates as
    a shard is iterated; its bound is 2^C(N-1, 2), the number of labelled
    graphs on N - 1 vertices, since shards split it by parent index. A
    file is read whole into a list of graphs, whose bound is their number."""
    kind, order = _source_kind(source)
    if kind in _GENERATED:
        guard, predicate = _GENERATED[kind]
        if not (order.isascii() and order.isdecimal()):
            raise ValueError(f"{kind} order must be an integer >= 0, got {source!r}")
        # digits, but more than is_decimal takes, are past the guard too
        if not is_decimal(order) or int(order) > guard:
            raise GuardError(f"{kind} order limited to N <= {guard}, got {source!r}")
        n = int(order)
        return partial(positioned_stream, n, predicate, n), 2 ** math.comb(max(n - 1, 0), 2), []
    if kind == "family":
        return _listed([parse_family_spec(source)])
    with open(source) as fh:
        text = fh.read()
    lines = text.splitlines()
    first = next((ln for ln in lines if ln.strip()), "")
    if _looks_like_edge_list(first):
        return _listed([parse_edge_list(text)])
    graphs, errors = [], []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            graphs.append(parse_graph6(raw))
        except GraphError as exc:
            errors.append(f"line {lineno}: {exc}")
    return _listed(graphs, errors)


# --- run configuration and report --------------------------------------------


# A run forks one process per job, up to one per line of a file source, so
# an unbounded ``jobs`` could fork thousands of processes.
MAX_JOBS = 64


@dataclass
class RunConfig:
    command: str
    source: str
    checks: tuple[str, ...] = ()
    jobs: int = 1
    output: str | None = None
    fmt: str = "json"


def overwrites_source(config: RunConfig) -> bool:
    """Whether ``config.output`` is the file that ``run`` reads the graphs
    from; gen, a generated source and a family spec read no file."""
    if (not config.output or config.command == "gen"
            or _source_kind(config.source)[0] != "file"):
        return False
    try:
        return os.path.samefile(config.source, config.output)
    except OSError:  # a file that is missing is not overwritten; run reports it
        return False


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
            "totals": self.totals,
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


# --- per-graph workers (forked; only their results are pickled) -------------


def _verify_worker(g: Graph, check_ids):
    """The tuple of each check's status, in ``check_ids`` order, and the
    records of the failing checks. ``run`` counts the distinct tuples (18
    over the 12,346 graphs of order 8) and adds each into the totals once,
    after the last graph."""
    verdicts = run_checks(g, check_ids)
    return (tuple(v.status for v in verdicts),
            [v.to_record() for v in verdicts if v.status == "fails"])


def _invariants_worker(g: Graph):
    """One record per graph: the class flags, the family and the fast
    path's votes, then α, the four invariants with their witnesses, the
    brute-force equality and the deficit 2Γ - Γ_pr, or ``skipped`` when the
    guard stops the exact scans on g. ``agree`` is false when the votes
    split, else null unless there are votes and an equality, and then
    whether the vote is the equality."""
    facts = Facts(g)
    rec = {"graph6": facts.graph6, "n": g.n, **asdict(facts.flags),
           "family": facts.family, "votes": facts.votes}
    if rec["girth"] == INFINITE:  # acyclic
        rec["girth"] = None
    equality = None
    try:
        r = facts.report
        rec["alpha"] = facts.alpha
    except GuardError as exc:
        rec["skipped"] = str(exc)
    else:
        equality = facts.equality
        rec.update(
            gamma=r.gamma,
            upper_gamma=r.upper_gamma,
            gamma_pr=r.gamma_pr,
            upper_gamma_pr=r.upper_gamma_pr,
            witnesses={k: None if w is None else list(w)
                       for k, w in r.witnesses.items()},
            equality=equality,
            deficit=None if r.upper_gamma_pr is None
            else 2 * r.upper_gamma - r.upper_gamma_pr,
        )
    fast = set(facts.votes.values())
    rec["agree"] = (False if len(fast) > 1
                    else None if not fast or equality is None
                    else fast == {equality})
    return rec


class _ErrorRecord(dict):
    """The failure record of a graph that a per-graph worker raised on:
    ``{"graph6": ..., "error": "<Type>: <message>"}``."""


def _apply(fn, positioned):
    """(position, fn(graph)) for each (position, graph) of a stream, which
    ``load_source`` kept unreadable lines out of. An exception fn raises on
    a graph gives that graph's ``_ErrorRecord`` in place of fn(graph), and
    the stream goes on. An exception the stream raises ends it: its message
    is yielded last, at the position of the last graph. So only plain
    results and strings are sent from a worker, never an exception, which
    might not unpickle."""
    pos = ()
    positioned = iter(positioned)
    while True:
        try:
            pos, g = next(positioned)
        except StopIteration:
            return
        except Exception as exc:
            yield pos, str(exc)
            return
        try:
            out = fn(g)
        except Exception as exc:
            out = _ErrorRecord(graph6=encode_graph6(g),
                               error=f"{type(exc).__name__}: {exc}")
        yield pos, out


_CHUNK = 32  # results per message from a worker


def _shard_worker(fn, shards, shard, conn):
    """In a worker process: ``_apply(fn, shards(shard))`` sent in chunks,
    then None. Anything that still raises here, such as a result that
    cannot be pickled, ends the worker before it sends None."""
    chunk = []
    for entry in _apply(fn, shards(shard)):
        chunk.append(entry)
        if len(chunk) == _CHUNK:
            conn.send(chunk)
            chunk = []
    if chunk:
        conn.send(chunk)
    conn.send(None)


def _received(conn, proc, name: str):
    """The entries a worker sends through ``conn``, as they arrive. Waits on
    the worker's sentinel too: if the worker exits before it finishes, the
    stream ends with an error message naming it, at the position of its
    last entry, as a stream that raises ends in ``_apply``."""
    last = ()
    while True:
        wait([conn, proc.sentinel])
        try:
            # an empty chunk: the worker exited, and something else holds the pipe
            msg = conn.recv() if conn.poll() else []
        except EOFError:
            msg = []
        if msg is None:
            return
        if not msg:
            break
        yield from msg
        last = msg[-1][0]
    proc.join()
    yield last, f"worker for {name} exited with code {proc.exitcode} before finishing"


def _sharded(fn, shards, jobs: int):
    """``_apply(fn, shards((i, jobs)))`` for each i, in ``jobs`` forked
    worker processes, merged back into source order. ``fork`` lets a worker
    inherit fn and the shard function without pickling them."""
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for i in range(jobs):
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            procs.append(ctx.Process(target=_shard_worker, daemon=True,
                                     args=(fn, shards, (i, jobs), send)))
            procs[i].start()
            send.close()  # so that only the worker holds it
        yield from heapq.merge(
            *(_received(conns[i], procs[i], f"shard {i} of {jobs}")
              for i in range(jobs)),
            key=itemgetter(0))
    finally:
        for proc in procs:
            proc.terminate()
            proc.join()
        for conn in conns:
            conn.close()


def run(config: RunConfig):
    """Execute one harness run. Returns (RunReport, exit_code).

    An unknown command, an unknown check id, or a ``jobs`` outside 1 to
    ``MAX_JOBS`` is refused with exit 2 before a source is loaded or a
    process started. Every failure record (a failing verdict, a hunt
    exception, an ``invariants`` record with ``agree`` false, and the
    error record of a graph that a worker raised on) goes into
    ``report.failures`` and to stderr as it is found, and gives exit 1. A
    source that raises partway, or a worker process that exits before it
    finishes its shard, gives an error and exit 2."""
    start = time.monotonic()
    report = RunReport(config=vars(config).copy())
    report.config["checks"] = list(config.checks)

    def done(code: int):
        report.elapsed_ms = int((time.monotonic() - start) * 1000)
        return report, code

    unknown = [c for c in config.checks if c not in CHECKS]
    if config.command not in ("gen", "verify", "hunt", "invariants"):
        report.errors.append(f"unknown command {config.command!r}")
    if unknown:
        report.errors.append(f"unknown checks: {', '.join(unknown)}")
    if not 1 <= config.jobs <= MAX_JOBS:
        report.errors.append(f"--jobs must be 1 to {MAX_JOBS}, got {config.jobs}")
    if report.errors:
        return done(2)
    try:
        if config.command == "gen":
            g = parse_family_spec(config.source)
            report.results.append({"graph6": encode_graph6(g), "n": g.n,
                                   "edges": g.edges()})
            return done(0)
        shards, bound, unreadable = load_source(config.source)
    except (OSError, ValueError) as exc:  # GraphError and GuardError too
        report.errors.append(str(exc))
        return done(2)
    jobs = min(config.jobs, bound)  # a shard past the bound holds no graph
    report.errors += unreadable
    bad = len(unreadable)  # each unreadable line is counted as skipped
    raised = 0  # graphs a worker raised on, each one a failure
    broken = False  # the source raised partway through, or a worker died

    def fail(rec: dict):
        report.failures.append(rec)
        print(json.dumps(rec), file=sys.stderr)

    def results(fn):
        """fn of each graph of the source, in source order: in ``jobs``
        worker processes when there are more than one, else here. The
        error record of a graph fn raised on is a failure, in place of a
        result. A stream that ended early marks the run broken, and its
        error is recorded once: every shard builds the levels below the
        last, so a failure there ends every shard."""
        nonlocal broken, raised
        entries = _sharded(fn, shards, jobs) if jobs > 1 else _apply(fn, shards((0, 1)))
        for _, out in entries:
            if isinstance(out, str):
                broken = True
                if out not in report.errors:
                    report.errors.append(out)
            elif isinstance(out, _ErrorRecord):
                raised += 1
                fail(out)
            else:
                yield out

    if config.command == "verify":
        check_ids = tuple(dict.fromkeys(config.checks)) or ALL_CHECK_IDS
        vectors = Counter()
        worker = partial(_verify_worker, check_ids=check_ids)
        for statuses, failed in results(worker):
            vectors[statuses] += 1
            for rec in failed:
                fail(rec)
        skipped = bad + raised  # an unreadable line or a raise, in every check
        report.totals = {cid: {"scanned": skipped, "holds": 0, "fails": 0, "na": 0,
                               "skipped": skipped} for cid in check_ids}
        for statuses, count in vectors.items():
            for cid, status in zip(check_ids, statuses):
                report.totals[cid]["scanned"] += count
                report.totals[cid][status] += count
    elif config.command == "hunt":
        hunt = ch.HuntReport()
        for rec in results(ch.hunt_record):
            if hunt.add(rec):
                fail(rec)
        for _ in range(bad):
            hunt.add({"skipped": "unreadable"})
        hunt.scanned += raised  # scanned, and in failures, not in a skip reason
        report.hunt = hunt.to_record()
    else:  # invariants
        for rec in results(_invariants_worker):
            report.results.append(rec)
            if rec["agree"] is False:
                fail(rec)
    return done(2 if broken else 1 if report.failures else 0)
