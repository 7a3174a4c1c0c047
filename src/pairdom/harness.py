"""Batch harness behind the command-line front end: graph sources, the
run configuration and report, and `run`, which executes one command.

``COMMANDS`` lists the commands. Each one maps a chunk worker over a
source, called once per chunk of graphs: ``characterizations`` builds the
verdicts, check-major over the chunk, and the hunt and invariants records,
graph by graph, and ``gen`` lists each graph itself. This module only
loads sources, runs the map and folds its results.
``load_source`` is the one place that knows the kinds of source. It turns
each into a shard function, whose shard i of J is a stream of plain graphs:
every J-th readable graph of a file, or the generated classes whose parent
index is i mod J (``generate`` says why that split is exact and keeps every
label). It also gives the number of shards that can hold a graph, which
caps the worker count, and the errors of the unreadable lines, which never
enter a stream: ``run`` records them and counts them as skipped. With
``jobs`` = J > 1, J worker processes each generate and check their own
shard and send back its (position, kind, value) entries one chunk per
message, and the main process only merges the J ordered streams by
position. Runs are deterministic: results come back in input order at
every worker count, and every failure record is streamed to stderr as a
JSON line once its chunk is done.
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
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from multiprocessing.connection import wait
from operator import itemgetter

from . import characterizations as ch
# CHECKS and run_checks are re-exported as part of this module's API.
from .characterizations import ALL_CHECK_IDS, CHECKS, run_checks  # noqa: F401
from .domination import GuardError
from .families import looks_like_family_spec, parse_family_spec
from .graph import (Graph, GraphError, encode_graph6, is_decimal, parse_edge_list,
                    parse_graph6)
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


# The one list of commands, with their help lines: ``run`` refuses any
# other command, and the CLI builds one subcommand from each.
COMMANDS = {
    "invariants": "one record per graph",
    "verify": "run lemma/theorem checks over a stream",
    "hunt": "triangle-free counterexample hunt",
    "gen": "list each graph of a source with its edges",
}

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
    from; a generated source and a family spec read no file."""
    if not config.output or _source_kind(config.source)[0] != "file":
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


# --- chunk workers (forked; only their results are pickled) -----------------


_RESULT, _RAISED, _ENDED = range(3)  # the kinds of entry, as ``_apply`` says


def _error_record(g: Graph, exc: Exception) -> dict:
    return {"graph6": encode_graph6(g), "error": f"{type(exc).__name__}: {exc}"}


def _verify_worker(graphs, check_ids):
    """(kind, value) per graph of a chunk, from ``check_chunk``: a result,
    the tuple of each check's status in ``check_ids`` order and the records
    of the failing checks, or the error record of the first check that
    raised on the graph. ``run`` counts the distinct tuples (18 over the
    12,346 graphs of order 8) and adds each into the totals once, after the
    last graph."""
    out = []
    for g, verdicts in zip(graphs, ch.check_chunk(graphs, check_ids)):
        if isinstance(verdicts, Exception):
            out.append((_RAISED, _error_record(g, verdicts)))
        else:
            failed = [v.to_record() for v in verdicts if v.status == "fails"]
            out.append((_RESULT, (tuple(v.status for v in verdicts), failed)))
    return out


def _each(fn, graphs):
    """(kind, value) per graph of a chunk, fn mapped graph by graph: a
    result, fn(graph), or the graph's error record when fn raises on it."""
    out = []
    for g in graphs:
        try:
            out.append((_RESULT, fn(g)))
        except Exception as exc:
            out.append((_RAISED, _error_record(g, exc)))
    return out


def _gen_worker(g: Graph):
    """One record per graph: its graph6 string, its order and its edges."""
    return {"graph6": encode_graph6(g), "n": g.n, "edges": g.edges()}


# A chunk holds graphs while the sum of 2^n over them stays within this
# budget, the length of one subset bitmap at n = 15: 128 graphs at n = 8,
# 64 at n = 9, and one graph alone from n = 15 on. So the bitmaps of a
# chunk's graphs are no longer than those of one graph of order 15, and
# a larger graph is checked alone, so the peak memory at the guard is
# that of one graph.
_CHUNK_BUDGET = 1 << 15


def _apply(fn, positioned):
    """One list of (position, kind, value) entries per chunk of a stream,
    which ``load_source`` kept unreadable lines out of. A chunk takes the
    stream's graphs in order while their 2^n sum stays within
    ``_CHUNK_BUDGET``, or one graph that is alone past it, and fn(graphs)
    gives one (kind, value) per graph: ``_RESULT`` and a value of any type,
    or ``_RAISED`` and the graph's ``{"graph6", "error"}`` record. An
    exception the stream raises ends it: the graphs already taken are
    applied, then ``_ENDED`` and its message come last, at the position of
    the last graph. So no exception is sent from a worker, as it might not
    unpickle.

    One call per chunk lets ``verify`` run its checks check-major
    (``check_chunk`` says why that changes no verdict). Over the 6,172
    graphs of shard 0 of 2 of ``enum:8``, best of 3 in process time on 2
    vCPUs with Python 3.11.7, the check pass took 0.53-0.54 s graph by
    graph, and check-major 0.54 s in chunks of 1 graph, 0.41 s of 8,
    0.39-0.43 s of 32, 0.37-0.38 s of 128 (what the budget gives there)
    and 0.37 s of 512. With generation, best of 5: 0.85-0.90 s graph by
    graph, 0.84-0.87 s taking 128 graphs and then checking each one
    whole, and 0.64-0.66 s check-major, so the chunk alone gains little."""
    positioned = iter(positioned)
    taken, cost, last = [], 0, ()
    while True:
        try:
            item = next(positioned, None)
        except Exception as exc:
            item, error = None, str(exc)
        else:
            error = None
        size = 0 if item is None else 1 << item[1].n
        if taken and (item is None or cost + size > _CHUNK_BUDGET):
            last = taken[-1][0]
            yield [(pos, *entry) for (pos, _), entry
                   in zip(taken, fn([g for _, g in taken]))]
            taken, cost = [], 0
        if item is None:
            if error is not None:
                yield [(last, _ENDED, error)]
            return
        taken.append(item)
        cost += size


def _shard_worker(fn, shards, shard, conn):
    """In a worker process: ``_apply(fn, shards(shard))`` sent one chunk
    per message, then None. Anything that still raises here, such as a
    result that cannot be pickled, ends the worker before it sends None."""
    for chunk in _apply(fn, shards(shard)):
        conn.send(chunk)
    conn.send(None)


def _received(conn, proc, name: str):
    """The entries a worker sends through ``conn``, as they arrive. Waits on
    the worker's sentinel too: if the worker exits before it finishes, the
    stream ends with an ``_ENDED`` entry whose message names it, at the
    position of its last entry, as a stream that raises ends in ``_apply``."""
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
    yield last, _ENDED, f"worker for {name} exited with code {proc.exitcode} before finishing"


def _sharded(fn, shards, jobs: int):
    """The entries of ``_apply(fn, shards((i, jobs)))`` for each i, in
    ``jobs`` forked worker processes, merged back into source order.
    ``fork`` lets a worker inherit fn and the shard function without
    pickling them."""
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
    if config.command not in COMMANDS:
        report.errors.append(f"unknown command {config.command!r}")
    if unknown:
        report.errors.append(f"unknown checks: {', '.join(unknown)}")
    if not 1 <= config.jobs <= MAX_JOBS:
        report.errors.append(f"--jobs must be 1 to {MAX_JOBS}, got {config.jobs}")
    if report.errors:
        return done(2)
    try:
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
        """The result of each graph of the source, in source order, from the
        chunk worker fn: in ``jobs`` worker processes when there are more
        than one, else here. Reads the kind of each entry, not the type of
        its value, so a result may be anything. A graph fn raised on is a
        failure, with no result. A stream that ended early marks the run
        broken, and its message is recorded once: every shard builds the
        levels below the last, so a failure there ends every shard."""
        nonlocal broken, raised
        entries = (_sharded(fn, shards, jobs) if jobs > 1
                   else chain.from_iterable(_apply(fn, shards((0, 1)))))
        for _, kind, value in entries:
            if kind == _RESULT:
                yield value
            elif kind == _RAISED:
                raised += 1
                fail(value)
            else:
                broken = True
                if value not in report.errors:
                    report.errors.append(value)

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
        for rec in results(partial(_each, ch.hunt_record)):
            if hunt.add(rec):
                fail(rec)
        for _ in range(bad):
            hunt.add({"skipped": "unreadable"})
        hunt.scanned += raised  # scanned, and in failures, not in a skip reason
        report.hunt = hunt.to_record()
    elif config.command == "invariants":
        for rec in results(partial(_each, ch.invariants_record)):
            report.results.append(rec)
            if rec["agree"] is False:
                fail(rec)
    else:  # gen
        report.results += results(partial(_each, _gen_worker))
    return done(2 if broken else 1 if report.failures else 0)
