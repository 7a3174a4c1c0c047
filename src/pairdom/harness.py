"""Batch harness behind the command-line front end: graph sources, the
run configuration and report, and `run`, which executes one command.

The checks themselves live in ``characterizations.CHECKS``; this module
maps them, or one of the other per-graph workers, over a source. Every
source can be split into shards: shard i of J holds the graphs at every
J-th line of a file, and the generated classes whose edge count is i mod J
(``generate`` says why that split is exact and keeps every label). With
``jobs`` = J > 1, J worker processes each generate and check their own
shard and send back (position, result) pairs, and the main process only
merges the J ordered streams by position. Runs are deterministic: results
come back in input order regardless of the worker count, and failing
verdicts and hunt exceptions are streamed to stderr as JSON lines as they
are found.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import os
import sys
import time
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
from .graph import (Graph, GraphError, encode_graph6, is_decimal, parse_edge_list,
                    parse_graph6)
from .generate import positioned_stream, triangle_free


# --- input sources ----------------------------------------------------------


@dataclass
class SourceItem:
    graph: Graph | None
    error: str | None = None


def _looks_like_edge_list(first_line: str) -> bool:
    """A graph6 line holds no whitespace, so a first line of two or more
    fields is an edge-list header, well formed or not."""
    return len(first_line.split()) >= 2


# Generated sources by kind: (largest order, hereditary predicate or None).
_GENERATED = {
    "enum": (9, None),
    "c3free": (11, triangle_free),
}


@dataclass(frozen=True)
class GeneratedSource:
    """The classes of order n that ``predicate`` keeps, resolved and
    validated; nothing is generated until a shard of it is iterated."""

    predicate: Callable | None
    n: int

    def shard(self, shard):
        stream = positioned_stream(self.n, self.predicate, min_n=self.n, shard=shard)
        return ((pos, SourceItem(g)) for pos, g in stream)


def load_source(source: str) -> GeneratedSource | list[SourceItem]:
    """Resolve a source spec: ``enum:N``, ``c3free:N``, a family spec
    string, or a path to a graph6 / edge-list file.

    ``enum:N`` yields one representative per isomorphism class of order N,
    and ``c3free:N`` one per class of triangle-free graphs; ``_GENERATED``
    holds their guards. A bad spec raises, naming it, before any graph is
    built, and a ``GeneratedSource`` generates its graphs as its shards
    are iterated; files are read whole, into a list."""
    kind, sep, order = source.partition(":")
    if sep and kind in _GENERATED:
        guard, predicate = _GENERATED[kind]
        if not (order.isascii() and order.isdecimal()):
            raise ValueError(f"{kind} order must be an integer >= 0, got {source!r}")
        # digits, but more than is_decimal takes, are past the guard too
        if not is_decimal(order) or int(order) > guard:
            raise GuardError(f"{kind} order limited to N <= {guard}, got {source!r}")
        return GeneratedSource(predicate, int(order))
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
    jobs: int = 1
    output: str | None = None
    fmt: str = "json"


def overwrites_source(config: RunConfig) -> bool:
    """Whether ``config.output`` is the file that ``run`` reads the graphs
    from; gen, a generated source and a family spec read no file."""
    kind, sep, _ = config.source.partition(":")
    if not config.output or config.command == "gen" or (
            sep and kind in _GENERATED) or looks_like_family_spec(config.source):
        return False
    try:
        return os.path.samefile(config.source, config.output)
    except OSError:  # a file that is missing is not overwritten; run reports it
        return False


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


# --- per-graph workers (forked; only their results are pickled) -------------


def _verify_worker(g: Graph, check_ids):
    """Each check's status, and the records of the failing checks; plain
    strings and dicts are much cheaper to pickle than Verdicts."""
    verdicts = run_checks(g, check_ids)
    return ([v.status for v in verdicts],
            [v.to_record() for v in verdicts if v.status == "fails"])


def _invariants_worker(g: Graph):
    """One record per graph: the class flags, the family and the fast
    path's votes, then α, the four invariants with their witnesses, the
    brute-force equality and the deficit 2Γ - Γ_pr, or ``skipped`` when the
    guard stops the exact scans on g. ``agree`` is false when the votes
    split, else null unless there are votes and an equality, and then
    whether the vote is the equality."""
    facts = Facts(g)
    votes = ch.equality_votes(facts)
    rec = {"graph6": facts.graph6, "n": g.n, **asdict(facts.flags),
           "family": facts.family_spec,
           "votes": votes}
    if rec["girth"] == float("inf"):  # acyclic
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
    fast = set(votes.values())
    rec["agree"] = (False if len(fast) > 1
                    else None if not fast or equality is None
                    else fast == {equality})
    return rec


def _shard(items, shard):
    """(position, SourceItem) for each item of shard (i, J) of a source, in
    order; the positions of all the shards interleave into source order."""
    if isinstance(items, GeneratedSource):
        return items.shard(shard)
    index, count = shard  # the j-th item of the shard sits at i + J*j
    return (((index + count * j,), it)
            for j, it in enumerate(items[index::count]))


def _apply(fn, positioned):
    """(position, fn(graph)) for each (position, SourceItem) of a stream, or
    (position, item) for an unreadable item. A ValueError the stream raises
    ends it: it is yielded last, at the position of the last item."""
    pos = ()
    positioned = iter(positioned)
    while True:
        try:
            pos, item = next(positioned)
        except StopIteration:
            return
        except ValueError as exc:  # GraphError and GuardError too
            yield pos, exc
            return
        yield pos, item if item.graph is None else fn(item.graph)


_CHUNK = 32  # results per message from a worker


def _shard_worker(fn, items, shard, conn):
    """In a worker process: ``_apply(fn, shard)`` sent in chunks, then None;
    an exception fn raises is sent in place of the rest."""
    try:
        chunk = []
        for entry in _apply(fn, _shard(items, shard)):
            chunk.append(entry)
            if len(chunk) == _CHUNK:
                conn.send(chunk)
                chunk = []
        if chunk:
            conn.send(chunk)
        conn.send(None)
    except Exception as exc:  # the main process raises it
        conn.send(exc)


def _received(conn, proc, name: str):
    """The entries a worker sends through ``conn``, as they arrive. Waits on
    the worker's sentinel too: if the worker exits before it finishes, the
    stream ends with a RuntimeError naming it, at the position of its last
    entry. An exception the worker sends is raised here."""
    last = ()
    while True:
        wait([conn, proc.sentinel])
        try:
            if not conn.poll():  # exited, and something else holds the pipe
                raise EOFError
            msg = conn.recv()
        except EOFError:
            proc.join()
            yield last, RuntimeError(
                f"worker for {name} exited with code {proc.exitcode} before finishing")
            return
        if msg is None:
            return
        if isinstance(msg, BaseException):
            raise msg
        yield from msg
        last = msg[-1][0]


def _sharded(fn, items, jobs: int):
    """``_apply(fn, source)`` from ``jobs`` forked worker processes, one per
    shard, merged back into source order. ``fork`` lets a worker inherit the
    resolved source, whose streams are closures."""
    ctx = multiprocessing.get_context("fork")
    procs, conns = [], []
    try:
        for i in range(jobs):
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            procs.append(ctx.Process(target=_shard_worker, daemon=True,
                                     args=(fn, items, (i, jobs), send)))
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


def _map_source(fn, items, jobs: int):
    """fn over the graphs of a source, in source order, as ``_apply`` gives
    them without positions: in ``jobs`` worker processes when there are
    more than one, else here. A list source gets at most one worker per
    item, and a generated source of order n at most one per edge count
    0..n(n-1)/2, since the shards past that hold no graph."""
    if isinstance(items, GeneratedSource):
        jobs = min(jobs, items.n * (items.n - 1) // 2 + 1)
    else:
        jobs = min(jobs, len(items))
    if jobs > 1:
        entries = _sharded(fn, items, jobs)
    else:
        entries = _apply(fn, _shard(items, (0, 1)))
    return map(itemgetter(1), entries)


def run(config: RunConfig):
    """Execute one harness run. Returns (RunReport, exit_code); a source
    that raises ValueError partway, or a worker process that exits before
    it finishes its shard, gives an error and exit 2."""
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
    broken = False  # the source raised partway through, or a worker died

    def results(fn):
        """fn of each graph of the source; an unreadable item is counted
        and its error recorded. A stream that ended early marks the run
        broken, and its error is recorded once: every shard builds the
        levels below the last, so a failure there ends every shard."""
        nonlocal bad, broken
        for out in _map_source(fn, items, config.jobs):
            if isinstance(out, SourceItem):
                bad += 1
                report.errors.append(out.error)
            elif isinstance(out, Exception):
                broken = True
                if str(out) not in report.errors:
                    report.errors.append(str(out))
            else:
                yield out

    if config.command == "verify":
        check_ids = tuple(dict.fromkeys(config.checks)) or ALL_CHECK_IDS
        totals = {cid: CheckTotals() for cid in check_ids}
        worker = partial(_verify_worker, check_ids=check_ids)
        for statuses, failed in results(worker):
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
        for rec in results(ch.hunt_record):
            if hunt.add(rec):
                print(json.dumps(rec), file=sys.stderr)
        for _ in range(bad):
            hunt.add({"skipped": "unreadable"})
        report.hunt = hunt.to_record()
        report.failures = hunt.exceptions
    elif config.command == "invariants":
        report.results = list(results(_invariants_worker))
        report.failures = [r for r in report.results if r.get("agree") is False]
    else:
        report.errors.append(f"unknown command {config.command!r}")
        return done(2)
    return done(2 if broken else 1 if report.failures else 0)
