"""Command-line front end with four commands:

* invariants: one record per graph, with its class flags, family, the
  fast path's votes, α, the four invariants, the equality and the deficit,
* verify: the lemma and theorem checks over a stream,
* hunt: the triangle-free counterexample hunt,
* gen: one named family graph.

Sources accepted by every graph-consuming command:

* a path to a graph6 file (one graph per line, optionally after a
  ">>graph6<<" header),
* a path to an edge-list file ("n m" header, then "u v" lines),
* a family spec string: K2, C3, C5, mK2:3, star:t=3,d=1, union:K2*2+C5*1,
* enum:N for all non-isomorphic graphs on 0 <= N <= 9 vertices,
* c3free:N for the triangle-free ones, 0 <= N <= 11.

Exit status: 0 when everything holds or is not applicable, 1 when a check
fails, a record has agree false or the hunt finds an exception, 2 on usage
or input errors, among them an --output that names the source file.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .harness import ALL_CHECK_IDS, RunConfig, RunReport, overwrites_source, run

# A run forks one process per job, up to one per line of a file source, so
# an unbounded --jobs could fork thousands of processes.
_MAX_JOBS = 64


def _add_common(sub):
    sub.add_argument("--jobs", type=int, default=1,
                     help=f"worker processes, 1 to {_MAX_JOBS}")
    sub.add_argument("--output", default=None, help="report path (default stdout)")
    sub.add_argument("--format", dest="fmt", choices=("json", "text"),
                     default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairdom",
        description="Exact upper (paired) domination toolkit for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="one record per graph")
    p.add_argument("source")
    _add_common(p)

    p = sub.add_parser("verify", help="run lemma/theorem checks over a stream")
    p.add_argument("source")
    p.add_argument("--checks", default="all",
                   help="comma-separated check ids, or 'all'")
    _add_common(p)

    p = sub.add_parser("hunt", help="triangle-free counterexample hunt")
    p.add_argument("source")
    _add_common(p)

    p = sub.add_parser("gen", help="emit a named family graph")
    p.add_argument("source", metavar="family-spec")
    _add_common(p)

    return parser


def _format_text(report: RunReport) -> str:
    lines = []
    for cid, t in report.totals.items():
        lines.append(f"{cid}: " + " ".join(f"{k}={v}" for k, v in t.items()))
    for rec in report.failures:
        lines.append(f"FAIL {rec.get('check_id', '-')} {rec.get('graph6', '-')}")
    for rec in report.results:
        lines.append(json.dumps(rec))
    if report.hunt is not None:
        h = report.hunt
        lines.append(
            f"hunt: scanned={h['scanned']} skipped={h['skipped']} "
            f"satisfiers={h['satisfier_count']} exceptions={h['exception_count']}"
        )
        for rec in h["satisfiers"]:
            lines.append(f"satisfier {rec['graph6']} family={rec['family']} "
                         f"cactus={rec['cactus']}")
        for rec in h["exceptions"]:
            lines.append(f"EXCEPTION {rec['graph6']}")
    for err in report.errors:
        lines.append(f"error: {err}")
    lines.append(f"elapsed_ms={report.elapsed_ms}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not 1 <= args.jobs <= _MAX_JOBS:
            parser.error(f"--jobs must be 1 to {_MAX_JOBS}, got {args.jobs}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    checks: tuple[str, ...] = ()
    if getattr(args, "checks", "all") != "all":
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        if not checks:
            print(f"--checks names no check: {args.checks!r}", file=sys.stderr)
            return 2
        unknown = [c for c in checks if c not in ALL_CHECK_IDS]
        if unknown:
            print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
            return 2
    config = RunConfig(
        command=args.command,
        source=args.source,
        checks=checks,
        jobs=args.jobs,
        output=args.output,
        fmt=args.fmt,
    )
    if overwrites_source(config):  # opening the sink would empty the source
        print(f"--output names the source file {config.source!r}", file=sys.stderr)
        return 2
    try:
        sink = open(config.output, "w") if config.output else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"cannot open --output: {exc}", file=sys.stderr)
        return 2
    with sink as fh:
        report, code = run(config)
        fh.write(
            json.dumps(report.to_record(), indent=2) + "\n"
            if config.fmt == "json"
            else _format_text(report)
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
