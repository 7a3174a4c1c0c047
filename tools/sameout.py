"""Same outputs before and after a change to src/: a fixed set of CLI
commands and generated streams, run on both sides and compared.

    python3 tools/sameout.py --base <rev>

Run from anywhere inside a git checkout of pairdom. ``tools/trees.py``
builds two temporary trees, ``src/`` as of <rev> and the working ``src/``.
In each tree, every command of ``COMMANDS`` runs as ``python -m
pairdom.cli`` from one directory of input files that both sides share, so
the paths in the reports match. A command's outcome is its stdout without
its elapsed time (the ``elapsed_ms`` key of a JSON report or the
``elapsed_ms=`` line of a text report), its stderr and its exit code;
nothing else is left out. Each stream of ``STREAMS`` is the sha256 of its
``positioned_stream`` as one "<position> <graph6>" line per graph, labels
and positions included. One line per item, ``same`` or ``DIFF``, names
what differs; the tool exits 1 on any ``DIFF`` and 0 otherwise. It refuses
to run, with exit 2, when the two trees' digests are equal, since nothing
would be compared.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

from trees import SIDES, TreeError, build_trees

C25 = "XhCGGC@?G?_@?@??_?G?@??C??G??G??C??@???G???_??@_??@"


def _graph6(n: int, mask: int) -> str:
    """The graph6 line of the graph on n < 63 vertices whose adjacency
    bits, in graph6 order, are the low bits of mask, lowest first."""
    bits = "".join(str(mask >> i & 1) for i in range(n * (n - 1) // 2))
    bits += "0" * (-len(bits) % 6)
    return chr(63 + n) + "".join(chr(63 + int(bits[i:i + 6], 2))
                                 for i in range(0, len(bits), 6))


def _chunks_g6() -> str:
    """1,200 pseudo-random graphs of orders 5 to 7, whose 2^n sum is past
    three times the harness's chunk budget, so every shard of three fills
    more than one chunk; C25, past the exact scans' guard and so a chunk
    of its own; 60 more of orders 3 to 7; and an unreadable line."""
    x, lines = 1, []
    for i in range(1260):
        n = (5, 6, 7, 7, 7, 7)[i % 6] if i < 1200 else 3 + i % 5
        x = (x * 1103515245 + 12345) % 2 ** 31
        lines.append(_graph6(n, x >> 7))
        if i == 1199:
            lines.append(C25)
    return "\n".join(lines) + "\n!!\n"


# Input files, written into the directory the commands run from. The
# graph6 file mixed.g6 has two unreadable lines, the 2nd and the last.
INPUTS = {
    "mixed.g6": "Dhc\nDq\nCh\nC~\nE`?G\nJ`?G?C@?GC_\nHkE?KA@\nIheA@GUAo\n!!\n",
    "chunks.g6": _chunks_g6(),
    "c5.edges": "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n",
}
COMMANDS = [
    ("verify", "enum:8", "--jobs", "2"),
    ("verify", "enum:6", "--format", "text"),
    ("hunt", "c3free:10", "--jobs", "2"),
    ("invariants", "enum:6"),
    *((command, source, "--jobs", jobs) for source in ("mixed.g6", "chunks.g6")
      for command in ("verify", "hunt", "invariants") for jobs in ("1", "3")),
    ("invariants", "c5.edges"),
    ("verify", "enum:3", "--jobs", "4"),
    ("gen", "union:K2*2+C5*1"),
    ("gen", "mixed.g6", "--jobs", "3"),
    ("verify", "enum:10"),
    ("verify", "missing.g6"),
    # the equality votes without fastpath-matches-brute, and both checks
    # that read the family
    ("verify", "enum:7", "--checks", "equality-girth6,equality-c3free-cactus,"
     "equality-unicyclic,equality-bipartite,gpr-equals-n,gpr-equals-n-minus-1"),
    # recognized families past the guard on the exact scans
    ("invariants", "union:K2*3+C5*4"),
    ("invariants", "star:t=12,d=1"),
    # α, the class flags and the votes of every graph of order 7
    ("invariants", "enum:7"),
    ("hunt", "c3free:9"),
]
# name -> (order, predicate name in pairdom.generate or None)
STREAMS = {"enum <= 8": (8, None), "c3free <= 10": (10, "triangle_free")}
_STREAM_HASH = """\
import hashlib, sys
from pairdom import generate
from pairdom.graph import encode_graph6
n, name = int(sys.argv[1]), sys.argv[2]
digest = hashlib.sha256()
for pos, g in generate.positioned_stream(n, getattr(generate, name) if name else None):
    digest.update(f"{pos} {encode_graph6(g)}\\n".encode())
print(digest.hexdigest())
"""
_ELAPSED = re.compile(r'^(  "elapsed_ms": \d+,?|elapsed_ms=\d+)\n', re.M)


def _python(tree: Path, cwd: Path, args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def run_cli(tree: Path, cwd: Path, argv) -> tuple[str, str, int]:
    """stdout, stderr and exit code of one CLI command in tree."""
    proc = _python(tree, cwd, ["-m", "pairdom.cli", *argv])
    return proc.stdout, proc.stderr, proc.returncode


def stream(n: int, predicate, tree: Path, cwd: Path) -> dict:
    """The sha256 of one generated stream in tree."""
    proc = _python(tree, cwd, ["-c", _STREAM_HASH, str(n), predicate or ""])
    if proc.returncode:
        raise TreeError(f"stream {n} {predicate}: {proc.stderr[-2000:]}")
    return {"sha256": proc.stdout.strip()}


def outcome(argv, tree: Path, cwd: Path) -> dict:
    """What a command gives in tree that must not change: everything but
    the elapsed time."""
    out, err, code = run_cli(tree, cwd, argv)
    return {"stdout": _ELAPSED.sub("", out), "stderr": err, "exit code": code}


def compare(trees: dict, cwd: Path) -> bool:
    """Print one line per item, naming what differs; whether every item is
    the same on both sides."""
    items = [(" ".join(argv), partial(outcome, argv)) for argv in COMMANDS]
    items += [(f"stream {name}", partial(stream, *spec)) for name, spec in STREAMS.items()]
    same = True
    for name, produce in items:
        base, change = (produce(trees[side], cwd) for side in SIDES)
        differs = [key for key in base if base[key] != change[key]]
        same = same and not differs
        print(f"DIFF  {name}  ({', '.join(differs)})" if differs else f"same  {name}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base src/")
    args = parser.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory(prefix="sameout-") as top:
            _, trees, _ = build_trees(args.base, Path(top))
            cwd = Path(top) / "inputs"
            cwd.mkdir()
            for name, text in INPUTS.items():
                (cwd / name).write_text(text)
            return 0 if compare(trees, cwd) else 1
    except TreeError as exc:
        print(f"sameout: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
