"""Line counts of pairdom's modules, split into code, docstring-and-comment
and blank lines.

    python3 tools/linecount.py [FILE ...]

With no FILE, counts ``src/pairdom/*.py``. Prints one row per module and a
total row; a FILE that is not a file is a usage error, exit 2. Each
physical line falls in exactly one class, read off the ``tokenize``
stream:

- blank: the line is whitespace alone, wherever it lies, a docstring
  included;
- code: otherwise, the line holds a token that is neither a comment nor
  part of a docstring (a string that is a statement by itself), or lies
  inside such a token, as the middle lines of a multi-line string in an
  expression do;
- docstring and comment: otherwise, the line holds a comment or lies in a
  docstring.
"""

from __future__ import annotations

import argparse
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("lines", "code", "doc", "blank")

# Tokens that mark neither code nor a comment on their line.
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count(path) -> dict[str, int]:
    """``{"lines", "code", "doc", "blank"}`` counts for one Python file."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
        fh.seek(0)
        lines = fh.read().splitlines()
    blank = {row for row, line in enumerate(lines, start=1) if not line.strip()}
    code, doc = set(), set()
    # A string is a docstring when it starts a logical line and ends it.
    starts = True
    for i, tok in enumerate(tokens):
        rows = set(range(tok.start[0], tok.end[0] + 1))
        if tok.type == tokenize.COMMENT:
            doc |= rows
        elif tok.type == tokenize.STRING and starts and next(
                t.type for t in tokens[i + 1:] if t.type != tokenize.COMMENT) in (
                tokenize.NEWLINE, tokenize.ENDMARKER):
            doc |= rows
        elif tok.type not in _LAYOUT:
            code |= rows
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            starts = tok.type in _LAYOUT
    code -= blank
    doc -= code | blank
    return {"lines": len(lines), "code": len(code), "doc": len(doc),
            "blank": len(blank)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog=Path(__file__).name,
        description="Line counts of Python files: code, docstring and comment, blank.")
    parser.add_argument("files", nargs="*", type=Path, metavar="FILE",
                        help="files to count (default: src/pairdom/*.py)")
    args = parser.parse_args(argv)
    for path in args.files:
        if not path.is_file():
            print(f"{parser.prog}: error: not a file: {path}", file=sys.stderr)
            return 2
    paths = args.files or sorted((ROOT / "src" / "pairdom").glob("*.py"))
    rows = [(p.name, count(p)) for p in paths]
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{k:>8}" for k in KINDS))
    for name, c in rows:
        print(f"{name:<{width}}" + "".join(f"{c[k]:>8,}" for k in KINDS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
