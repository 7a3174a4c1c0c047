"""The two trees that ``tools/pairs.py`` and ``tools/sameout.py`` compare:
``src/`` as of a base revision and the working ``src/``.

``build_trees`` resolves the base revision, extracts its ``src/`` with
``git archive`` into one temporary tree and copies the working ``src/``
into another. Each tree's digest is ``perfbench/run.py``'s
``source_sha256`` of that tree: every ``src/**/*.py`` in sorted order, its
path relative to the tree in posix form, then its bytes. When the two
digests are equal there is nothing to compare, and the tools refuse with
exit 2. An untracked new module counts, as it is in the working ``src/``.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


class TreeError(Exception):
    """A tree could not be built or a run in one gave no result; the tool
    exits with ``code``."""

    code = 1


class NothingToCompare(TreeError):
    code = 2


def git(*args) -> bytes:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if proc.returncode:
        raise TreeError(f"git {' '.join(args)}: {proc.stderr.decode().strip()}")
    return proc.stdout


def digest(tree: Path) -> str:
    """The sha256 of tree's ``src/``, as ``perfbench/run.py`` reports it."""
    sha = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        sha.update(path.relative_to(tree).as_posix().encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def build_trees(base: str, top: Path) -> tuple[str, dict, dict]:
    """The commit that base names, and the base and change trees under top
    with their digests; NothingToCompare when the digests are equal."""
    rev = git("rev-parse", "--verify", f"{base}^{{commit}}").decode().strip()
    trees = {side: top / side for side in SIDES}
    trees["base"].mkdir()
    proc = subprocess.run(["tar", "-x", "-C", str(trees["base"])],
                          input=git("archive", "--format=tar", rev, "src"), capture_output=True)
    if proc.returncode:
        raise TreeError(f"tar: {proc.stderr.decode().strip()}")
    shutil.copytree(ROOT / "src", trees["change"] / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    digests = {side: digest(tree) for side, tree in trees.items()}
    if digests["base"] == digests["change"]:
        raise NothingToCompare(f"the working src/ is src/ at {base}; nothing to compare")
    return rev, trees, digests
