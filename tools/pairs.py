"""Alternating before/after runs of perfbench, written to a BENCH file.

    python3 tools/pairs.py --base <rev> --label NAME

Run from anywhere inside a git checkout of pairdom. Two temporary trees
each get the working ``perfbench/`` and ``BENCHMARK.json``; the base tree
gets ``src/`` as of <rev> (``git archive``), the change tree the working
``src/``. For each workload of BENCHMARK.json in turn, pair i of ten runs
``perfbench/run.py --seed <first seed + i> --trace 0`` for the benchmark's
``run_seconds`` in both trees, the base first in odd pairs and the change
first in even ones, so that neither side always runs on a warmer box.
Before pair 0, one warm-up run in each tree (base first, on the first
seed) is recorded under the workload's ``warmup`` key and left out of
every summary, since the first run of a set reads high. The
first seed is drawn from the hash of ``git diff <rev> -- src``, so each
change gets its own seeds and the same change the same ones.
``BENCH_<label>.json`` at the root of the checkout holds the
``source_sha256`` each side's runs report, every pair's end-to-end
metrics, their medians, quartiles and wins, and the claim rule's verdict on
each: the change is better in at least nine pairs of ten, and its median
is better than the base median by more than the base's interquartile
range. The tool refuses to run when the working ``src/`` has no change
against <rev>, since nothing would be compared, and stops when a side's
runs report more than one hash or both sides the same one. It also stops
at the first run that reports ``correct: false``, naming its workload,
seed and side: a time from a wrong run compares nothing. When it stops it
exits 1 and writes no BENCH file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
# The claim rule: at least nine wins in ten pairs.
PAIRS = 10
WINS = 9


class PairsError(Exception):
    """A tree could not be built or a run gave no result."""


def git(*args) -> bytes:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if proc.returncode:
        raise PairsError(f"git {' '.join(args)}: {proc.stderr.decode().strip()}")
    return proc.stdout


def build_trees(rev: str, top: Path) -> dict:
    """The base and change trees under top, each with the working
    perfbench/ and BENCHMARK.json."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    trees = {side: top / side for side in SIDES}
    for tree in trees.values():
        shutil.copytree(ROOT / "perfbench", tree / "perfbench", ignore=skip)
        shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    proc = subprocess.run(["tar", "-x", "-C", str(trees["base"])],
                          input=git("archive", "--format=tar", rev, "src"), capture_output=True)
    if proc.returncode:
        raise PairsError(f"tar: {proc.stderr.decode().strip()}")
    shutil.copytree(ROOT / "src", trees["change"] / "src", ignore=skip)
    return trees


def run_once(tree: Path, workload: str, seed: int, seconds: float, names) -> dict:
    """One ``perfbench/run.py`` run in tree: the named metrics, whether the
    run was correct, and the ``source_sha256`` it reported."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2:
        raise PairsError(f"{workload} seed {seed} in {tree.name}: exit {proc.returncode}: "
                         f"{proc.stderr[-2000:]}")
    provenance, result = json.loads(lines[-2])["provenance"], json.loads(lines[-1])
    out = {name: result["metrics"][name]["value"] for name in names}
    out["correct"] = result["correct"]
    out["source_sha256"] = provenance["source_sha256"]
    return out


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, name: str, better: str) -> dict:
    """Medians, quartiles and wins of one metric over the pairs, and the
    claim rule's verdict on the change."""
    sign = 1 if better == "lower" else -1
    base = quartiles([p["base"][name] for p in pairs])
    change = quartiles([p["change"][name] for p in pairs])
    wins = sum(sign * (p["base"][name] - p["change"][name]) > 0 for p in pairs)
    gap = sign * (base["median"] - change["median"])
    iqr = base["q3"] - base["q1"]
    return {"better": better, "base": base, "change": change, "wins": wins,
            "gap": gap, "base_iqr": iqr,
            "claim_holds": wins >= WINS and gap > iqr}


def run_pair(trees: dict, workload: str, seed: int, order, seconds: float,
             metrics: dict, hashes: dict) -> dict:
    """One run of workload in each tree, in the given order of sides."""
    pair = {"seed": seed, "first": order[0]}
    for side in order:
        got = run_once(trees[side], workload, seed, seconds, metrics)
        if not got["correct"]:
            raise PairsError(f"{workload} seed {seed} {side}: the run reported correct: false")
        reported = got.pop("source_sha256")
        if hashes.setdefault(side, reported) != reported:
            raise PairsError(f"{side} runs reported two src/ hashes")
        pair[side] = got
        print(f"pairs: {workload} seed {seed} {side} "
              + " ".join(f"{k}={got[k]:.4f}" for k in metrics), file=sys.stderr)
    if hashes["base"] == hashes["change"]:
        raise PairsError("both sides reported one src/ hash")
    return pair


def measure(trees: dict, workload: str, first_seed: int, seconds: float,
            metrics: dict, hashes: dict) -> dict:
    """The pairs of one workload and their summaries, after a warm-up run
    in each tree that no summary reads: the first run of a set reads
    high."""
    warmup = run_pair(trees, workload, first_seed, SIDES, seconds, metrics, hashes)
    pairs = [run_pair(trees, workload, first_seed + i, SIDES if i % 2 == 0 else SIDES[::-1],
                      seconds, metrics, hashes) for i in range(PAIRS)]
    return {"warmup": warmup, "pairs": pairs,
            "metrics": {name: summarize(pairs, name, better)
                        for name, better in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base src/")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("--label takes letters, digits, '.', '_' and '-'")
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    try:
        rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
        change = git("diff", "--binary", rev, "--", "src")
        if not change:
            print(f"pairs: the working src/ is src/ at {args.base}; nothing to compare",
                  file=sys.stderr)
            return 2
        first_seed = 1 + int.from_bytes(hashlib.sha256(change).digest()[:3], "big")
        hashes = {}
        with tempfile.TemporaryDirectory(prefix="pairs-") as top:
            trees = build_trees(rev, Path(top))
            results = {w["name"]: measure(trees, w["name"], first_seed, seconds,
                                          metrics, hashes) for w in bench["workloads"]}
    except PairsError as exc:
        print(f"pairs: {exc}", file=sys.stderr)
        return 1
    report = {
        "label": args.label, "base_rev": rev, "src_sha256": hashes,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "pairs": PAIRS, "seconds": seconds, "first_seed": first_seed,
        "rule": f"wins >= {WINS} of {PAIRS} and median gap > base interquartile range",
        "workloads": results,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, found in results.items():
        for name, summary in found["metrics"].items():
            print(f"{workload} {name}: base {summary['base']['median']:.4f} "
                  f"change {summary['change']['median']:.4f} wins {summary['wins']}/"
                  f"{PAIRS} claim {'holds' if summary['claim_holds'] else 'fails'}")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
