"""Alternating before/after runs of perfbench, written to a BENCH file.

    python3 tools/pairs.py --base <rev> --label NAME

Run from anywhere inside a git checkout of pairdom. ``tools/trees.py``
builds two temporary trees, ``src/`` as of <rev> and the working ``src/``,
and each also gets the working ``perfbench/`` and ``BENCHMARK.json``. For
each workload of BENCHMARK.json in turn, pair i of ten runs
``perfbench/run.py --seed <first seed + i> --trace 0`` for the benchmark's
``run_seconds`` in both trees, the base first in odd pairs and the change
first in even ones, so that neither side always runs on a warmer box.
Before pair 0, one warm-up run in each tree (base first, on the first
seed) is recorded under the workload's ``warmup`` key and left out of
every summary, since the first run of a set reads high. The first seed is
drawn from the two trees' digests, so each change gets its own seeds and
the same change the same ones. ``BENCH_<label>.json`` at the root of the
checkout holds the two digests, every pair's end-to-end metrics, their
medians, quartiles and wins, and the claim rule's verdict on each: the
change is better in at least nine pairs of ten, and its median is better
than the base median by more than the base's interquartile range. The
tool refuses to run, with exit 2, when the two digests are equal, since
nothing would be compared. It stops at the first run that reports
``correct: false`` or a ``source_sha256`` other than its tree's digest,
naming its workload, seed and side: a time from a wrong run, or from a
run of other code, compares nothing. When it stops it exits 1 and writes
no BENCH file.

SIGTERM stops it with exit 143 and no BENCH file: the signal becomes
``SystemExit``, so ``subprocess.run`` kills the ``perfbench/run.py`` it is
waiting on and the temporary trees are removed. That run's own CLI or
worker child, in the session perfbench starts for it, is not signalled;
it ends by itself when its one pass does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from trees import ROOT, SIDES, TreeError, build_trees

# The claim rule: at least nine wins in ten pairs.
PAIRS = 10
WINS = 9


def run_once(tree: Path, workload: str, seed: int, seconds: float, names) -> dict:
    """One ``perfbench/run.py`` run in tree: the named metrics, whether the
    run was correct, and the ``source_sha256`` it reported."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2:
        raise TreeError(f"{workload} seed {seed} in {tree.name}: exit {proc.returncode}: "
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
             metrics: dict, digests: dict) -> dict:
    """One run of workload in each tree, in the given order of sides."""
    pair = {"seed": seed, "first": order[0]}
    for side in order:
        got = run_once(trees[side], workload, seed, seconds, metrics)
        if not got["correct"]:
            raise TreeError(f"{workload} seed {seed} {side}: the run reported correct: false")
        reported = got.pop("source_sha256")
        if reported != digests[side]:
            raise TreeError(f"{workload} seed {seed} {side}: the run reported source_sha256 "
                            f"{reported}, not its tree's {digests[side]}")
        pair[side] = got
        print(f"pairs: {workload} seed {seed} {side} "
              + " ".join(f"{k}={got[k]:.4f}" for k in metrics), file=sys.stderr)
    return pair


def measure(trees: dict, workload: str, first_seed: int, seconds: float,
            metrics: dict, digests: dict) -> dict:
    """The pairs of one workload and their summaries, after a warm-up run
    in each tree that no summary reads: the first run of a set reads
    high."""
    warmup = run_pair(trees, workload, first_seed, SIDES, seconds, metrics, digests)
    pairs = [run_pair(trees, workload, first_seed + i, SIDES if i % 2 == 0 else SIDES[::-1],
                      seconds, metrics, digests) for i in range(PAIRS)]
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
        with tempfile.TemporaryDirectory(prefix="pairs-") as top:
            rev, trees, digests = build_trees(args.base, Path(top))
            for tree in trees.values():
                shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                                ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
                shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
            both = " ".join(digests[side] for side in SIDES).encode()
            first_seed = 1 + int.from_bytes(hashlib.sha256(both).digest()[:3], "big")
            results = {w["name"]: measure(trees, w["name"], first_seed, seconds,
                                          metrics, digests) for w in bench["workloads"]}
    except TreeError as exc:
        print(f"pairs: {exc}", file=sys.stderr)
        return exc.code
    report = {
        "label": args.label, "base_rev": rev, "src_sha256": digests,
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
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    raise SystemExit(main())
