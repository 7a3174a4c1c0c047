"""Layered benchmark for pairdom.

    python3 perfbench/run.py --workload verify-enum8 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src``. Each measured pass runs in a fresh process (``worker.py`` or the
``pairdom`` CLI), so nothing cached survives between passes. With
``--trace 0`` the run makes a fixed number of passes, about ``--seconds``
of work on a 2-core 2 GHz host, and reports the end-to-end metrics of
BENCHMARK.json as medians over passes; each ``invariants-gnp`` pass draws
its own 40 graphs from the seed. End-to-end times are in reference-speed
seconds: every measured process runs ``speedprobe``, which scales its
wall time by the host's speed as it ran (see there). With ``--trace 1`` it makes one
traced pass and reports the per-layer metrics; on ``invariants-gnp`` and
``hunt-c3free9`` one untraced pass as well, for the tracing overhead and,
on ``invariants-gnp``, per-graph latency. Every output
is checked against the references in ``refs/`` (``make_refs.py`` records
them). The last line of standard output is the
result; the line before it is the run's provenance and the wall-clock
medians of ``wall_s`` and ``setup_s``. Both, with the per-pass figures,
are also written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import speedprobe

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"
# Set-up processes per run, half before the measured passes and half after.
SETUP_REPEATS = 12
# Each child process is stopped after this long; a run must end in 180 s.
CHILD_TIMEOUT_S = 170

# pass_s is the nominal wall time of one pass on a 2-core 2 GHz host. It fixes how
# many passes a run makes for a given --seconds, so that every run's
# figures come from the same number of samples on any host.
WORKLOADS = {
    "verify-enum8": {"name": "verify-enum8", "kind": "verify", "n": 8, "jobs": 2,
                     "pass_s": 45, "refs": "refs/verify-enum8.json"},
    "hunt-c3free9": {"name": "hunt-c3free9", "kind": "hunt", "n": 9,
                     "pass_s": 10, "refs": "refs/hunt-c3free9.json"},
    "invariants-gnp": {"name": "invariants-gnp", "kind": "gnp", "graphs": 40,
                       "pass_s": 15, "refs": "refs/invariants-gnp.json"},
}


class BenchError(Exception):
    """The program could not be run or did not produce a report."""


def mismatch(totals: dict, ref: dict, everything: int) -> int:
    """Largest per-check difference between two {check: {status: count}}
    tables; everything when they do not name the same checks."""
    if set(totals) != set(ref):
        return everything
    return max((abs(totals[c].get(k, 0) - v) for c in ref for k, v in ref[c].items()),
               default=0)


def spawn(argv) -> tuple[str, int, float, float]:
    """Run argv from the checkout root; return stdout, exit code and the
    ``monotonic()`` times it started and ended."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    begin = monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} timed out after {CHILD_TIMEOUT_S} s")
    end = monotonic()
    if proc.returncode not in (0, 1):
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: {err[-2000:]}")
    return out, proc.returncode, begin, end


def worker(task: str, spec: dict, draw: str, trace: bool = False) -> tuple[dict, float, float]:
    """Run worker.py; return its result and the times it started and ended."""
    out, code, begin, end = spawn([sys.executable, str(BENCH / "worker.py"), task,
                                   json.dumps(spec), draw, str(int(trace))])
    if code:
        raise BenchError(f"worker {task} exited {code}")
    return json.loads(out.splitlines()[-1]), begin, end


def setup_once(spec: dict, draw: str) -> tuple[float, float]:
    """One set-up process: its wall time in reference-speed seconds,
    scaled by its own probes, and in wall-clock seconds."""
    out, begin, end = worker("setup", spec, draw)
    return speedprobe.reference_seconds(begin, end, out["probes"]), end - begin


def run_cli(source: str, jobs: int, refs: dict) -> tuple[float, float, dict, int]:
    """``pairdom verify <source> --jobs <jobs>`` in its own process, under
    the speed probe. Returns its wall time in reference-speed seconds and
    in wall-clock seconds, its report and how many graphs went wrong."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"report-jobs{jobs}.json"
    probes = OUT / f"probes-jobs{jobs}.json"
    path.unlink(missing_ok=True)
    probes.unlink(missing_ok=True)
    _, code, begin, end = spawn([sys.executable, str(BENCH / "cli_probed.py"), str(probes),
                                 "verify", source, "--jobs", str(jobs), "--output", str(path)])
    with open(path) as fh:
        report = json.load(fh)
    with open(probes) as fh:
        wall = speedprobe.reference_seconds(begin, end, json.load(fh))
    graphs = refs["graphs"]
    failing = {rec["graph6"] for rec in report["failures"]}
    failed = max(mismatch(report["totals"], refs["totals"], graphs), len(failing),
                 0 if code == refs["exit_code"] else 1)
    return wall, end - begin, report, min(graphs, failed)


def latency_summary(latencies: list) -> tuple[float, float]:
    """Median and tail in ms. The tail is the highest percentile with at
    least ten samples beyond it, the 11th largest value; below 22 samples
    that would fall under the median, so the median is used instead."""
    ordered = sorted(latencies)
    tail = ordered[max(len(ordered) // 2, len(ordered) - 11)]
    return statistics.median(ordered) * 1000, tail * 1000


def one_pass(spec: dict, draw: str, refs: dict) -> dict:
    if spec["kind"] == "verify":
        wall, raw, _, failed = run_cli(f"enum:{spec['n']}", spec["jobs"], refs)
        return {"wall_s": wall, "raw_wall_s": raw, "attempted": refs["graphs"],
                "failed": failed}
    out = worker(spec["kind"], spec, draw)[0]
    out.pop("latencies", None)
    return out


def end_to_end(spec: dict, seed: int, seconds: float, refs: dict):
    count = max(1, round(seconds / spec["pass_s"]))
    passes = [one_pass(spec, f"{seed}.{i}", refs) for i in range(count)]
    values = {"wall_s": statistics.median(p["wall_s"] for p in passes),
              "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes)}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return values, attempted, failed, {"passes": passes}


def layers(spec: dict, seed: int, refs: dict):
    """One traced pass, plus what the layer metrics are measured against:
    on verify-enum8 the CLI with one job and with two, elsewhere an
    untraced pass, which on invariants-gnp also gives per-graph latency."""
    draw = f"{seed}.0"
    if spec["kind"] == "verify":
        traced = worker("trace-verify", spec, draw, True)[0]
        self_s = traced["layers"]["self_s"]
        load = self_s["harness.load_source"]
        runs = {jobs: run_cli(traced["graph6_path"], jobs, refs) for jobs in (1, spec["jobs"])}
        jobs1 = runs[1][2]["elapsed_ms"] / 1000 - load
        jobs2 = runs[spec["jobs"]][2]["elapsed_ms"] / 1000 - load
        extra = {
            "harness.run_jobs1_s": jobs1,
            "harness.run_jobs2_s": jobs2,
            "harness.jobs2_efficiency": jobs1 / (spec["jobs"] * jobs2),
            "cli.overhead_s": runs[spec["jobs"]][1] - runs[spec["jobs"]][2]["elapsed_ms"] / 1000,
            "trace.overhead_s": traced["traced_run_s"] - load - jobs1,
        }
        attempted = traced["attempted"] + 2 * refs["graphs"]
        failed = traced["failed"] + sum(r[3] for r in runs.values())
    else:
        plain = worker(spec["kind"], spec, draw)[0]
        traced = worker(spec["kind"], spec, draw, True)[0]
        extra = {"trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
        if "predicate_calls" in traced:
            extra["generate.predicate_calls"] = traced["predicate_calls"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        if "latencies" in plain:
            extra["graph_p50_ms"], extra["graph_tail_ms"] = latency_summary(
                plain["latencies"])
    found = traced["layers"]
    counts = found["counts"]
    values = {f"{k}_s": v for k, v in found["self_s"].items()}
    values.update(counts)
    values.update(extra)
    values["generate.s"] = found["self_s"].get("generate", 0.0)
    if extra.get("generate.predicate_calls"):
        values["generate.kept_ratio"] = counts["generate.graphs"] / extra["generate.predicate_calls"]
    if counts.get("domination.pds_count"):
        values["domination.pds_minimal_ratio"] = (
            counts["domination.mpds_count"] / counts["domination.pds_count"])
    return values, attempted, failed, {"spans": found["spans"]}


def measure(spec: dict, seed: int, seconds: float, trace: bool, metric_specs: list):
    """Run one workload and return (result line, details). Layers that
    a workload does not exercise report 0."""
    with open(BENCH / spec["refs"]) as fh:
        refs = json.load(fh)
    if trace:
        values, attempted, failed, details = layers(spec, seed, refs)
    else:
        draw = f"{seed}.0"
        setup = [setup_once(spec, draw) for _ in range(SETUP_REPEATS // 2)]
        values, attempted, failed, details = end_to_end(spec, seed, seconds, refs)
        setup += [setup_once(spec, draw) for _ in range(SETUP_REPEATS - len(setup))]
        values["setup_s"] = statistics.median(s for s, _ in setup)
        details["setup_s"] = setup
        details["wall_clock"] = {"setup_s": statistics.median(raw for _, raw in setup),
                                 "wall_s": values["raw_wall_s"]}
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in metric_specs}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pairdom" / "__init__.py").is_file():
        print("perfbench: no pairdom sources under src/", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    spec = WORKLOADS[args.workload]
    load_start = os.getloadavg()
    try:
        result, details = measure(spec, args.seed, args.seconds, bool(args.trace),
                                  bench["per_layer" if args.trace else "end_to_end"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    provenance = {
        "commit": git_commit(), "source_sha256": source_sha256(),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "workload": args.workload, "jobs": spec.get("jobs", 1), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump({"provenance": provenance, "result": result, "details": details}, fh,
                  indent=1)
    print(json.dumps({"provenance": provenance, "wall_clock": details.get("wall_clock")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
