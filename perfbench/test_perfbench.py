"""The benchmark's own tests, at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speedprobe  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "verify": {"name": "tiny-verify", "kind": "verify", "n": 6, "jobs": 2,
               "pass_s": 1, "refs": "refs/tiny-verify-enum6.json"},
    "hunt": {"name": "tiny-hunt", "kind": "hunt", "n": 7,
             "pass_s": 1, "refs": "refs/tiny-hunt-c3free7.json"},
    "gnp": {"name": "tiny-gnp", "kind": "gnp", "graphs": 4,
            "pass_s": 1, "refs": "refs/tiny-invariants-gnp12.json"},
}
# Layers each kind of workload must exercise, so their metrics are > 0.
EXERCISED = {
    "verify": ["generate.s", "generate.graphs", "families.classify_s",
               "families.recognize_s", "families.cactus_s", "domination.mds_s",
               "domination.pds_s", "domination.pds_filter_s", "domination.invariants_s",
               "domination.independence_s", "domination.pds_minimal_ratio",
               "matching.enum_s", "matching.count", "characterizations.facts_s",
               "harness.load_source_s", "harness.run_jobs1_s", "harness.run_jobs2_s",
               "harness.jobs2_efficiency", "cli.overhead_s"]
    + [f"characterizations.check.{cid}_s" for cid in
       json.loads((run.BENCH / TINY["verify"]["refs"]).read_text())["totals"]],
    "hunt": ["generate.s", "generate.graphs", "generate.predicate_calls",
             "generate.kept_ratio", "families.classify_s", "domination.mds_s",
             "domination.pds_filter_s", "characterizations.facts_s",
             "characterizations.hunt_record_s"],
    "gnp": ["domination.mds_s", "domination.pds_s", "domination.pds_filter_s",
            "domination.invariants_s", "domination.mds_count", "domination.mpds_count",
            "graph_p50_ms", "graph_tail_ms"],
}


def measure(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return run.measure(spec, 1, 0, trace, BENCHMARK[key])[0]


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted(kind, trace):
    result = measure(TINY[kind], trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs}
    if trace:
        must_move = EXERCISED[kind]
    else:
        must_move = [m["name"] for m in specs]
    assert [m for m in must_move if not result["metrics"][m]["value"] > 0] == []


def corrupt_verify(refs):
    refs["totals"]["gpr-equals-n"]["holds"] += 1


def corrupt_hunt(refs):
    refs["satisfiers"] = refs["satisfiers"][1:]


def corrupt_gnp(refs):
    for cell in refs["cells"]:
        for entry in cell["graphs"]:
            entry["values"][1] += 1


@pytest.mark.parametrize("kind,corrupt", [
    ("verify", corrupt_verify), ("hunt", corrupt_hunt), ("gnp", corrupt_gnp)])
def test_corrupted_reference_is_a_failure(kind, corrupt, tmp_path):
    spec = copy.deepcopy(TINY[kind])
    refs = json.loads((run.BENCH / spec["refs"]).read_text())
    corrupt(refs)
    spec["refs"] = str(tmp_path / "refs.json")
    Path(spec["refs"]).write_text(json.dumps(refs))
    result = measure(spec, False)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hunt-c3free9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_seconds_scales_by_probe_speed():
    half_speed = [(i * 0.01, 2 * speedprobe.REF_PROBE_S) for i in range(1, 100)]
    assert speedprobe.reference_seconds(0.0, 0.5, half_speed) == pytest.approx(0.25)
    # An interval between two probes takes the speed of the one after it.
    assert speedprobe.reference_seconds(0.103, 0.107, half_speed) == pytest.approx(0.002)
    one_slow = [(when, d * (40 if i == 50 else 1)) for i, (when, d) in enumerate(half_speed)]
    assert speedprobe.reference_seconds(0.0, 0.99, one_slow) == pytest.approx(0.495)
