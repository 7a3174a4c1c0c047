"""``tools/pairs.py``: the committed BENCH files follow its schema, and it
refuses to compare a ``src/`` with itself."""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def test_bench_files_follow_the_schema():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        with open(path) as fh:
            report = json.load(fh)
        assert path.name == f"BENCH_{report['label']}.json"
        assert re.fullmatch(r"[0-9a-f]{40}", report["base_rev"])
        hashes = report["src_sha256"]
        assert set(hashes) == {"base", "change"} and hashes["base"] != hashes["change"]
        assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in hashes.values())
        assert report["workloads"] and set(report["workloads"]) <= {
            w["name"] for w in bench["workloads"]}
        for found in report["workloads"].values():
            runs = found["pairs"]
            assert len(runs) == report["pairs"] == pairs.PAIRS
            assert [p["seed"] for p in runs] == [
                report["first_seed"] + i for i in range(len(runs))]
            assert [p["first"] for p in runs] == [
                ("base", "change")[i % 2] for i in range(len(runs))]
            # Files written before the warm-up runs have no warmup key.
            for p in runs + ([found["warmup"]] if "warmup" in found else []):
                for side in ("base", "change"):
                    assert p[side]["correct"] is True
                    assert set(p[side]) == set(metrics) | {"correct"}
            # The summaries and verdicts are what the pairs give.
            assert found["metrics"] == {name: pairs.summarize(runs, name, better)
                                        for name, better in metrics.items()}


def test_refuses_equal_sources(tmp_path):
    # A checkout whose working src/ is its HEAD's: nothing to compare, so
    # the tool exits 2 before it builds a tree or runs the benchmark, and
    # writes no BENCH file.
    (tmp_path / "tools").mkdir()
    shutil.copy2(TOOL, tmp_path / "tools" / "pairs.py")
    shutil.copy2(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
    (tmp_path / "src" / "pairdom").mkdir(parents=True)
    (tmp_path / "src" / "pairdom" / "__init__.py").write_text('"""pairdom"""\n')
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(git + ["add", "-A"], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], cwd=tmp_path, check=True)
    proc = subprocess.run([sys.executable, "tools/pairs.py", "--base", "HEAD", "--label", "t"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "the working src/ is src/ at HEAD; nothing to compare" in proc.stderr
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_warmup_runs_come_first_and_are_left_out(monkeypatch):
    # Each workload starts with one discarded run in each tree, base
    # first, before pair 0; the summaries read the pairs alone.
    calls = []

    def run_once(tree, workload, seed, seconds, names):
        calls.append((tree, workload, seed))
        value = 100.0 if len(calls) <= 2 else float(len(calls))
        return {**{name: value for name in names}, "correct": True,
                "source_sha256": tree}

    monkeypatch.setattr(pairs, "run_once", run_once)
    trees = {side: side for side in pairs.SIDES}
    metrics = {"wall_s": "lower"}
    for workload, first_seed in (("w1", 7), ("w2", 20)):
        calls.clear()
        found = pairs.measure(trees, workload, first_seed, 1.0, metrics, {})
        assert calls[:2] == [("base", workload, first_seed), ("change", workload, first_seed)]
        assert len(calls) == 2 + 2 * pairs.PAIRS
        assert found["warmup"] == {"seed": first_seed, "first": "base",
                                   "base": {"wall_s": 100.0, "correct": True},
                                   "change": {"wall_s": 100.0, "correct": True}}
        assert [p["seed"] for p in found["pairs"]] == [
            first_seed + i for i in range(pairs.PAIRS)]
        assert found["metrics"] == {"wall_s": pairs.summarize(found["pairs"], "wall_s", "lower")}
        assert found["metrics"]["wall_s"]["base"]["q3"] < 100.0


def test_stops_at_the_first_incorrect_run(monkeypatch, tmp_path, capsys):
    # The third run (w1's first pair, base side) reports correct: false:
    # the tool makes no further run, exits 1 naming the workload, the seed
    # and the side, and writes no BENCH file.
    calls = []

    def run_once(tree, workload, seed, seconds, names):
        calls.append((tree, workload, seed))
        return {**{name: 1.0 for name in names}, "correct": len(calls) != 3,
                "source_sha256": tree}

    bench = {"run_seconds": 1, "workloads": [{"name": "w1"}, {"name": "w2"}],
             "end_to_end": [{"name": "wall_s", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    outputs = {"rev-parse": b"0" * 40 + b"\n", "diff": b"a change"}
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "git", lambda *args: outputs[args[0]])
    monkeypatch.setattr(pairs, "build_trees", lambda rev, top: {s: s for s in pairs.SIDES})
    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(["--base", "HEAD", "--label", "t"]) == 1
    first_seed = calls[0][2]
    assert calls == [("base", "w1", first_seed), ("change", "w1", first_seed),
                     ("base", "w1", first_seed)]
    assert (f"pairs: w1 seed {first_seed} base: the run reported correct: false"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("BENCH_*.json"))
