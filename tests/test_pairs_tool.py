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
            for p in runs:
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
