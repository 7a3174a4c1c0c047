"""``tools/pairs.py``: the committed BENCH files follow its schema, and it
stops at a run that is wrong or ran other code. ``tools/trees.py``, which
it shares with ``tools/sameout.py``: both tools refuse to compare a
``src/`` with itself, an untracked module is a change, and a tree's
digest is the benchmark's ``source_sha256``."""

import importlib.util
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import pairs  # noqa: E402
import trees  # noqa: E402


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


def run_in_checkout(tmp_path, tool: str, untracked: bool, bench: str = "raise SystemExit(3)\n",
                    stop_at: Path | None = None) -> subprocess.CompletedProcess:
    """``tools/<tool>.py --base HEAD`` in a new checkout that commits the
    tool, the tree module and a one-module ``src/`` (for pairs, also a
    benchmark whose ``run.py`` is ``bench``); with untracked, one more
    module is added to ``src/pairdom`` and left out of git. With
    ``stop_at``, the tool runs with its temporary files under
    ``tmp_path/tmp`` and gets SIGTERM once that file exists."""
    (tmp_path / "tools").mkdir()
    for name in (tool, "trees"):
        shutil.copy2(ROOT / "tools" / f"{name}.py", tmp_path / "tools")
    if tool == "pairs":
        shutil.copy2(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(bench)
    (tmp_path / "src" / "pairdom").mkdir(parents=True)
    (tmp_path / "src" / "pairdom" / "__init__.py").write_text('"""pairdom"""\n')
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, cwd=tmp_path, check=True)
    if untracked:
        (tmp_path / "src" / "pairdom" / "zz_new.py").write_text("X = 1\n")
    argv = [sys.executable, f"tools/{tool}.py", "--base", "HEAD"] + (
        ["--label", "t"] if tool == "pairs" else [])
    if stop_at is None:
        return subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    (tmp_path / "tmp").mkdir()
    env = {**os.environ, "TMPDIR": str(tmp_path / "tmp")}
    with subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        deadline = time.monotonic() + 60
        while not stop_at.exists() and proc.poll() is None:
            assert time.monotonic() < deadline, "the benchmark never started"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


@pytest.mark.parametrize("tool", ["pairs", "sameout"])
def test_refuses_equal_sources(tmp_path, tool):
    # The working src/ is its HEAD's: nothing to compare, so the tool
    # exits 2 before it runs anything, and writes no BENCH file.
    proc = run_in_checkout(tmp_path, tool, untracked=False)
    assert proc.returncode == 2, proc.stderr
    assert f"{tool}: the working src/ is src/ at HEAD; nothing to compare" in proc.stderr
    assert proc.stdout == ""
    assert not list(tmp_path.glob("BENCH_*.json"))


@pytest.mark.parametrize("tool", ["pairs", "sameout"])
def test_an_untracked_module_is_a_change(tmp_path, tool):
    # git diff shows no untracked file, but the change tree holds it: the
    # tool goes on to compare, and fails there, as this checkout has
    # nothing it can run.
    proc = run_in_checkout(tmp_path, tool, untracked=True)
    assert proc.returncode == 1, proc.stderr
    assert "nothing to compare" not in proc.stderr
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_sigterm_stops_the_run_and_removes_the_trees(tmp_path):
    # The fake benchmark writes its pid and sleeps; SIGTERM to pairs kills
    # it, removes both temporary trees and exits 143, writing no BENCH file.
    pid_file = tmp_path / "run.pid"
    bench = ("import os, time\n"
             f"open({str(pid_file) + '.new'!r}, 'w').write(str(os.getpid()))\n"
             f"os.replace({str(pid_file) + '.new'!r}, {str(pid_file)!r})\n"
             "time.sleep(120)\n")
    proc = run_in_checkout(tmp_path, "pairs", untracked=True, bench=bench, stop_at=pid_file)
    assert proc.returncode == 143, proc.stderr
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
    assert not list((tmp_path / "tmp").glob("pairs-*"))
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_digest_is_the_benchmarks_source_sha256(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    assert trees.digest(ROOT) == run.source_sha256()


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
    sides = {side: side for side in pairs.SIDES}
    metrics = {"wall_s": "lower"}
    for workload, first_seed in (("w1", 7), ("w2", 20)):
        calls.clear()
        found = pairs.measure(sides, workload, first_seed, 1.0, metrics, sides)
        assert calls[:2] == [("base", workload, first_seed), ("change", workload, first_seed)]
        assert len(calls) == 2 + 2 * pairs.PAIRS
        assert found["warmup"] == {"seed": first_seed, "first": "base",
                                   "base": {"wall_s": 100.0, "correct": True},
                                   "change": {"wall_s": 100.0, "correct": True}}
        assert [p["seed"] for p in found["pairs"]] == [
            first_seed + i for i in range(pairs.PAIRS)]
        assert found["metrics"] == {"wall_s": pairs.summarize(found["pairs"], "wall_s", "lower")}
        assert found["metrics"]["wall_s"]["base"]["q3"] < 100.0


def stop_at_the_third_run(monkeypatch, tmp_path, fault: dict) -> int:
    """pairs.main on two workloads whose third run (w1's first pair, base
    side) reports fault: it makes no further run, exits 1 and writes no
    BENCH file. The first seed."""
    calls = []

    def run_once(tree, workload, seed, seconds, names):
        calls.append((tree.name, workload, seed))
        out = {**{name: 1.0 for name in names}, "correct": True, "source_sha256": tree.name}
        return {**out, **fault} if len(calls) == 3 else out

    bench = {"run_seconds": 1, "workloads": [{"name": "w1"}, {"name": "w2"}],
             "end_to_end": [{"name": "wall_s", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    (tmp_path / "perfbench").mkdir()
    built = {side: tmp_path / side for side in pairs.SIDES}
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "build_trees", lambda base, top: (
        "0" * 40, built, {side: side for side in pairs.SIDES}))
    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(["--base", "HEAD", "--label", "t"]) == 1
    first_seed = calls[0][2]
    assert calls == [("base", "w1", first_seed), ("change", "w1", first_seed),
                     ("base", "w1", first_seed)]
    assert not list(tmp_path.glob("BENCH_*.json"))
    return first_seed


def test_stops_at_the_first_incorrect_run(monkeypatch, tmp_path, capsys):
    first_seed = stop_at_the_third_run(monkeypatch, tmp_path, {"correct": False})
    assert (f"pairs: w1 seed {first_seed} base: the run reported correct: false"
            in capsys.readouterr().err)


def test_stops_at_the_first_run_of_another_tree(monkeypatch, tmp_path, capsys):
    # Each run must report its own tree's digest.
    first_seed = stop_at_the_third_run(monkeypatch, tmp_path, {"source_sha256": "change"})
    assert (f"pairs: w1 seed {first_seed} base: the run reported source_sha256 change, "
            "not its tree's base" in capsys.readouterr().err)
