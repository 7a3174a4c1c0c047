"""``tools/sameout.py``: only the elapsed time is left out of a command's
outcome, any other change is a DIFF, and a ``src/`` equal to the base is
refused."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "sameout.py"
spec = importlib.util.spec_from_file_location("sameout", TOOL)
sameout = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sameout)

TREES = {side: Path(side) for side in sameout.SIDES}


def report(elapsed_ms: int, holds: int = 3, errors=None) -> str:
    """A JSON report as the CLI prints it; ``elapsed_ms`` is its last key
    unless there are errors."""
    rec = {"config": {"command": "verify"},
           "totals": {"gpr-equals-n": {"scanned": 4, "holds": holds, "fails": 0}},
           "failures": [], "elapsed_ms": elapsed_ms}
    if errors:
        rec["errors"] = errors
    return json.dumps(rec, indent=2) + "\n"


def stub_runs(monkeypatch, changed: dict):
    """Each side's CLI runs stubbed: the base gives one outcome per
    command, and the change the same with another elapsed time, except
    where ``changed`` maps a command's index to its outcome."""
    def run_cli(src, cwd, argv):
        i = sameout.COMMANDS.index(tuple(argv))
        if argv[-2:] == ("--format", "text"):
            out = f"gpr-equals-n: scanned=4 holds=3\nelapsed_ms={7 if src.name == 'base' else 90}\n"
        else:
            out = report(7 if src.name == "base" else 90, errors=["line 2: bad"] if i % 2 else None)
        outcome = (out, '{"check": "gpr-equals-n"}\n', 1)
        return changed.get(i, outcome) if src.name == "change" else outcome

    monkeypatch.setattr(sameout, "run_cli", run_cli)
    monkeypatch.setattr(sameout, "stream", lambda n, predicate, src, cwd: {"sha256": str(n)})


def test_only_the_elapsed_time_is_left_out(monkeypatch, capsys):
    # The change runs differ from the base runs in elapsed_ms alone: as the
    # last JSON key, as a key before others, and as a text line.
    stub_runs(monkeypatch, {})
    assert sameout.compare(TREES, Path("inputs")) is True
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"same  {' '.join(argv)}" for argv in sameout.COMMANDS] + [
        f"same  stream {name}" for name in sameout.STREAMS]


def test_exit_code_stderr_and_totals_changes_are_diffs(monkeypatch, capsys):
    err = '{"check": "gpr-equals-n"}\n'
    stub_runs(monkeypatch, {
        0: (report(90), err, 2),  # the exit code
        2: (report(90), '{"check": "pair-has-leaf"}\n', 1),  # a stderr line
        4: (report(90, holds=2), err, 1),  # a totals value
    })
    assert sameout.compare(TREES, Path("inputs")) is False
    lines = capsys.readouterr().out.splitlines()
    names = [" ".join(argv) for argv in sameout.COMMANDS]
    assert [ln for ln in lines if ln.startswith("DIFF")] == [
        f"DIFF  {names[0]}  (exit code)",
        f"DIFF  {names[2]}  (stderr)",
        f"DIFF  {names[4]}  (stdout)",
    ]
    assert len(lines) == len(sameout.COMMANDS) + len(sameout.STREAMS)


def test_exits_1_on_a_diff(monkeypatch, tmp_path):
    outputs = {"rev-parse": b"0" * 40 + b"\n", "diff": b"a change"}
    monkeypatch.setattr(sameout, "git", lambda *args: outputs[args[0]])
    monkeypatch.setattr(sameout, "build_trees", lambda rev, top: TREES)
    stub_runs(monkeypatch, {})
    assert sameout.main(["--base", "HEAD"]) == 0
    stub_runs(monkeypatch, {1: ("", "", 1)})
    assert sameout.main(["--base", "HEAD"]) == 1


def test_refuses_equal_sources(tmp_path):
    # A checkout whose working src/ is its HEAD's: nothing to compare, so
    # the tool exits 2 before it builds a tree or runs a command.
    (tmp_path / "tools").mkdir()
    shutil.copy2(TOOL, tmp_path / "tools" / "sameout.py")
    (tmp_path / "src" / "pairdom").mkdir(parents=True)
    (tmp_path / "src" / "pairdom" / "__init__.py").write_text('"""pairdom"""\n')
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
    subprocess.run(git + ["add", "-A"], cwd=tmp_path, check=True)
    subprocess.run(git + ["commit", "-q", "-m", "base"], cwd=tmp_path, check=True)
    proc = subprocess.run([sys.executable, "tools/sameout.py", "--base", "HEAD"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "the working src/ is src/ at HEAD; nothing to compare" in proc.stderr
    assert proc.stdout == ""
