"""``tools/sameout.py``: only the elapsed time is left out of a command's
outcome, and any other change is a DIFF. Its refusal of a ``src/`` equal
to the base is tested with the tree module, in ``test_pairs_tool.py``."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import sameout  # noqa: E402
from pairdom.harness import COMMANDS  # noqa: E402

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
    def run_cli(tree, cwd, argv):
        i = sameout.COMMANDS.index(tuple(argv))
        if argv[-2:] == ("--format", "text"):
            out = f"gpr-equals-n: scanned=4 holds=3\nelapsed_ms={7 if tree.name == 'base' else 90}\n"
        else:
            out = report(7 if tree.name == "base" else 90, errors=["line 2: bad"] if i % 2 else None)
        outcome = (out, '{"check": "gpr-equals-n"}\n', 1)
        return changed.get(i, outcome) if tree.name == "change" else outcome

    monkeypatch.setattr(sameout, "run_cli", run_cli)
    monkeypatch.setattr(sameout, "stream", lambda n, predicate, tree, cwd: {"sha256": str(n)})


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


def test_exits_1_on_a_diff(monkeypatch):
    monkeypatch.setattr(sameout, "build_trees", lambda base, top: ("0" * 40, TREES, {}))
    stub_runs(monkeypatch, {})
    assert sameout.main(["--base", "HEAD"]) == 0
    stub_runs(monkeypatch, {1: ("", "", 1)})
    assert sameout.main(["--base", "HEAD"]) == 1


def test_every_command_has_an_item():
    # A command that no item runs could change its output unseen.
    assert set(COMMANDS) <= {argv[0] for argv in sameout.COMMANDS}
