"""``tools/linecount.py``: each line falls in one class, on a fixture whose
counts are known, and the classes add up on every module of ``src/``;
``--help`` prints usage, and a path that is not a file is a usage error."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("linecount", ROOT / "tools" / "linecount.py")
linecount = importlib.util.module_from_spec(spec)
spec.loader.exec_module(linecount)

# Code on lines 5, 10, 13, 14, 15 and 16; docstring or comment on 1, 3, 7,
# 11 and 12; blank on 2 (inside a docstring), 4, 6, 8 and 9.
FIXTURE = '''"""A module docstring

over three lines."""

import os  # a trailing comment leaves the line code

# a comment line


def f(x):
    """A one-line docstring."""  # and a comment after it
    "a second string statement counts as a docstring"
    s = """a string in an
expression is code"""
    return x + \\
        len(s + os.sep)
'''


def test_fixture_counts(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert linecount.count(path) == {"lines": 16, "code": 6, "doc": 5, "blank": 5}
    assert linecount.main([str(path), str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["module", "lines", "code", "doc", "blank"]
    assert rows[1].split() == ["fixture.py", "16", "6", "5", "5"]
    assert rows[-1].split() == ["total", "32", "12", "10", "10"]


def test_classes_add_up_on_src():
    for path in sorted((ROOT / "src" / "pairdom").glob("*.py")):
        c = linecount.count(path)
        assert c["code"] + c["doc"] + c["blank"] == c["lines"] == len(
            path.read_text().splitlines()), path.name


def test_help_prints_usage():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "linecount.py"), "--help"],
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: ") and not done.stderr


def test_path_that_is_not_a_file_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing.py", tmp_path):
        assert linecount.main([str(path)]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == f"linecount.py: error: not a file: {path}\n"
