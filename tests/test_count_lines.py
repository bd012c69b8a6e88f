"""The line counter in tools/ on a fixed snippet and a two-commit repository."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)

SNIPPET = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps the line


class Box:
    """Class docstring."""

    # a comment line
    size = 2


def area(r):
    """Function docstring,

    with a blank line inside.
    """
    text = """not a docstring,
    but a string value"""
    return math.pi * r * r, text
'''


def test_count_lines_skips_docstrings_comments_and_blank_lines():
    # Code lines: import, class, size, def, the two lines of text, return.
    assert count_lines.count(SNIPPET) == (21, 7)


def test_count_lines_prints_each_module_and_the_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert count_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{tmp_path / 'a.py'}: 21 total, 7 code",
        f"{tmp_path / 'b.py'}: 2 total, 1 code",
        "overall: 23 total, 8 code",
    ]


@pytest.mark.parametrize("argv", [[], ["--help"], ["no/such/path.py"], ["a.py", "b.py"],
                                  ["a.py", "--rev"], ["a.py", "--since", "HEAD"]],
                         ids=["none", "help", "missing", "two", "rev-without-value",
                              "unknown-option"])
def test_count_lines_prints_its_usage_for_a_bad_argument(tmp_path, monkeypatch,
                                                        capsys, argv):
    # a.py exists, so each case fails on its arguments alone.
    (tmp_path / "a.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    assert count_lines.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage: python tools/count_lines.py PATH [--rev REV]\n"


def _commit(repo, message):
    git = ["git", "-C", str(repo), "-c", "user.name=test", "-c", "user.email=test@example.com"]
    subprocess.run(git + ["add", "-A"], check=True, capture_output=True)
    subprocess.run(git + ["commit", "-q", "-m", message], check=True, capture_output=True)


def test_count_lines_compares_each_module_with_a_revision(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True, capture_output=True)
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(SNIPPET)
    (pkg / "gone.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "outside.py").write_text("z = 3\n")
    _commit(tmp_path, "first")
    (pkg / "a.py").write_text(SNIPPET + "AREA = area(1.0)\n")
    (pkg / "gone.py").unlink()
    _commit(tmp_path, "second")
    # Uncommitted work counts too: the working tree is the right-hand side.
    (pkg / "new.py").write_text("# comment\nw = 4\n")
    monkeypatch.chdir(tmp_path)
    assert count_lines.main(["pkg", "--rev", "HEAD~1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pkg/a.py: 21 -> 22 total, 7 -> 8 code",
        "pkg/gone.py: 2 -> 0 total, 2 -> 0 code",
        "pkg/new.py: 0 -> 2 total, 0 -> 1 code",
        "overall: 23 -> 24 total, 9 -> 9 code",
    ]
    # Run from inside the package, the paths are relative to it.
    monkeypatch.chdir(pkg)
    assert count_lines.main(["a.py", "--rev", "HEAD"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a.py: 22 -> 22 total, 8 -> 8 code",
        "overall: 22 -> 22 total, 8 -> 8 code",
    ]


def test_count_lines_reports_an_unknown_revision_in_one_line(tmp_path, monkeypatch, capsys):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True, capture_output=True)
    (tmp_path / "a.py").write_text("x = 1\n")
    _commit(tmp_path, "only")
    monkeypatch.chdir(tmp_path)
    assert count_lines.main(["a.py", "--rev", "no-such-rev"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error: ") and "no-such-rev" in line
