"""The line counter in tools/ on a fixed snippet."""

import importlib.util
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


@pytest.mark.parametrize("argv", [[], ["--help"], ["no/such/path.py"], ["a.py", "b.py"]],
                         ids=["none", "help", "missing", "two"])
def test_count_lines_prints_its_usage_for_a_bad_argument(tmp_path, monkeypatch,
                                                        capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert count_lines.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage: python tools/count_lines.py PATH\n"
