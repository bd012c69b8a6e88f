"""Count the lines of Python modules, in total and as code.

Code lines are the lines that hold a token of a statement: blank lines,
comment lines and the lines of module, class and function docstrings do
not count. A line that shares code with a trailing comment counts.

usage: python tools/count_lines.py PATH [--rev REV]

PATH is a .py file or a directory searched recursively. One line per
module gives its total and code lines, and a last line the sums. With
``--rev REV`` each module is also counted as it is at git revision REV
(read with ``git show``, from the repository that holds the current
directory), and each line gives REV -> working tree; a module missing on
one side counts as 0 lines there.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

USAGE = "usage: python tools/count_lines.py PATH [--rev REV]"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """Total lines and code lines of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout


def _at_revision(root: Path, rev: str) -> dict[str, tuple[int, int]]:
    """Counts of the .py modules under ``root`` at git revision ``rev``,
    keyed by path relative to the current directory."""
    names = _git("ls-tree", "-r", "--name-only", rev, "--", str(root)).splitlines()
    return {os.path.normpath(name): count(_git("show", f"{rev}:./{name}"))
            for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    rev = argv[2] if len(argv) == 3 and argv[1] == "--rev" else None
    root = Path(argv[0]) if len(argv) == 1 or rev is not None else None
    if root is None or not root.exists():
        print(USAGE, file=sys.stderr)
        return 2
    paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    if rev is None:
        total = code = 0
        for path in paths:
            lines, code_lines = count(path.read_text())
            total += lines
            code += code_lines
            print(f"{path}: {lines} total, {code_lines} code")
        print(f"overall: {total} total, {code} code")
        return 0
    try:
        before = _at_revision(root, rev)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    after = {os.path.relpath(path): count(path.read_text()) for path in paths}
    sums = [0, 0, 0, 0]
    for name in sorted(before.keys() | after.keys()):
        (t0, c0), (t1, c1) = before.get(name, (0, 0)), after.get(name, (0, 0))
        sums = [s + v for s, v in zip(sums, (t0, t1, c0, c1))]
        print(f"{name}: {t0} -> {t1} total, {c0} -> {c1} code")
    print(f"overall: {sums[0]} -> {sums[1]} total, {sums[2]} -> {sums[3]} code")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
