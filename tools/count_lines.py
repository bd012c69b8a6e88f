"""Count the lines of Python modules, in total and as code.

Code lines are the lines that hold a token of a statement: blank lines,
comment lines and the lines of module, class and function docstrings do
not count. A line that shares code with a trailing comment counts.

usage: python tools/count_lines.py PATH

PATH is a .py file or a directory searched recursively. One line per
module gives its total and code lines, and a last line the sums.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

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


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if len(argv) == 1 else None
    if root is None or not root.exists():
        print("usage: python tools/count_lines.py PATH", file=sys.stderr)
        return 2
    paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = code = 0
    for path in paths:
        lines, code_lines = count(path.read_text())
        total += lines
        code += code_lines
        print(f"{path}: {lines} total, {code_lines} code")
    print(f"overall: {total} total, {code} code")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
