"""The package imports nothing at run time but NumPy and the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "mptree").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_every_module_imports_only_numpy_and_the_standard_library():
    assert len(SOURCES) > 1
    foreign = {path.name: sorted(name for name in _absolute_imports(path)
                                 if name.split(".")[0] != "numpy"
                                 and name.split(".")[0] not in sys.stdlib_module_names)
               for path in SOURCES}
    assert {name: names for name, names in foreign.items() if names} == {}
