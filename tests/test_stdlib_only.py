"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "misact"


def absolute_imports(path: Path):
    """Top-level package of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_library_imports_only_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = [
        f"{path.name}: {name}"
        for path in files
        for name in absolute_imports(path)
        if name != "misact" and name not in sys.stdlib_module_names
    ]
    assert outside == []
