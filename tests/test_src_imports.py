"""The package imports nothing outside the standard library.

Every import statement under src/tensorfree, those inside functions
included, must be relative or name a module in sys.stdlib_module_names.
pyproject.toml accordingly declares no runtime dependency.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorfree"


def imported_modules(tree):
    """(top-level module name, line) of every absolute import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0], node.lineno


def third_party_imports():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, line in imported_modules(tree):
            if name not in sys.stdlib_module_names:
                found.append(f"{path.name}:{line} {name}")
    return found


def test_src_imports_only_the_standard_library():
    assert third_party_imports() == []
