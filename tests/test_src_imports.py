"""The package imports nothing outside the standard library, and each
of its names has one import path.

Every import statement under src/tensorfree, those inside functions
included, must be relative or name a module in sys.stdlib_module_names.
pyproject.toml accordingly declares no runtime dependency.  The package
root holds its docstring and nothing else, so every name is imported
from the module that defines it.

Every command-line run is a fresh process that pays for what
`import tensorfree.cli` loads: that import must not pull in dataclasses
or inspect, and it must load every module of the package, which
perfbench/tracer.py reads from sys.modules.
"""

import ast
import json
import os
import subprocess
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


def test_the_package_root_binds_no_name():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree)
    assert len(tree.body) == 1


def test_cli_import_is_lean_and_loads_every_module():
    probe = "import json, sys, tensorfree.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout))
    assert not loaded & {"dataclasses", "inspect"}
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert {"tensorfree"} | {f"tensorfree.{name}" for name in modules} <= loaded
