"""Every procedure in the package has a use inside the package.

A top-level function or class, or a non-dunder method, counts as used
when its name is read (as a bare name or as an attribute) somewhere under
src/tensorfree outside its own definition.  Imports, the re-exports of
__init__.py among them, are not reads, so a procedure that only its
tests reach fails here: give it a use in the CLI or a report, or delete
it.  Names are matched by text, so a method shares its uses with every
other definition of the same name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorfree"

ALLOWED = {
    # the NC-cumulant route that is to re-check every reported witness
    # (ROADMAP item 1); until then only tests call it
    "mixed_moment_by_cumulants",
    # writes the bundled scenarios/*.json files; run by hand when a
    # scenario builder changes
    "write_all",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree):
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS) and not is_dunder(item.name):
                        yield item


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unused_definitions():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in SRC.glob("*.py")
    }
    uses: dict[str, list[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for name, line in reads(tree):
            uses.setdefault(name, []).append((module, line))
    unused = []
    for module, tree in sorted(trees.items()):
        for node in definitions(tree):
            outside = [
                (m, line)
                for m, line in uses.get(node.name, [])
                if m != module or not node.lineno <= line <= node.end_lineno
            ]
            if not outside and node.name not in ALLOWED:
                unused.append(f"{module}:{node.lineno} {node.name}")
    return unused


def test_every_definition_is_used_inside_the_package():
    assert unused_definitions() == []
