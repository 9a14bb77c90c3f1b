"""Every procedure in the package has a use inside the package.

A top-level function or class counts as used when it is read somewhere
under src/tensorfree outside its own definition, in one of two ways:
as a bare name that no parameter, assignment, loop or comprehension
target of an enclosing function binds, or as <module>.<name> with
<module> a tensorfree module.  A non-dunder method counts as used when
its name is read (as a bare name or as an attribute) anywhere; names are
matched by text, so a method shares its uses with every other
definition of the same name.  Imports are not reads, so a procedure
that only its tests reach fails here: give it a use in the CLI or a
report, or delete it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorfree"
MODULES = {path.stem for path in SRC.glob("*.py")}

ALLOWED = {
    # the NC-cumulant route that is to re-check every reported witness
    # (ROADMAP item 1); until then only tests call it
    "mixed_moment_by_cumulants",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def definitions(tree):
    """(definition, is_method) for every top-level def and non-dunder method."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS) and not is_dunder(item.name):
                        yield item, True


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def local_names(function):
    """Names that a function's parameters, assignments, loops and
    comprehension targets bind, nested functions excluded."""
    args = function.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    names = {a.arg for a in params if a is not None}
    pending = list(ast.iter_child_nodes(function))
    while pending:
        node = pending.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        pending.extend(ast.iter_child_nodes(node))
    return names


def reads(tree):
    """(name, line, kind) per read: kind "global" for a bare name that no
    enclosing function binds or for <module>.<name>, "local" for any
    other bare name or attribute."""
    found = []

    def visit(node, bound):
        if isinstance(node, FUNCTIONS):
            bound = bound | local_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            kind = "local" if node.id in bound else "global"
            found.append((node.id, node.lineno, kind))
        elif isinstance(node, ast.Attribute):
            module = node.value
            qualified = isinstance(module, ast.Name) and module.id in MODULES
            found.append((node.attr, node.lineno, "global" if qualified else "local"))
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return found


def unused_definitions():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in SRC.glob("*.py")
    }
    uses: dict[str, list[tuple[str, int, str]]] = {}
    for module, tree in trees.items():
        for name, line, kind in reads(tree):
            uses.setdefault(name, []).append((module, line, kind))
    unused = []
    defined = set()
    for module, tree in sorted(trees.items()):
        for node, is_method in definitions(tree):
            defined.add(node.name)
            outside = [
                (m, line)
                for m, line, kind in uses.get(node.name, [])
                if (is_method or kind == "global")
                and (m != module or not node.lineno <= line <= node.end_lineno)
            ]
            if not outside and node.name not in ALLOWED:
                unused.append(f"{module}:{node.lineno} {node.name}")
    for name in sorted(ALLOWED - defined):
        unused.append(f"ALLOWED {name}: no such definition")
    return unused


def test_every_definition_is_used_inside_the_package():
    assert unused_definitions() == []
