"""Every optional parameter in the package is set by some caller in it.

A parameter with a default value in a top-level function, a method or a
class's __init__ counts as used when some call under src/tensorfree,
outside the function's own body, passes it by position or by keyword.
A call by the class name counts for __init__.  A default that no caller
overrides is a constant: make it one, or delete the parameter.  Names
are matched by text, as in test_src_references.py, so a method shares
its callers with every other definition of the same name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorfree"

ALLOWED = {
    # the tests drive the command line in process through main(argv)
    ("main", "argv"),
}

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions(tree):
    """(called name, def node, leading self parameters) per definition."""
    for node in tree.body:
        if isinstance(node, FUNCS):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCS):
                    name = node.name if item.name == "__init__" else item.name
                    yield name, item, 1


def optional_parameters(node, skip):
    """(name, position or None) of every parameter with a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional):
        if position >= first_default:
            yield arg.arg, position - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def passes(call, name, position):
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or index == position:
            return True
    return False


def unset_options():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in SRC.glob("*.py")
    }
    calls: dict[str, list[tuple[str, ast.Call]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and called_name(node):
                calls.setdefault(called_name(node), []).append((module, node))
    unset = []
    for module, tree in sorted(trees.items()):
        for name, node, skip in functions(tree):
            outside = [
                call
                for m, call in calls.get(name, [])
                if m != module or not node.lineno <= call.lineno <= node.end_lineno
            ]
            for param, position in optional_parameters(node, skip):
                if (name, param) in ALLOWED:
                    continue
                if not any(passes(call, param, position) for call in outside):
                    unset.append(f"{module}:{node.lineno} {name}({param})")
    return unset


def test_every_optional_parameter_is_set_inside_the_package():
    assert unset_options() == []
