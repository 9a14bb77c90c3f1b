"""Every optional parameter in the package is set by some caller in it.

A parameter with a default value in a top-level function, a method or a
class's __init__ or __new__ counts as used when some call under
src/tensorfree, outside the function's own body, passes it by position
or by keyword.  A call by the class name counts for __init__ and
__new__, and for a record's fields: each annotated class-body field
with a default is a constructor parameter at its place among the
class's annotated fields, as in a NamedTuple.  A default that no caller
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


def options(tree):
    """(called name, defining node, parameter, position or None) of every
    parameter with a default."""
    for node in tree.body:
        if isinstance(node, FUNCS):
            yield from optional_parameters(node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
            for position, item in enumerate(fields):
                if item.value is not None:
                    yield node.name, item, item.target.id, position
            for item in node.body:
                if isinstance(item, FUNCS):
                    constructor = item.name in ("__init__", "__new__")
                    name = node.name if constructor else item.name
                    yield from optional_parameters(name, item, 1)


def optional_parameters(name, node, skip):
    args = node.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for position, arg in enumerate(positional):
        if position >= first_default:
            yield name, node, arg.arg, position - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield name, node, arg.arg, None


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


def unset_options(trees):
    calls: dict[str, list[tuple[str, ast.Call]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and called_name(node):
                calls.setdefault(called_name(node), []).append((module, node))
    unset = []
    for module, tree in sorted(trees.items()):
        for name, node, param, position in options(tree):
            if (name, param) in ALLOWED:
                continue
            outside = [
                call
                for m, call in calls.get(name, [])
                if m != module or not node.lineno <= call.lineno <= node.end_lineno
            ]
            if not any(passes(call, param, position) for call in outside):
                unset.append(f"{module}:{node.lineno} {name}({param})")
    return unset


def test_every_optional_parameter_is_set_inside_the_package():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in SRC.glob("*.py")
    }
    assert unset_options(trees) == []


def test_record_fields_with_defaults_are_options():
    tree = ast.parse(
        "class R(NamedTuple):\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: int = 0\n"
        "    d: int = 0\n"
        "    def m(self):\n"
        "        return R(1, 2)\n"
        "class S(R):\n"
        "    def __new__(cls, a, e=0):\n"
        "        return R(a, d=e)\n"
        "S(1)\n"
    )
    assert unset_options({"m.py": tree}) == ["m.py:4 R(c)", "m.py:9 S(e)"]
