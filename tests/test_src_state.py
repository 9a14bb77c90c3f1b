"""No function in the package writes to an attribute of its arguments.

A check that records its result on the object it was given leaves state
that later calls read without saying so.  Under src/tensorfree, no
function or method may assign an attribute of one of its parameters,
whether by plain, annotated or augmented assignment or by setattr;
self and cls, which a method owns, are exempt.  Nested functions are
checked against their own parameters and those of the functions around
them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorfree"

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
OWNERS = {"self", "cls"}


def parameters(node) -> set[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return set(names) - OWNERS


def written_attributes(node):
    """(object name, attribute) of every attribute write under node."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Attribute) and isinstance(
                        part.value, ast.Name
                    ):
                        yield part.value.id, part.attr
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "setattr"
            and sub.args
            and isinstance(sub.args[0], ast.Name)
        ):
            attr = sub.args[1]
            name = attr.value if isinstance(attr, ast.Constant) else "?"
            yield sub.args[0].id, name


def parameter_writes():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, FUNCS):
                continue
            params = parameters(node)
            name = getattr(node, "name", "<lambda>")
            for owner, attr in written_attributes(node):
                if owner in params:
                    found.append(f"{path.name} {name} {owner}.{attr}")
    return found


def test_no_function_writes_to_its_parameters():
    assert parameter_writes() == []


def test_the_scan_sees_each_kind_of_write():
    tree = ast.parse(
        "def f(a, b, *c, d, **e):\n"
        "    a.x = 1\n"
        "    b.y += 1\n"
        "    c.z: int = 1\n"
        "    setattr(d, 'w', 1)\n"
        "    p, e.v = 1, 2\n"
        "    local = object()\n"
        "    local.u = 1\n"
        "class C:\n"
        "    def m(self, cls):\n"
        "        self.t = cls.s = 1\n"
    )
    writes = [
        (owner, attr)
        for node in ast.walk(tree)
        if isinstance(node, FUNCS)
        for owner, attr in written_attributes(node)
        if owner in parameters(node)
    ]
    assert writes == [("a", "x"), ("b", "y"), ("c", "z"), ("e", "v"), ("d", "w")]
