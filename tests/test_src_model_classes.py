"""Each model declares its own structure, and only spaces.py tells the
models apart.

A model's unitary variables, trace, freeness flag, gauge and evaluable
length are declarations on the model (spaces.MomentFunctional), which
TensorScenario combines over its factors.  A check of a model's class
anywhere else would be a second home for what a model declares: no
module but spaces.py passes GroupBackedModel, GroupAlgebraModel,
TableFunctional or SpectralModel to isinstance or issubclass, and
tensor.py, which combines the declarations, names none of them at all,
in an import or as an attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorfree"
MODELS = {"GroupBackedModel", "GroupAlgebraModel", "TableFunctional", "SpectralModel"}
CLASS_CHECKS = {"isinstance", "issubclass"}


def class_names(node):
    """The names in a class argument: a name, an attribute or a tuple."""
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from class_names(element)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def model_class_checks(tree):
    """(model class, line) per isinstance or issubclass call naming one."""
    return sorted(
        (name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in CLASS_CHECKS
        and len(node.args) == 2
        for name in class_names(node.args[1])
        if name in MODELS
    )


def model_names(tree):
    """(model class, line) per import of one and per attribute read of one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(a.name, node.lineno) for a in node.names if a.name in MODELS]
        elif isinstance(node, ast.Attribute) and node.attr in MODELS:
            found.append((node.attr, node.lineno))
    return sorted(found, key=lambda name: name[1])


def parsed(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def test_only_spaces_checks_a_model_class():
    checks = {
        path.name: model_class_checks(parsed(path.name))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "spaces.py"
    }
    assert {name: found for name, found in checks.items() if found} == {}


def test_tensor_names_no_model_class():
    assert model_names(parsed("tensor.py")) == []


def test_the_rules_see_checks_imports_and_attributes():
    snippet = ast.parse(
        "from .spaces import SpectralModel, check_axioms\n"
        "from . import spaces\n"
        "def f(m):\n"
        "    if isinstance(m, (spaces.GroupAlgebraModel, int)):\n"
        "        return 1\n"
        "    return issubclass(type(m), SpectralModel) or isinstance(m, dict)\n"
    )
    assert model_class_checks(snippet) == [
        ("GroupAlgebraModel", 4),
        ("SpectralModel", 6),
    ]
    assert model_names(snippet) == [("SpectralModel", 1), ("GroupAlgebraModel", 4)]
