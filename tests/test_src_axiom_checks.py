"""Every axiom check of a tensor factor goes through one cache.

spaces.check_axioms builds a Gram matrix and eliminates it exactly, so
a second route to it checks a factor again.  Under src/tensorfree its
name is read in two places only: TensorScenario.axioms, which keeps one
report per (factor, Gram length), and cli._run_check_axioms, the
check-axioms subcommand, which reads that cache for each factor of a
tensor file and calls check_axioms directly only for a group file, which
has no tensor scenario.  A read is a bare name or an attribute, so
passing the function on counts too, and an import under another name is
refused.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorfree"
NAME = "check_axioms"

READERS = {"tensor.TensorScenario.axioms", "cli._run_check_axioms"}

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def readers(tree, module):
    """(qualified name of the enclosing definition, line) per read of NAME,
    and (module, line) per import of NAME under another name."""
    found = []

    def visit(node, scope):
        if isinstance(node, SCOPES):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == NAME and alias.asname not in (None, NAME):
                    found.append((f"{module} (import as {alias.asname})", node.lineno))
        elif (isinstance(node, ast.Name) and node.id == NAME) or (
            isinstance(node, ast.Attribute) and node.attr == NAME
        ):
            if isinstance(node.ctx, ast.Load):
                found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, module)
    return found


def test_axiom_checks_have_one_route():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, line in readers(tree, path.stem):
            sites.append((scope, f"{path.name}:{line}"))
    assert {scope for scope, _ in sites} == READERS, sites


def test_the_rule_sees_reads_aliases_and_nesting():
    snippet = ast.parse(
        "from .spaces import check_axioms as ca\n"
        "class A:\n"
        "    def m(self):\n"
        "        return lambda f: check_axioms(f, 2)\n"
        "def g(f):\n"
        "    return map(spaces.check_axioms, f)\n"
    )
    assert readers(snippet, "mod") == [
        ("mod (import as ca)", 1),
        ("mod.A.m", 4),
        ("mod.g", 6),
    ]
