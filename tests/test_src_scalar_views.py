"""Only scalars.py reads the Fraction views of a scalar.

ExactComplex keeps its value as three ints; its re and im attributes
build a Fraction on every read, for the JSON codecs and printed forms.
So no other module under src/tensorfree reads an attribute named re or
im: reality, zero and sign come from is_real, is_zero and sign.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorfree"
VIEWS = {"re", "im"}


def view_reads(tree):
    """(attribute, line) of every read of an attribute named re or im."""
    return sorted(
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in VIEWS
    )


def test_no_module_but_scalars_reads_a_fraction_view():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if path.name != "scalars.py"
        and (hits := view_reads(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_the_rule_sees_a_view_read():
    snippet = ast.parse("if pivot.im != 0:\n    sign = pivot.re < 0\nre.compile('x')\n")
    assert view_reads(snippet) == [("im", 1), ("re", 2)]
    assert view_reads(ast.parse((SRC / "scalars.py").read_text(encoding="utf-8")))
