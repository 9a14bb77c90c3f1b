"""The tensor freeness conditions read every factor through tensor.py.

tensor.factor_moment and tensor.factor_oracle name the factor when it
cannot evaluate a word, and TensorScenario caches each factor's axiom
check and freeness verdict.  A read of a factor's functional in tfc.py
would be a second door that skips both, so tfc.py reads none of the
attributes that reach one: the scenario's factors and a functional's
moments.
"""

import ast
from pathlib import Path

TFC = Path(__file__).resolve().parents[1] / "src" / "tensorfree" / "tfc.py"
SIDE_DOORS = {"factors", "moment", "moment_letters"}


def side_doors(tree):
    """(attribute, line) per read of an attribute in SIDE_DOORS."""
    reads = [
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in SIDE_DOORS
        and isinstance(node.ctx, ast.Load)
    ]
    return sorted(reads, key=lambda read: read[1])


def test_tfc_reads_no_factor_directly():
    assert side_doors(ast.parse(TFC.read_text(encoding="utf-8"))) == []


def test_the_rule_sees_every_side_door():
    snippet = ast.parse(
        "def f(scenario, k, word):\n"
        "    functional = scenario.factors[k - 1]\n"
        "    functional.moment(word)\n"
        "    return lambda w: functional.moment_letters(w.letters)\n"
    )
    assert side_doors(snippet) == [
        ("factors", 2),
        ("moment", 3),
        ("moment_letters", 4),
    ]
