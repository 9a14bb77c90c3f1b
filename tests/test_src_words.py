"""A word has one type: a StarWord is the tuple of its letters.

Walkers, memos, model oracles and the tensor oracles all take letter
tuples, and a StarWord is one, so no module unwraps a word to reach its
letters or wraps a letter tuple again only to hand it on: no module
under src/tensorfree reads an attribute named letters, and none calls
StarWord(tuple(...)), since StarWord takes any iterable of letters.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorfree"


def rewraps(tree):
    """('letters' | 'StarWord(tuple)', line) per read of an attribute
    named letters and per StarWord(tuple(...)) call."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "letters"
            and isinstance(node.ctx, ast.Load)
        ):
            found.append(("letters", node.lineno))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "StarWord"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == "tuple"
        ):
            found.append(("StarWord(tuple)", node.lineno))
    return sorted(found, key=lambda hit: hit[1])


def test_no_module_unwraps_or_rewraps_a_word():
    found = {
        path.name: hits
        for path in sorted(SRC.glob("*.py"))
        if (hits := rewraps(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_the_rule_sees_both_rewraps():
    snippet = ast.parse(
        "def oracle(scenario, letters):\n"
        "    word = StarWord(tuple(letters))\n"
        "    return scenario.moment(word.letters)\n"
    )
    assert rewraps(snippet) == [("StarWord(tuple)", 2), ("letters", 3)]
