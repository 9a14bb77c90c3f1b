"""The walk rules of every scan are assembled in one place.

freeness.ScanRules carries the four rules a scan walks by, and
TensorScenario.scan_rules combines them from the factors' declarations.
A ScanRules built anywhere else would be a second assembler, free to
drop a rule the declarations allow (as the diagonal scans once dropped
the per-height rule): no module but tensor.py constructs one, apart from
the empty default of a parameter in freeness.py.  A scan that needs
narrower or wider rules derives them from assembled ones with _replace,
where the change and its reason can be read: cli.py's canonical-trace
scan and counterexample.py's power-word scan, and no other function.

ScanRules.through is the one length cap of the gauge and the heights,
TensorScenario.evaluable_through as scan_rules passed it.  No _replace
sets it, since a cap moved past evaluable_through would let a skipped
word hide a depth error, and freeness.py reads no evaluable_through, so
the walk learns its cap from the rules alone.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorfree"
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def called_name(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def empty_defaults(tree):
    """The ids of the argument-free calls that are parameter defaults."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, FUNCS):
            args = node.args
            for default in args.defaults + [d for d in args.kw_defaults if d]:
                if isinstance(default, ast.Call) and not (
                    default.args or default.keywords
                ):
                    found.add(id(default))
    return found


def constructions(tree):
    """(line, whether it is an empty parameter default) per ScanRules call."""
    defaults = empty_defaults(tree)
    return sorted(
        (node.lineno, id(node) in defaults)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and called_name(node) == "ScanRules"
    )


def replacing_functions(tree):
    """The names of the top-level functions that call _replace."""
    return sorted(
        node.name
        for node in tree.body
        if isinstance(node, FUNCS)
        and any(
            isinstance(sub, ast.Call) and called_name(sub) == "_replace"
            for sub in ast.walk(node)
        )
    )


def replaced_fields(tree):
    """(line, field) per keyword of every _replace call."""
    return sorted(
        (node.lineno, keyword.arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and called_name(node) == "_replace"
        for keyword in node.keywords
    )


def reads(tree, name):
    """The lines that read name, as a variable or an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
    )


def parsed():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


def test_only_tensor_constructs_scan_rules():
    built = {name: constructions(tree) for name, tree in parsed().items()}
    assert built.pop("tensor.py"), "TensorScenario.scan_rules builds the rules"
    # test_freeness's default, the scan of every switching word
    assert [default for _, default in built.pop("freeness.py")] == [True]
    assert {name: lines for name, lines in built.items() if lines} == {}


def test_the_narrowings_replace_fields_of_assembled_rules():
    replacing = {
        name: functions
        for name, tree in parsed().items()
        if (functions := replacing_functions(tree))
    }
    assert replacing == {
        "cli.py": ["_canonical_trace_verdict"],
        "counterexample.py": ["scan_alternating_powers"],
    }


def test_the_rules_see_constructions_and_replacements():
    snippet = ast.parse(
        "from . import freeness\n"
        "def scan(joint, rules=ScanRules()):\n"
        "    return joint, rules\n"
        "def narrow(rules, scenario):\n"
        "    return rules._replace(trace=False, through=scenario.evaluable_through)\n"
        "def build(gauge):\n"
        "    return freeness.ScanRules(gauge=gauge), ScanRules()\n"
    )
    assert constructions(snippet) == [(2, True), (7, False), (7, False)]
    assert replacing_functions(snippet) == ["narrow"]
    assert replaced_fields(snippet) == [(5, "through"), (5, "trace")]
    assert reads(snippet, "evaluable_through") == [5]


def test_no_narrowing_moves_the_cap():
    fields = {
        name: [field for _, field in replaced_fields(tree)]
        for name, tree in parsed().items()
    }
    assert fields["cli.py"] == ["unitary"]
    assert fields["counterexample.py"] == ["trace", "unitary"]
    assert not any("through" in found for found in fields.values())


def test_the_walk_reads_its_cap_from_the_rules_alone():
    trees = parsed()
    assert reads(trees["tensor.py"], "evaluable_through")
    assert reads(trees["freeness.py"], "evaluable_through") == []
    assert reads(trees["freeness.py"], "through")

