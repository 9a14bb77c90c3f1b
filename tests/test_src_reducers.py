"""One stack-merge reducer: starwords.merge_powers.

Group elements, group-backed moment reads and the spectral models' keys
all reduce syllables through merge_powers, so no function in groups.py
or spaces.py keeps a syllable stack of its own: none both pops from and
pushes onto the same name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorfree"


def stack_mergers(tree):
    """(function, line) per function that calls .pop and .append on the
    same name; a nested function is judged by its own body alone."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls: dict[str, set[str]] = {"pop": set(), "append": set()}
        todo = list(node.body)
        while todo:
            child = todo.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in calls
                and isinstance(child.func.value, ast.Name)
            ):
                calls[child.func.attr].add(child.func.value.id)
            todo.extend(ast.iter_child_nodes(child))
        if calls["pop"] & calls["append"]:
            found.append((node.name, node.lineno))
    return sorted(found, key=lambda hit: hit[1])


def test_groups_and_spaces_keep_no_syllable_stack():
    found = {
        name: hits
        for name in ("groups.py", "spaces.py")
        if (hits := stack_mergers(ast.parse((SRC / name).read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_the_rule_sees_the_one_reducer():
    tree = ast.parse((SRC / "starwords.py").read_text(encoding="utf-8"))
    assert [name for name, _ in stack_mergers(tree)] == ["merge_powers"]


def test_the_rule_sees_a_stack_and_not_a_queue():
    snippet = ast.parse(
        "def reduce(syllables):\n"
        "    stack = []\n"
        "    for s in syllables:\n"
        "        if stack and stack[-1] == s:\n"
        "            stack.pop()\n"
        "        else:\n"
        "            stack.append(s)\n"
        "def walk(todo, out):\n"
        "    while todo:\n"
        "        out.append(todo.pop())\n"
    )
    assert stack_mergers(snippet) == [("reduce", 1)]
