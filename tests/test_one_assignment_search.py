"""One assignment search: the cycle, motif and isomorphism searches keep no
stack of their own.  Each calls `validation._assignments` with a per-level
generator and contains no `while` loop, its nested generators included."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "monograph"

SEARCHES = {"homology": "cycles", "motifs": "find_motif_groups", "open_graphs": "iso_check"}


def _findings(tree: ast.Module, name: str) -> list[str]:
    """`name:while:line` for each `while` loop in the top-level function
    `name`, and `name:no _assignments` when it does not call it."""
    function = next(
        (node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name), None
    )
    if function is None:
        return [f"{name}:missing"]
    found = [f"{name}:while:{node.lineno}" for node in ast.walk(function) if isinstance(node, ast.While)]
    calls = any(
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_assignments"
        for node in ast.walk(function)
    )
    return found + ([] if calls else [f"{name}:no _assignments"])


def test_each_search_runs_on_the_shared_assignment_search():
    found = [
        site
        for module, name in SEARCHES.items()
        for site in _findings(ast.parse((SOURCE / f"{module}.py").read_text(encoding="utf-8")), name)
    ]
    assert found == []


def test_the_checker_sees_stacks_of_their_own():
    tree = ast.parse(
        "def own(xs):\n    stack = [xs]\n    while stack:\n        stack.pop()\n"
        "def nested(k):\n    def extend(level, a):\n        while False:\n            yield 0\n"
        "    return list(_assignments(k, extend))\n"
        "def shared(k):\n    return list(_assignments(k, lambda level, a: iter(())))\n"
    )
    assert _findings(tree, "own") == ["own:while:3", "own:no _assignments"]
    assert _findings(tree, "nested") == ["nested:while:7"]
    assert _findings(tree, "shared") == []
    assert _findings(tree, "gone") == ["gone:missing"]
