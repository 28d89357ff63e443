"""One guard convention: every bounded search reads its guard from a
constant of its own module.  No function takes a `guard` or `limit` knob,
and every guard message names a module-level `_*_GUARD` of the module
that raises it."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "monograph"

KNOBS = {"guard", "limit"}


def _knob_parameters(tree: ast.AST):
    """`function:parameter` for each knob parameter of a function in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.arg in KNOBS:
                    yield f"{name}:{arg.arg}"


def _guard_constants(tree: ast.Module) -> set[str]:
    """The module-level `_*_GUARD` names that `tree` assigns."""
    return {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("_") and target.id.endswith("_GUARD")
    }


def _stray_guard_calls(tree: ast.Module):
    """`line` for each `_over_guard` call whose limit is not one of the
    module's own `_*_GUARD` constants."""
    constants = _guard_constants(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_over_guard":
            limit = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "allowed"), None)
            if not (isinstance(limit, ast.Name) and limit.id in constants):
                yield str(node.lineno)


def _findings(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    knobs = [f"{path.stem}.{site}" for site in _knob_parameters(tree)]
    calls = [f"{path.stem}:{line}" for line in _stray_guard_calls(tree)]
    return knobs + calls


def test_no_search_takes_a_guard_knob_and_every_guard_is_a_module_constant():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [site for path in modules for site in _findings(path)]
    assert found == []


def test_the_checker_sees_knobs_and_local_guards(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "_WALK_GUARD = 10\n"
        "def search(xs, guard=5):\n    if len(xs) > guard:\n        raise ValueError(_over_guard('xs', guard))\n"
        "def build(n, *, limit=3):\n    return n\n"
        "def walk(xs):\n    guard = _WALK_GUARD\n    raise ValueError(_over_guard('xs', guard))\n"
        "def tidy(xs):\n    raise ValueError(_over_guard('xs', _WALK_GUARD))\n"
        "def other(xs):\n    raise ValueError(_over_guard('xs', _ISO_GUARD))\n"
    )
    assert sorted(_findings(module)) == ["mod.build:limit", "mod.search:guard", "mod:13", "mod:4", "mod:9"]
