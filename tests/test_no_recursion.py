"""No runtime function calls itself, so stack depth never grows with input."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "monograph"

# every search runs on an explicit stack; nothing is exempt
ALLOWED: set[str] = set()


def _self_calls(node: ast.AST, prefix: str):
    """Qualified names of the functions under `node` that call themselves,
    by bare name or as an attribute of ``self``/``cls``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            for call in ast.walk(child):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (isinstance(func, ast.Name) and func.id == child.name) or (
                    isinstance(func, ast.Attribute)
                    and func.attr == child.name
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")
                ):
                    yield f"{name}:{call.lineno}"
            yield from _self_calls(child, name)
        elif isinstance(child, ast.ClassDef):
            yield from _self_calls(child, f"{prefix}.{child.name}")
        else:
            yield from _self_calls(child, prefix)


def test_no_function_calls_itself():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        found += _self_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    recursive = {site.partition(":")[0] for site in found}
    assert recursive - ALLOWED == set(), found


def test_the_checker_sees_plain_and_method_recursion():
    tree = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "class C:\n    def m(self):\n        return self.m()\n"
        "    def __init__(self):\n        super().__init__()\n"
    )
    assert list(_self_calls(tree, "mod")) == ["mod.f:2", "mod.C.m:5"]
