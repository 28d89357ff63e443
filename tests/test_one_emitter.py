"""`model_io._canonical_json` is the one place that writes indented JSON."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "monograph"


def _indented_dumps_calls(tree: ast.AST):
    """Line numbers of the ``dump``/``dumps`` calls under `tree` that pass
    an ``indent`` (or ``**kwargs`` that may hold one), however the module
    is named."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("dump", "dumps") and any(k.arg == "indent" or k.arg is None for k in call.keywords):
            yield call.lineno


def test_no_indented_json_dumps_in_the_package():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}"
        for path in modules
        for line in _indented_dumps_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_checker_sees_every_spelling():
    tree = ast.parse(
        "json.dumps(x, indent=2)\n"
        "dumps(x, sort_keys=True, indent=None)\n"
        "j.dumps(x, **options)\n"
        "json.dumps(x)\n"
        "json.dump(x, f, indent=2)\n"
        "json.dump(x, f)\n"
    )
    assert list(_indented_dumps_calls(tree)) == [1, 2, 3, 5]
