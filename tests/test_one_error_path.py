"""`cli.main` is the one place where a library ValueError becomes an `error:` line."""

import ast
import builtins
from pathlib import Path

from monograph import cli

SOURCE = Path(__file__).resolve().parent.parent / "src" / "monograph" / "cli.py"

# each adds the file path or the flag name to the library's message
ALLOWED = {"main", "_load", "_resolve_hom", "cmd_decompose"}


def _caught_types(node: ast.expr, namespace: dict):
    """The classes an except clause names, resolved in `namespace`."""
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _caught_types(element, namespace)
    elif isinstance(node, ast.Name):
        yield namespace[node.id] if node.id in namespace else getattr(builtins, node.id)
    elif isinstance(node, ast.Attribute):
        for owner in _caught_types(node.value, namespace):
            yield getattr(owner, node.attr)


def _value_error_catchers(tree: ast.AST, namespace: dict) -> set[str]:
    """Names of the functions with an except clause that can catch a
    ValueError: a bare ``except:``, ValueError, a base or a subclass of it."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for handler in ast.walk(func):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            caught = [BaseException] if handler.type is None else _caught_types(handler.type, namespace)
            if any(issubclass(ValueError, t) or issubclass(t, ValueError) for t in caught):
                found.add(func.name)
    return found


def test_only_main_turns_a_value_error_into_an_error_line():
    found = _value_error_catchers(ast.parse(SOURCE.read_text(encoding="utf-8")), vars(cli))
    assert "main" in found
    assert found - ALLOWED == set()


def test_the_checker_sees_every_kind_of_value_error_handler():
    tree = ast.parse(
        "def plain():\n    try: pass\n    except ValueError: pass\n"
        "def subclass():\n    try: pass\n    except (OSError, json.JSONDecodeError): pass\n"
        "def base():\n    try: pass\n    except Exception: pass\n"
        "def bare():\n    try: pass\n    except: pass\n"
        "def other():\n    try: pass\n    except (OSError, KeyError): pass\n"
    )
    assert _value_error_catchers(tree, vars(cli)) == {"plain", "subclass", "base", "bare"}
