"""`homology` keeps its arithmetic exact: no true division, no float and no
`fractions`, so a stray `/` cannot turn integer elimination into floats."""

import ast
from pathlib import Path

HOMOLOGY = Path(__file__).resolve().parent.parent / "src" / "monograph" / "homology.py"


def _inexact(tree: ast.AST):
    """'what:line' for each construct in `tree` that leaves exact arithmetic."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield f"division:{node.lineno}"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield f"float constant:{node.lineno}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield f"float call:{node.lineno}"
        elif isinstance(node, ast.Import) and any(a.name.split(".")[0] == "fractions" for a in node.names):
            yield f"fractions import:{node.lineno}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            yield f"fractions import:{node.lineno}"


def test_homology_arithmetic_is_exact():
    assert list(_inexact(ast.parse(HOMOLOGY.read_text(encoding="utf-8")))) == []


def test_the_checker_sees_each_inexact_construct():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "import fractions\n"
        "x = 1 / 2\n"
        "x /= 3\n"
        "y = 0.5\n"
        "z = float(4)\n"
        "w = 7 // 2 + 3 * 4 % 5\n"
    )
    assert sorted(_inexact(tree), key=lambda site: int(site.rpartition(":")[2])) == [
        "fractions import:1",
        "fractions import:2",
        "division:3",
        "division:4",
        "float constant:5",
        "float call:6",
    ]
