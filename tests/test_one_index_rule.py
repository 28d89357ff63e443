"""One index rule: an index into a set of n is an `int`, not a `bool`, in
`range(n)`, and only `validation._is_index` and `validation._first_non_index`
spell it.  No other module compares a value as `0 <= x < n` or tests
`set(map(type, xs)) <= {int}`; and each kind of index the library checks
refuses a float and a bool with a ValueError, a report or a witness."""

import ast
from pathlib import Path

import pytest

import monograph as mg
from monograph import homology, validation

from helpers import NAT, SIGN

SOURCE = Path(__file__).resolve().parent.parent / "src" / "monograph"
HOME = "validation.py"


def _is_zero(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0 and not isinstance(node.value, bool)


def _is_type_set(node: ast.expr) -> bool:
    """`set(map(type, ...))`."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "set"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Name)
        and node.args[0].func.id == "map"
        and isinstance(node.args[0].args[0], ast.Name)
        and node.args[0].args[0].id == "type"
    )


def _is_int_set(node: ast.expr) -> bool:
    """`{int}`."""
    return isinstance(node, ast.Set) and [getattr(e, "id", None) for e in node.elts] == ["int"]


def _index_tests(tree: ast.AST):
    """`line` for each range test `0 <= x < n` (or `n > x >= 0`) and each
    `set(map(type, xs)) <= {int}` in `tree`."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        upward = all(isinstance(op, (ast.Lt, ast.LtE)) for op in node.ops)
        downward = all(isinstance(op, (ast.Gt, ast.GtE)) for op in node.ops)
        ranged = len(node.ops) > 1 and (upward and _is_zero(operands[0]) or downward and _is_zero(operands[-1]))
        typed = any(map(_is_type_set, operands)) and any(map(_is_int_set, operands))
        if ranged or typed:
            yield node.lineno


def _findings(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.stem}:{line}" for line in _index_tests(tree)]


def test_only_validation_spells_the_index_rule():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    assert [site for path in modules if path.name != HOME for site in _findings(path)] == []
    assert _findings(SOURCE / HOME)  # the rule itself is where it should be


def test_the_checker_sees_planted_index_tests(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def a(v, n):\n    return 0 <= v < n\n"
        "def b(v, n):\n    return not (0 <= v <= n - 1)\n"
        "def c(v, n):\n    return n > v >= 0\n"
        "def d(xs):\n    return set(map(type, xs)) <= {int}\n"
        "def e(xs):\n    return {int} >= set(map(type, xs))\n"
        "def fine(v, n, xs):\n    return 1 <= v < n or v < n or set(map(type, xs)) != {dict} or 0 < v\n"
    )
    assert sorted(_findings(module)) == ["mod:10", "mod:2", "mod:4", "mod:6", "mod:8"]


@pytest.mark.parametrize(
    "value, n, expected",
    [
        (0, 1, True), (2, 3, True), (3, 3, False), (-1, 3, False),
        (True, 3, False), (1.0, 3, False), ("1", 3, False), (None, 3, False),
    ],
)
def test_an_index_is_an_int_not_a_bool_in_range(value, n, expected):
    assert validation._is_index(value, n) is expected
    assert validation._first_non_index([0, value], n) == (None if expected else 1)


class Small(int):
    """An int subclass other than bool: an index like any int."""


def test_the_first_bad_place_is_found_past_the_fast_path():
    first = validation._first_non_index
    assert first((), 0) is None
    assert first([Small(1), 0], 2) is None
    assert first([0, 1, 5, -1], 2) == 2
    assert first([0, False, 9], 2) == 1
    assert first((0, 1.0), 2) == 1


def test_a_table_of_int_subclass_entries_is_valid():
    table = mg.TableAlgebra(("a", "b"), tuple(map(Small, (0, 1, 1, 0))), 0)
    assert mg.validate_algebra(table).ok


@pytest.fixture
def g() -> mg.LabeledGraph:
    """The 2-vertex SIGN 2-cycle."""
    return mg.labeled_graph(["u", "v"], [(0, 1), (1, 0)], SIGN, ["+", "-"])


def test_a_float_vertex_map_is_dangling(g):
    report = mg.validate_morphism(mg.GraphMorphism(g.graph, g.graph, (0.0, 1.0), (0, 1)))
    assert [v.code for v in report.violations] == ["dangling-vertex"]


def test_a_float_edge_map_is_dangling(g):
    report = mg.validate_morphism(mg.GraphMorphism(g.graph, g.graph, (0, 1), (0.0, 1)))
    assert [v.code for v in report.violations] == ["dangling-edge"]


def test_a_kleisli_vertex_map_of_floats_is_refused(g):
    identity = mg.kleisli_identity(g)
    with pytest.raises(ValueError, match="vertex map hits a missing vertex"):
        mg.is_kleisli_morphism(mg.KleisliMorphism(g, g, (0.0, 1), identity.edge_map))


def test_a_path_from_a_float_start_is_refused(g):
    with pytest.raises(ValueError, match="path start 0.5 is not a vertex"):
        mg.grade(mg.Path(0.5, ()), g)


def test_a_bool_loop_edge_is_no_edge(g):
    with pytest.raises(ValueError, match="chain mentions missing edge True"):
        mg.feedback(mg.SimpleLoop((True, 0)), g)


def test_a_bool_leg_is_no_vertex(g):
    with pytest.raises(ValueError, match="leg target True is not a vertex id"):
        mg.OpenGraph(g, ("a",), (), (True,), ())


def test_a_float_action_is_refused():
    with pytest.raises(ValueError, match="action is not total on states"):
        mg.Semiautomaton(("p", "q"), ("a",), ((1.0, 0),))


def test_label_preservation_validates_its_map_first(g):
    with pytest.raises(ValueError, match="dangling-edge"):
        mg.is_label_preserving(mg.GraphMorphism(g.graph, g.graph, (0, 1), (5, 1)), g, g)


@pytest.mark.parametrize(
    "foot_in, foot_out, witness",
    [((3,), (0,), ("left-foot", 0)), ((0,), (-1,), ("right-foot", 0)), ((0,), (True,), ("right-foot", 0))],
)
def test_a_foot_image_off_the_foot_is_a_witness(g, foot_in, foot_out, witness):
    og = mg.OpenGraph(g, ("a",), ("b",), (0,), (1,))
    m = mg.OpenGraphMap(og, og, foot_in, foot_out, mg.identity_morphism(g.graph))
    assert mg.check_2morphism(m) == (False, witness)
    assert mg.check_2morphism(mg.OpenGraphMap(og, og, (0,), (0,), m.inner)) == (True, None)


def test_cycles_past_a_machine_word_bound_hit_the_guard(monkeypatch):
    monkeypatch.setattr(homology, "_CYCLE_GUARD", 10)
    edge = mg.graph(["a", "b"], [(0, 1)])
    message = "cycle search space 9223372036854775809^1 expanded 11 nodes > guard 10"
    with pytest.raises(ValueError) as raised:
        mg.cycles(edge, NAT, 2**63)
    assert str(raised.value) == message
    x = mg.OpenGraph(mg.labeled_graph(["a", "b"], [(0, 1)], NAT, [1]), (), ("s",), (), (1,))
    glued = mg.glue(x, mg.identity_open(("s",), NAT))
    with pytest.raises(ValueError) as raised:
        mg.mv_check(glued, NAT, "two-sided", bound=2**63)
    assert str(raised.value) == message
