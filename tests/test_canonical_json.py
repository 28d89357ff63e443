"""The one JSON emitter: byte-identical to ``json.dumps(obj, indent=2, sort_keys=True)``."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monograph.cli import main
from monograph.model_io import _canonical_json

from helpers import FIXTURES


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(alphabet=st.characters(codec="utf-8"))
    | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "é", "☃", "\U0001f600"])
)
json_values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.lists(st.integers())
        | st.lists(st.booleans())
        | st.lists(st.text()).map(tuple)
        | st.dictionaries(st.text(), children)
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_equals_json_dumps(obj):
    assert _canonical_json(obj) == reference(obj)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(), min_size=1), st.lists(st.text(), min_size=1), json_values)
def test_one_list_shared_at_two_depths(ints, texts, other):
    # a cache keyed by the list's id alone would reuse the text of the
    # first depth at the second
    obj = {"a": ints, "b": [ints, {"c": [texts, ints]}], "d": texts, "e": [other, other]}
    assert _canonical_json(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        (),
        {"a": [], "b": {}, "c": ()},
        [[True, False], [1, 0], [1, True], [True, 1], ["1", 1], [None, None]],
        {"é": "☃", 'q"uote': "a\\b\n\t\x01"},
        [1.5, -0.0, 1e300, float("inf"), float("-inf"), float("nan")],
        ([1, 2], (3, 4), [[5], (6,)]),
    ],
)
def test_edge_cases_equal_json_dumps(obj):
    assert _canonical_json(obj) == reference(obj)


@pytest.mark.parametrize(
    "obj",
    [{(1, 2): "tuple key"}, {"a": 1, 2: "b"}, {"s": {1, 2}}, [object()], {"x": [1, b"bytes"]}],
    ids=["tuple-key", "mixed-keys", "set", "object", "bytes"],
)
def test_refuses_what_json_dumps_refuses(obj):
    with pytest.raises(TypeError):
        reference(obj)
    with pytest.raises(TypeError):
        _canonical_json(obj)


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_refuses_keys_that_json_dumps_would_turn_into_strings(key):
    with pytest.raises(TypeError):
        _canonical_json({key: 0})


def test_a_circular_value_is_refused():
    loop = [1]
    loop.append({"back": loop})
    with pytest.raises(ValueError, match="Circular reference detected"):
        _canonical_json(loop)


def test_deep_nesting_does_not_recurse():
    obj = []
    for _ in range(5000):
        obj = [obj]
    text = _canonical_json(obj)
    assert text.count("[") == 5001 and text.endswith("]")


# ------------------------------------------------ the CLI's outputs are fixed points


def _json_calls():
    graphs = sorted(FIXTURES.glob("*.json"))
    calls = [["loops", path, "--json"] for path in graphs]
    calls += [["homology", path, "--bound", "2", "--json"] for path in graphs]
    for motif in ("positive-autoregulation", "negative-feedback-loop", "branch-pm", "gate-pp"):
        for host in ("host.json", "homework.json"):
            calls.append(["motif", "--motif", motif, "--host", FIXTURES / host, "--max-path-len", "3", "--json"])
    calls.append(["emergence", "--left", FIXTURES / "glue_red.json", "--right", FIXTURES / "glue_blue.json", "--json"])
    calls.append(["emergence", "--left", FIXTURES / "noncancellative_left.json", "--right", FIXTURES / "noncancellative_right.json", "--json"])
    calls.append(["decompose", FIXTURES / "q4.json", "--chain", '{"e1": 2, "e2": 1, "e3": 2, "e4": 1}', "--json"])
    return [[str(a) for a in argv] for argv in calls]


def _is_fixed_point(text: str) -> bool:
    return text == reference(json.loads(text)) + "\n"


@pytest.mark.parametrize("argv", _json_calls(), ids=lambda argv: " ".join(a.rpartition("/")[2] for a in argv))
def test_json_stdout_is_a_fixed_point(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out and _is_fixed_point(out)


def test_written_model_files_are_fixed_points(capsys, tmp_path):
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({"source": "SIGN", "target": "SIGN0", "map": ["+", "-"]}))
    # a table algebra is written out element by element
    table = {"kind": "finite-table", "elements": ["+", "-", "0"], "mul_table": [0, 1, 2, 1, 0, 2, 2, 2, 2], "unit": 0}
    table_hom = tmp_path / "table_hom.json"
    table_hom.write_text(json.dumps({"source": "SIGN", "target": table, "map": ["+", "-"]}))
    pair = [FIXTURES / "open_left.json", FIXTURES / "open_right.json"]
    calls = {
        "compose.json": ["compose", *pair],
        "tensor.json": ["tensor", *pair],
        "tensor-glue.json": ["tensor", FIXTURES / "glue_red.json", FIXTURES / "glue_blue.json"],
        "collapse.json": ["change-labels", FIXTURES / "homework.json", "--hom", "collapse"],
        "collapse-nat.json": ["change-labels", FIXTURES / "q4.json", "--hom", "collapse"],
        "hom-file.json": ["change-labels", FIXTURES / "homework.json", "--hom-file", hom],
        "table.json": ["change-labels", FIXTURES / "homework.json", "--hom-file", table_hom],
    }
    for name, argv in calls.items():
        out = tmp_path / name
        assert main([str(a) for a in argv] + ["--out", str(out)]) == 0, name
        assert _is_fixed_point(out.read_text(encoding="utf-8")), name
    capsys.readouterr()


# ------------------------------------------- lists of records, written by columns

# keys that a `%` template, a quote escape or an ASCII escape could break
record_keys = st.lists(st.sampled_from(["a", "b", "%", "%s", '"', "\\", "é", "☃", "\n"]), max_size=3).map("".join)
# what a column holds; "scalars" mixes types row by row, "scalar-lists"
# holds lists of one scalar type or of mixed ones, and the last three send
# the whole list back to the general walk
COLUMN_KINDS = ["str", "int", "scalars", "shared", "lists", "scalar-lists", "empty", "scalar-or-list", "deep", "dict"]


@st.composite
def record_lists(draw):
    """A list of dicts that share one key set, whose cells may share tuples
    by id across rows, columns and depths; sometimes one row has another
    key set."""
    names = draw(st.lists(record_keys, min_size=1, max_size=4, unique=True))
    pool = draw(st.lists(st.lists(st.integers(-3, 3) | st.text(max_size=2), max_size=3).map(tuple), min_size=1, max_size=4))
    shared = st.sampled_from(pool)
    cells = {
        "str": st.text(max_size=3),
        "int": st.integers(),
        "scalars": scalars,
        "shared": shared,
        "lists": st.lists(shared | st.lists(st.text(max_size=2), max_size=3) | st.just(()), max_size=3),
        "scalar-lists": st.lists(st.integers(-3, 3) | st.text(max_size=2), max_size=3)
        | st.lists(st.integers(), max_size=3)
        | st.lists(scalars, max_size=3).map(tuple),
        "empty": st.just([]) | st.just(()),
        "scalar-or-list": st.integers() | shared,
        "deep": st.lists(st.lists(shared, max_size=2), max_size=2),
        "dict": st.dictionaries(st.text(max_size=2), shared, max_size=2),
    }
    kinds = {name: draw(st.sampled_from(COLUMN_KINDS[:-3]) if draw(st.integers(0, 9)) else st.sampled_from(COLUMN_KINDS)) for name in names}
    rows = [{name: draw(cells[kinds[name]]) for name in names} for _ in range(draw(st.integers(0, 6)))]
    if rows and draw(st.integers(0, 9)) == 0:
        odd = draw(st.sampled_from(rows))
        odd[draw(record_keys)] = 1
    return rows, pool


@settings(max_examples=400, deadline=None)
@given(record_lists())
def test_record_lists_equal_json_dumps(drawn):
    rows, pool = drawn
    # the same rows and tuples again one level deeper, under a key with a `%`
    obj = {"rows": rows, "%again": [rows, pool, {"r": rows}]}
    assert _canonical_json(obj) == reference(obj)
    assert _canonical_json(rows) == reference(rows)


@pytest.mark.parametrize(
    "obj",
    [
        [{"%s": 1, "%%": "%d"}, {"%s": 2, "%%": "%"}],
        [{"a": []}, {"a": ()}, {"a": [[], ()]}],
        [{"a": [1, "x", None, 2.5, True]}, {"a": [False]}],
        [{"a": {"b": 1}}, {"a": {"b": 2}}],
        [{"a": 1}, {"b": 1}],
        [{"a": 1}, {"a": 1, "b": 2}],
        [{"a": [[1], ["x"], []]}, {"a": [(2, 3)]}],
        [{"a": [[[1]]]}, {"a": []}],
        [{}, {}],
        [{"a": 1}, [1]],
    ],
    ids=["percent-keys", "empty-lists", "mixed-scalar-list", "nested-dicts", "other-keys",
         "extra-key", "lists-of-lists", "three-deep", "empty-records", "not-all-dicts"],
)
def test_record_list_edge_cases_equal_json_dumps(obj):
    assert _canonical_json(obj) == reference(obj)


def test_a_tuple_shared_across_rows_and_depths():
    edge = (1, 2)
    rows = [{"path": edge, "paths": [edge, (3,)], "deep": [[edge]]} for _ in range(3)]
    obj = {"rows": rows, "edge": edge, "more": {"rows": rows}}
    assert _canonical_json(obj) == reference(obj)


@pytest.mark.parametrize("bad", [{1, 2}, b"x", object()], ids=["set", "bytes", "object"])
def test_a_bad_cell_is_refused_from_the_column_path(bad):
    rows = [{"a": 1}, {"a": bad}]
    with pytest.raises(TypeError):
        reference(rows)
    with pytest.raises(TypeError):
        _canonical_json(rows)
    with pytest.raises(TypeError):
        _canonical_json([{"a": [1]}, {"a": [bad]}])


def test_a_record_list_inside_its_own_row_is_circular():
    rows = [{"a": 1}, {"a": 2}]
    rows[1]["a"] = [rows]
    with pytest.raises(ValueError, match="Circular reference detected"):
        _canonical_json(rows)
