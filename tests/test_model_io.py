"""Model file parsing, canonical emission, and DOT export."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monograph as mg
from monograph import model_io
from monograph.model_io import ModelFormatError

from helpers import BOOL, FIXTURES, NAT, S_RIG, SIGN, oracle_graph_entries

ALL_FIXTURES = sorted(FIXTURES.glob("*.json"))


def test_fixture_directory_is_complete():
    names = {p.name for p in ALL_FIXTURES}
    assert {
        "homework.json",
        "q4.json",
        "r5.json",
        "host.json",
        "glue_red.json",
        "glue_blue.json",
        "open_left.json",
        "open_right.json",
        "open_composite.json",
        "noncancellative_left.json",
        "noncancellative_right.json",
    } <= names


@pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
def test_all_fixtures_parse_and_validate(path):
    model = mg.load_model(path)
    g = model.any_graph
    assert g is not None
    assert mg.validate_algebra(g.algebra).ok


class TestParsing:
    def test_minimal_file_round_trips(self):
        text = json.dumps(
            {
                "format": 1,
                "graph": {"algebra": "SIGN", "vertices": [{"id": "v"}], "edges": []},
            }
        )
        model = mg.parse_model(text)
        assert model.graph.graph.n_vertices == 1 and model.graph.graph.n_edges == 0
        assert mg.parse_model(mg.emit_model(model)).graph == model.graph

    def test_homework_counts(self):
        model = mg.load_model(FIXTURES / "homework.json")
        assert model.graph.graph.n_vertices == 4
        assert model.graph.graph.n_edges == 5
        assert model.graph.algebra == SIGN

    def test_unknown_label_names_the_edge(self):
        text = json.dumps(
            {
                "format": 1,
                "graph": {
                    "algebra": "SIGN",
                    "vertices": [{"id": "u"}, {"id": "v"}],
                    "edges": [{"id": "bad-edge", "src": "u", "tgt": "v", "label": "±"}],
                },
            }
        )
        with pytest.raises(ModelFormatError) as excinfo:
            mg.parse_model(text)
        assert excinfo.value.code == "unknown-element"
        assert "bad-edge" in str(excinfo.value)

    def test_dangling_endpoint(self):
        text = json.dumps(
            {
                "format": 1,
                "graph": {
                    "algebra": "SIGN",
                    "vertices": [{"id": "u"}],
                    "edges": [{"id": "e", "src": "u", "tgt": "ghost", "label": "+"}],
                },
            }
        )
        with pytest.raises(ModelFormatError) as excinfo:
            mg.parse_model(text)
        assert excinfo.value.code == "dangling-id"

    def test_unknown_algebra_name(self):
        text = json.dumps({"format": 1, "algebra": "Octonions"})
        with pytest.raises(ModelFormatError) as excinfo:
            mg.parse_model(text)
        assert excinfo.value.code == "unknown-algebra"

    def test_builtin_algebra_objects_parse_by_id(self):
        text = json.dumps({"format": 1, "algebra": {"kind": "builtin", "builtin_id": "NatAdd"}})
        assert mg.parse_model(text).algebra == NAT
        text = json.dumps({"format": 1, "algebra": {"kind": "builtin", "builtin_id": "Octonions"}})
        with pytest.raises(ModelFormatError, match=r"^\[unknown-algebra\] unknown builtin 'Octonions'$"):
            mg.parse_model(text)

    def test_json_syntax_errors_carry_position(self):
        with pytest.raises(ModelFormatError) as excinfo:
            mg.parse_model("{\n  broken")
        assert excinfo.value.code == "json-syntax"
        assert excinfo.value.line == 2

    def test_deep_nesting_is_a_json_syntax_error(self):
        with pytest.raises(ModelFormatError) as excinfo:
            mg.parse_model("[" * 10**5 + "]" * 10**5)
        assert excinfo.value.code == "json-syntax"

    def test_schema_violations_have_their_own_code(self):
        with pytest.raises(ModelFormatError) as excinfo:
            mg.parse_model(json.dumps({"format": 1}))
        assert excinfo.value.code == "schema"
        with pytest.raises(ModelFormatError) as excinfo:
            mg.parse_model(json.dumps({"format": 2, "algebra": "SIGN"}))
        assert excinfo.value.code == "schema"

    def test_bad_table_is_distinct_from_schema(self):
        text = json.dumps(
            {
                "format": 1,
                "algebra": {
                    "kind": "finite-table",
                    "elements": ["a", "b"],
                    "mul_table": [0, 1, 1],
                    "unit": 0,
                },
            }
        )
        with pytest.raises(ModelFormatError) as excinfo:
            mg.parse_model(text)
        assert excinfo.value.code == "bad-table"

    def test_inline_algebra_with_rig_tables(self):
        text = json.dumps(
            {
                "format": 1,
                "algebra": {
                    "kind": "finite-table",
                    "elements": ["0", "1"],
                    "mul_table": [0, 0, 0, 1],
                    "add_table": [0, 1, 1, 1],
                    "unit": 1,
                    "zero": 0,
                    "flags": {"commutative": True},
                },
            }
        )
        model = mg.parse_model(text)
        assert model.algebra == mg.CATALOG["BOOL"]

    @pytest.mark.parametrize("key", ["unit", "zero"])
    def test_boolean_unit_or_zero_is_a_bad_table(self, key):
        algebra = {
            "kind": "finite-table",
            "elements": ["0", "1"],
            "mul_table": [0, 0, 0, 1],
            "add_table": [0, 1, 1, 1],
            "unit": 1,
            "zero": 0,
        }
        algebra[key] = True
        with pytest.raises(ModelFormatError) as excinfo:
            mg.parse_model(json.dumps({"format": 1, "algebra": algebra}))
        assert excinfo.value.code == "bad-table"
        assert f"{key} True is not an element index" in str(excinfo.value)

    def test_morphism_section_round_trips(self):
        text = json.dumps(
            {
                "format": 1,
                "graph": {
                    "algebra": "SIGN",
                    "vertices": [{"id": "u"}, {"id": "v"}],
                    "edges": [{"id": "e", "src": "u", "tgt": "v", "label": "+"}],
                },
                "morphism": {"f0": [0, 0], "f1": [0]},
            }
        )
        model = mg.parse_model(text)
        assert model.morphism == ((0, 0), (0,))
        assert mg.parse_model(mg.emit_model(model)).morphism == model.morphism

    def test_builtin_labels_parse_numbers_and_fraction_strings(self):
        text = json.dumps(
            {
                "format": 1,
                "graph": {
                    "algebra": "RatAdd",
                    "vertices": [{"id": "u"}, {"id": "v"}],
                    "edges": [
                        {"id": "a", "src": "u", "tgt": "v", "label": 150},
                        {"id": "b", "src": "u", "tgt": "v", "label": "3/2"},
                        {"id": "c", "src": "u", "tgt": "v", "label": "0.25"},
                    ],
                },
            }
        )
        model = mg.parse_model(text)
        assert model.graph.labels == (150, Fraction(3, 2), Fraction(1, 4))
        emitted = mg.emit_model(model)
        assert json.loads(emitted)["graph"]["edges"][1]["label"] == "3/2"
        assert mg.parse_model(emitted).graph == model.graph


class TestEmission:
    @pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: p.name)
    def test_emit_is_a_fixed_point(self, path):
        model = mg.load_model(path)
        once = mg.emit_model(model)
        assert mg.emit_model(mg.parse_model(once)) == once

    def test_integer_ids_become_strings_but_stay_stable(self):
        text = json.dumps(
            {
                "format": 1,
                "graph": {
                    "algebra": "SIGN",
                    "vertices": [{"id": 0}, {"id": 1}],
                    "edges": [{"id": 10, "src": 0, "tgt": 1, "label": "+"}],
                },
            }
        )
        model = mg.parse_model(text)
        assert model.vertex_ids == ("0", "1") and model.edge_ids == ("10",)
        once = mg.emit_model(model)
        assert mg.emit_model(mg.parse_model(once)) == once

    def test_an_algebra_only_rig_model_round_trips(self):
        rig = mg.product_algebra(S_RIG, BOOL)
        assert rig.is_rig
        model = mg.ModelFile(algebra=rig)
        text = mg.emit_model(model)
        obj = json.loads(text)
        assert set(obj) == {"format", "algebra"}
        assert obj["algebra"]["kind"] == "finite-table" and obj["algebra"]["zero"] == rig.zero_index
        assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        assert mg.parse_model(text).algebra == rig

    def test_catalog_algebras_emit_by_name(self):
        model = mg.load_model(FIXTURES / "homework.json")
        assert json.loads(mg.emit_model(model))["graph"]["algebra"] == "SIGN"


class TestDot:
    def test_export_contains_rankdir_and_labels(self):
        model = mg.load_model(FIXTURES / "homework.json")
        dot = mg.export_dot(model.graph)
        assert "rankdir=LR;" in dot
        assert '"effort"' in dot and '[label="-"]' in dot
        assert dot == mg.export_dot(model.graph)  # deterministic

    def test_edges_appear_in_id_order(self):
        model = mg.load_model(FIXTURES / "q4.json")
        dot = mg.export_dot(model.graph)
        lines = [line for line in dot.splitlines() if "->" in line]
        assert lines == ['  v0 -> v1 [label="1"];', '  v0 -> v1 [label="1"];',
                         '  v1 -> v0 [label="1"];', '  v1 -> v0 [label="1"];']


def _graph_file(vertices, edges):
    return {"format": 1, "graph": {"algebra": "SIGN", "vertices": vertices, "edges": edges}}


_V = [{"id": "a"}, {"id": "b"}]
_E = {"id": "e", "src": "a", "tgt": "b", "label": "+"}


def _table_file(**tables):
    return {"format": 1, "algebra": dict({"kind": "finite-table", "elements": ["1", "x"], "unit": 0}, **tables)}


def _open_file(**legs):
    inner = {"algebra": "SIGN", "vertices": _V, "edges": [_E]}
    obj = dict({"inner": inner, "left_foot": ["x"], "right_foot": ["y"], "leg_in": {"x": "a"}, "leg_out": {"y": "b"}}, **legs)
    return {"format": 1, "open_graph": obj}


# each check that builds its message only on failure, with the exact text
BROKEN_MODELS = {
    "vertex id type": (
        _graph_file([{"id": 1.5}], []),
        ("schema", "[schema] vertex: ids must be strings or integers, got 1.5"),
    ),
    "vertex id bool": (
        _graph_file([{"id": True}], []),
        ("schema", "[schema] vertex: ids must be strings or integers, got True"),
    ),
    "edge id type": (
        _graph_file(_V, [dict(_E, id=[1])]),
        ("schema", "[schema] edge: ids must be strings or integers, got [1]"),
    ),
    "src id type": (
        _graph_file(_V, [dict(_E, src=None)]),
        ("schema", "[schema] edge 'e' src: ids must be strings or integers, got None"),
    ),
    "tgt id type": (
        _graph_file(_V, [dict(_E, tgt={"x": 1})]),
        ("schema", "[schema] edge 'e' tgt: ids must be strings or integers, got {'x': 1}"),
    ),
    "integer src not a vertex": (
        _graph_file(_V, [dict(_E, src=7)]),
        ("dangling-id", "[dangling-id] edge 'e': src '7' is not a vertex id"),
    ),
    "duplicate vertex": (
        _graph_file([{"id": "a"}, {"id": "a"}], []),
        ("schema", "[schema] duplicate vertex id 'a'"),
    ),
    "duplicate vertex across id types": (
        _graph_file([{"id": 1}, {"id": "1"}], []),
        ("schema", "[schema] duplicate vertex id '1'"),
    ),
    "duplicate edge": (
        _graph_file(_V, [_E, dict(_E)]),
        ("schema", "[schema] duplicate edge id 'e'"),
    ),
    "name type": (
        _graph_file([{"id": "a", "name": 3}], []),
        ("schema", "[schema] vertex 'a': name must be a string"),
    ),
    "missing src": (
        _graph_file(_V, [{"id": "e", "tgt": "b", "label": "+"}]),
        ("schema", "[schema] edge 'e' is missing src"),
    ),
    "missing tgt": (
        _graph_file(_V, [{"id": 4, "src": "a", "label": "+"}]),
        ("schema", "[schema] edge '4' is missing tgt"),
    ),
    "missing label": (
        _graph_file(_V, [{"id": "e", "src": "a", "tgt": "b"}]),
        ("schema", "[schema] edge 'e' is missing its label"),
    ),
    "table entry type": (
        _table_file(mul_table=[0, 1, 1, "x"]),
        ("bad-table", "[bad-table] mul_table entry 'x' is not an element index"),
    ),
    "table entry range": (
        _table_file(mul_table=[0, 1, 1, 2]),
        ("bad-table", "[bad-table] mul_table entry 2 is not an element index"),
    ),
    "add table entry bool": (
        _table_file(mul_table=[0, 1, 1, 1], add_table=[0, 1, True, 1], zero=0),
        ("bad-table", "[bad-table] add_table entry True is not an element index"),
    ),
    "table entry negative": (
        _table_file(mul_table=[0, 1, -1, 1]),
        ("bad-table", "[bad-table] mul_table entry -1 is not an element index"),
    ),
    "table entry float": (
        _table_file(mul_table=[0, 1.0, 1, 1]),
        ("bad-table", "[bad-table] mul_table entry 1.0 is not an element index"),
    ),
    "first of several bad table entries": (
        _table_file(mul_table=[0, 5, "x", -1]),
        ("bad-table", "[bad-table] mul_table entry 5 is not an element index"),
    ),
    "flag as a string": (
        _table_file(mul_table=[0, 1, 1, 1], flags={"commutative": "false"}),
        ("schema", "[schema] flag 'commutative' must be true or false, got 'false'"),
    ),
    "flag as an integer": (
        _table_file(mul_table=[0, 1, 1, 1], flags={"cancellative": 1}),
        ("schema", "[schema] flag 'cancellative' must be true or false, got 1"),
    ),
    "flag as null": (
        _table_file(mul_table=[0, 1, 1, 1], flags={"commutative": None}),
        ("schema", "[schema] flag 'commutative' must be true or false, got None"),
    ),
    "format true": (
        dict(_table_file(mul_table=[0, 1, 1, 1]), format=True),
        ("schema", "[schema] format must be 1, got True"),
    ),
    "format float": (
        dict(_table_file(mul_table=[0, 1, 1, 1]), format=1.0),
        ("schema", "[schema] format must be 1, got 1.0"),
    ),
    "unknown table key": (
        _table_file(mul_table=[0, 1, 1, 1], mul_tabel=[]),
        ("schema", "[schema] unknown finite-table algebra keys: ['mul_tabel']"),
    ),
    "unknown flag": (
        _table_file(mul_table=[0, 1, 1, 1], flags={"comutative": True, "cancellative": False}),
        ("schema", "[schema] unknown flag keys: ['comutative']"),
    ),
    "unknown builtin key": (
        {"format": 1, "algebra": {"kind": "builtin", "builtin_id": "NatAdd", "flags": {}}},
        ("schema", "[schema] unknown builtin algebra keys: ['flags']"),
    ),
    "leg key outside its foot": (
        _open_file(leg_in={"x": "a", "y": "zz"}),
        ("schema", "[schema] leg_in names ['y'] outside its foot"),
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN_MODELS))
def test_parse_messages_are_pinned(name):
    obj, expected = BROKEN_MODELS[name]
    with pytest.raises(ModelFormatError) as info:
        mg.parse_model(json.dumps(obj))
    assert (info.value.code, str(info.value)) == expected


# ------------------------------------------- the graph reader and its oracle

# an inline table whose element names repeat: a label names the first
DUPLICATE_NAMES = {"kind": "finite-table", "elements": ["a", "b", "a"], "mul_table": [0] * 9, "unit": 0}
ids = st.sampled_from(["a", "b", "c", "1", 1, 2, True, 1.5, None, ["a"]])
labels = st.sampled_from(["+", "-", "0", "a", "b", "x", 0, 1, -1, "1/2", "1/0", "1e3", 2.5, 1.0, True, None])


@st.composite
def graph_objects(draw):
    """Graph sections, most of them valid: ids from a small pool so that
    duplicates and dangling endpoints occur, and now and then a missing key,
    a non-dict entry or a bad name or label."""
    algebra = draw(st.sampled_from(["SIGN", "SIGN0", "TrivialOne", "NatAdd", "IntAdd", "RatAdd", "RatMulMonoid", DUPLICATE_NAMES]))
    vertex_ids = draw(st.lists(st.sampled_from(["a", "b", "c", 1, 2]), max_size=5, unique=True))
    if draw(st.integers(0, 4)) == 0:
        vertex_ids.append(draw(ids))
    vertices = [{"id": v} for v in vertex_ids]
    for vertex in vertices:
        if draw(st.booleans()):
            vertex["name"] = draw(st.sampled_from(["x", "y", "", 3, None]) if draw(st.integers(0, 9)) == 0 else st.sampled_from(["x", "y", "é"]))
    good_ends = st.sampled_from(vertex_ids or ["a"])
    good_labels = {
        "SIGN": st.sampled_from(["+", "-"]), "SIGN0": st.sampled_from(["+", "0", "-"]),
        "TrivialOne": st.sampled_from([1, "1"]), "NatAdd": st.integers(0, 3), "IntAdd": st.integers(-3, 3),
        "RatAdd": st.sampled_from([1, "1/2", "-3/4"]), "RatMulMonoid": st.sampled_from([-2, "0.5", "3/4"]),
    }.get(algebra if isinstance(algebra, str) else "", st.sampled_from(["a", "b"]))
    edges = []
    for e in range(draw(st.integers(0, 6))):
        edge = {"id": f"e{e}", "src": draw(good_ends), "tgt": draw(good_ends), "label": draw(good_labels)}
        if draw(st.integers(0, 5)) == 0:
            key = draw(st.sampled_from(["id", "src", "tgt", "label"]))
            if draw(st.booleans()):
                del edge[key]
            else:
                edge[key] = draw(labels if key == "label" else ids)
        edges.append(edge)
    if draw(st.integers(0, 9)) == 0:
        draw(st.sampled_from([vertices, edges])).append(draw(st.sampled_from([[], "v", 3, None])))
    return {"algebra": algebra, "vertices": vertices, "edges": edges}


def _outcome(obj):
    try:
        graph, vertex_ids, edge_ids = model_io.parse_graph(obj)
    except ModelFormatError as exc:
        return exc.code, str(exc)
    return graph, vertex_ids, edge_ids


@settings(max_examples=500, deadline=None)
@given(graph_objects())
def test_the_reader_reads_what_its_oracle_reads(obj):
    read = _outcome(obj)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_io, "_graph_entries", oracle_graph_entries)
        expected = _outcome(obj)
    assert read == expected


def test_a_table_label_names_the_first_equal_element():
    graph, _, _ = model_io.parse_graph(
        {"algebra": DUPLICATE_NAMES, "vertices": [{"id": "v"}], "edges": [{"id": "e", "src": "v", "tgt": "v", "label": "a"}]}
    )
    assert graph.labels == (0,)


def _one_edge_graph(algebra, label):
    edges = [{"id": "e", "src": "v", "tgt": "v", "label": label}]
    return {"format": 1, "graph": {"algebra": algebra, "vertices": [{"id": "v"}], "edges": edges}}


def test_trivial_one_labels_are_the_integer_or_the_string_1():
    for label in (1, "1"):
        assert mg.parse_model(json.dumps(_one_edge_graph("TrivialOne", label))).graph.labels == (1,)
    for label in (True, 1.0):
        with pytest.raises(ModelFormatError) as info:
            mg.parse_model(json.dumps(_one_edge_graph("TrivialOne", label)))
        assert str(info.value) == f"[unknown-element] edge 'e': {label!r} is not an element of this algebra"


@pytest.mark.parametrize("label", ["1e3", "2E-1", "1e10000000"])
def test_a_rational_label_with_an_exponent_is_refused(label):
    with pytest.raises(ModelFormatError) as info:
        mg.parse_model(json.dumps(_one_edge_graph("RatAdd", label)))
    assert str(info.value) == f"[unknown-element] edge 'e': {label!r} is not an exact rational label"
