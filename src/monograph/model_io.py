"""JSON model files and DOT export.

A model file carries a format version plus an algebra, a graph, or an open
graph (and optionally a morphism's index arrays).  Vertex and edge ids in a
file may be strings or integers; they are normalized to strings and mapped
to dense internal indices at parse time.  Emission is canonical:
`_canonical_json` writes exactly what ``json.dumps(obj, indent=2,
sort_keys=True)`` writes (sorted keys, two-space indent, ASCII escapes),
and a model file ends in a newline, so identical models give
byte-identical files.  The CLI's `--json` output goes through the same
emitter, except `motif --json`: `_match_groups_json` writes the same text
from the search's product form, without a record per match.  Both writers
lay out every container they write in one join through `_bracketed`, bar
the containers that `_canonical_json`'s general walk streams item by item.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from typing import TYPE_CHECKING, Any, Optional

from .algebra import (
    BUILTIN_NAMES,
    Flags,
    LabelAlgebra,
    TableAlgebra,
    algebra_name,
    named_algebra,
)
from .validation import record

if TYPE_CHECKING:
    # imported where a section is parsed: an algebra-only file loads neither
    from .graphs import LabeledGraph
    from .open_graphs import OpenGraph

FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """A rejected model file; `code` distinguishes the failure classes."""

    def __init__(self, code: str, message: str, line: Optional[int] = None, column: Optional[int] = None):
        location = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(f"[{code}] {message}{location}")
        self.code = code
        self.line = line
        self.column = column


@record()
class ModelFile:
    format_version: int = FORMAT_VERSION
    algebra: Optional[LabelAlgebra] = None
    graph: Optional[LabeledGraph] = None
    open_graph: Optional[OpenGraph] = None
    morphism: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    vertex_ids: tuple[str, ...] = ()
    edge_ids: tuple[str, ...] = ()

    @property
    def any_graph(self) -> Optional[LabeledGraph]:
        if self.graph is not None:
            return self.graph
        if self.open_graph is not None:
            return self.open_graph.inner
        return None


def _require(condition: bool, code: str, message: str) -> None:
    if not condition:
        raise ModelFormatError(code, message)


def _require_known(obj: dict, known: frozenset, what: str) -> None:
    unknown = obj.keys() - known
    if unknown:
        raise ModelFormatError("schema", f"unknown {what} keys: {sorted(unknown)}")


_TABLE_KEYS = frozenset({"kind", "elements", "mul_table", "add_table", "unit", "zero", "flags"})


def _as_id(value: Any, where: str) -> str:
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise ModelFormatError("schema", f"{where}: ids must be strings or integers, got {value!r}")
    return str(value)


def parse_algebra(obj: Any) -> LabelAlgebra:
    if isinstance(obj, str):
        try:
            return named_algebra(obj)
        except KeyError:
            raise ModelFormatError("unknown-algebra", f"unknown algebra name {obj!r}") from None
    _require(isinstance(obj, dict), "schema", "algebra must be a name or an object")
    kind = obj.get("kind")
    if kind == "builtin":
        _require_known(obj, frozenset({"kind", "builtin_id"}), "builtin algebra")
        name = obj.get("builtin_id")
        _require(name in BUILTIN_NAMES, "unknown-algebra", f"unknown builtin {name!r}")
        return named_algebra(name)
    _require(kind == "finite-table", "schema", f"algebra kind must be 'finite-table' or 'builtin', got {kind!r}")
    _require_known(obj, _TABLE_KEYS, "finite-table algebra")
    _require(
        isinstance(obj.get("elements"), list) and all(isinstance(e, str) for e in obj["elements"]),
        "schema",
        "algebra elements must be a list of strings",
    )
    elements = tuple(obj["elements"])
    n = len(elements)

    def is_index(v: Any) -> bool:
        # JSON true/false arrive as bool, a subclass of int
        return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n

    def read_table(key: str, required: bool):
        table = obj.get(key)
        if table is None:
            _require(not required, "schema", f"algebra is missing {key}")
            return None
        _require(isinstance(table, list), "bad-table", f"{key} must be a flat row-major list")
        _require(len(table) == n * n, "bad-table", f"{key} has {len(table)} entries, expected {n * n}")
        # checked in C; only a failure looks for the first bad entry
        if table and not (set(map(type, table)) <= {int} and min(table) >= 0 and max(table) < n):
            bad = next(v for v in table if not is_index(v))
            raise ModelFormatError("bad-table", f"{key} entry {bad!r} is not an element index")
        return tuple(table)

    mul_table = read_table("mul_table", required=True)
    add_table = read_table("add_table", required=False)
    unit = obj.get("unit")
    _require(is_index(unit), "bad-table", f"unit {unit!r} is not an element index")
    zero = obj.get("zero")
    if add_table is not None:
        _require(is_index(zero), "bad-table", f"zero {zero!r} is not an element index")
    else:
        _require(zero is None, "schema", "zero given without an add_table")
    flags_obj = obj.get("flags", {})
    _require(isinstance(flags_obj, dict), "schema", "flags must be an object")
    _require_known(flags_obj, frozenset({"commutative", "cancellative"}), "flag")

    def read_flag(key: str) -> bool:
        value = flags_obj.get(key, False)
        _require(isinstance(value, bool), "schema", f"flag {key!r} must be true or false, got {value!r}")
        return value

    flags = Flags(commutative=read_flag("commutative"), cancellative=read_flag("cancellative"))
    return TableAlgebra(elements, mul_table, unit, add_table, zero, flags)


def algebra_to_json(algebra: LabelAlgebra) -> Any:
    name = algebra_name(algebra)
    if name is not None:
        return name
    assert isinstance(algebra, TableAlgebra)
    obj: dict[str, Any] = {
        "kind": "finite-table",
        "elements": list(algebra.elements),
        "mul_table": list(algebra.mul_table),
        "unit": algebra.unit,
        "flags": {
            "commutative": algebra.flags.commutative,
            "cancellative": algebra.flags.cancellative,
        },
    }
    if algebra.add_table is not None:
        obj["add_table"] = list(algebra.add_table)
        obj["zero"] = algebra.zero_index
    return obj


def parse_graph(obj: Any):
    """Parse a graph object; returns (LabeledGraph, vertex_ids, edge_ids)."""
    from .graphs import Graph, LabeledGraph

    _require(isinstance(obj, dict), "schema", "graph must be an object")
    _require("algebra" in obj, "schema", "graph is missing its algebra")
    algebra = parse_algebra(obj["algebra"])
    vertices = obj.get("vertices")
    edges = obj.get("edges", [])
    _require(isinstance(vertices, list), "schema", "graph.vertices must be a list")
    _require(isinstance(edges, list), "schema", "graph.edges must be a list")
    vertex_ids, names, edge_ids, src, tgt, labels = map(tuple, _graph_entries(vertices, edges, algebra))
    graph = LabeledGraph(Graph(names, src, tgt), algebra, labels)
    return graph, vertex_ids, edge_ids


def _graph_entries(vertices: list, edges: list, algebra: LabelAlgebra) -> tuple:
    """``(vertex_ids, names, edge_ids, src, tgt, labels)`` read entry by
    entry; raises on the first entry that fails a check, with its message.
    A check calls a helper or builds a message only when its fast test fails."""
    vertex_ids: list[str] = []
    names: list[str] = []
    index: dict[str, int] = {}
    for entry in vertices:
        if not (isinstance(entry, dict) and "id" in entry):
            raise ModelFormatError("schema", "each vertex needs an id")
        vid = entry["id"]
        if type(vid) is not str:
            vid = _as_id(vid, "vertex")
        if vid in index:
            raise ModelFormatError("schema", f"duplicate vertex id {vid!r}")
        index[vid] = len(vertex_ids)
        vertex_ids.append(vid)
        name = entry.get("name", vid)
        if not isinstance(name, str):
            raise ModelFormatError("schema", f"vertex {vid!r}: name must be a string")
        names.append(name)

    edge_ids: list[str] = []
    seen_edges: set[str] = set()
    src: list[int] = []
    tgt: list[int] = []
    labels: list = []
    # a table label is the index of the first element of its name, as in
    # `elements.index`; any other label goes through `parse_label`
    elements = algebra.elements if isinstance(algebra, TableAlgebra) else ()
    element_index = dict(zip(reversed(elements), range(len(elements) - 1, -1, -1)))
    for entry in edges:
        if not (isinstance(entry, dict) and "id" in entry):
            raise ModelFormatError("schema", "each edge needs an id")
        eid = entry["id"]
        if type(eid) is not str:
            eid = _as_id(eid, "edge")
        if eid in seen_edges:
            raise ModelFormatError("schema", f"duplicate edge id {eid!r}")
        seen_edges.add(eid)
        edge_ids.append(eid)
        try:
            s, t = index[entry["src"]], index[entry["tgt"]]
        except (KeyError, TypeError):
            # a missing key, a bad or dangling id, or an integer id
            s = None
        if s is None:
            ends = []
            for key in ("src", "tgt"):
                if key not in entry:
                    raise ModelFormatError("schema", f"edge {eid!r} is missing {key}")
                endpoint = _as_id(entry[key], f"edge {eid!r} {key}")
                if endpoint not in index:
                    raise ModelFormatError("dangling-id", f"edge {eid!r}: {key} {endpoint!r} is not a vertex id")
                ends.append(index[endpoint])
            s, t = ends
        src.append(s)
        tgt.append(t)
        if "label" not in entry:
            raise ModelFormatError("schema", f"edge {eid!r} is missing its label")
        label = entry["label"]
        value = element_index.get(label) if type(label) is str else None
        if value is None:
            try:
                value = algebra.parse_label(label)
            except KeyError as exc:
                raise ModelFormatError("unknown-element", f"edge {eid!r}: {exc.args[0]}") from None
        labels.append(value)
    return vertex_ids, names, edge_ids, src, tgt, labels


def graph_to_json(
    g: LabeledGraph,
    vertex_ids: Optional[tuple[str, ...]] = None,
    edge_ids: Optional[tuple[str, ...]] = None,
) -> dict:
    vertex_ids = vertex_ids or tuple(f"v{i}" for i in range(g.graph.n_vertices))
    edge_ids = edge_ids or tuple(f"e{i}" for i in range(g.graph.n_edges))
    return {
        "algebra": algebra_to_json(g.algebra),
        "vertices": [
            {"id": vid, "name": name} for vid, name in zip(vertex_ids, g.graph.vertex_names)
        ],
        "edges": [
            {
                "id": edge_ids[e],
                "src": vertex_ids[g.graph.edge_src[e]],
                "tgt": vertex_ids[g.graph.edge_tgt[e]],
                "label": _label_json(g, e),
            }
            for e in range(g.graph.n_edges)
        ],
    }


def _label_json(g: LabeledGraph, e: int) -> Any:
    value = g.labels[e]
    if isinstance(g.algebra, TableAlgebra):
        return g.algebra.elements[value]
    if isinstance(value, int):
        return value
    if value.denominator == 1:
        return int(value)
    return str(value)


def parse_open_graph(obj: Any):
    from .open_graphs import OpenGraph

    _require(isinstance(obj, dict), "schema", "open_graph must be an object")
    _require("inner" in obj, "schema", "open_graph is missing its inner graph")
    inner, vertex_ids, edge_ids = parse_graph(obj["inner"])
    vertex_index = {vid: i for i, vid in enumerate(vertex_ids)}

    def read_foot(key: str) -> tuple[str, ...]:
        foot = obj.get(key)
        _require(isinstance(foot, list), "schema", f"{key} must be a list of ids")
        ids = [_as_id(v, key) for v in foot]
        _require(len(set(ids)) == len(ids), "schema", f"{key} ids must be distinct")
        return tuple(ids)

    def read_leg(key: str, foot: tuple[str, ...]) -> tuple[int, ...]:
        leg = obj.get(key, {})
        _require(isinstance(leg, dict), "schema", f"{key} must be an object")
        normalized = {_as_id(k, key): v for k, v in leg.items()}
        targets = []
        for name in foot:
            _require(name in normalized, "schema", f"{key} is missing foot element {name!r}")
            vid = _as_id(normalized[name], key)
            if vid not in vertex_index:
                raise ModelFormatError("dangling-id", f"{key}[{name!r}]: {vid!r} is not a vertex id")
            targets.append(vertex_index[vid])
        extra = sorted(set(normalized) - set(foot))
        _require(not extra, "schema", f"{key} names {extra} outside its foot")
        return tuple(targets)

    left = read_foot("left_foot")
    right = read_foot("right_foot")
    open_graph = OpenGraph(inner, left, right, read_leg("leg_in", left), read_leg("leg_out", right))
    return open_graph, vertex_ids, edge_ids


def open_graph_to_json(og: OpenGraph, vertex_ids=None, edge_ids=None) -> dict:
    vertex_ids = vertex_ids or tuple(f"v{i}" for i in range(og.inner.graph.n_vertices))
    return {
        "inner": graph_to_json(og.inner, vertex_ids, edge_ids),
        "left_foot": list(og.left_foot),
        "right_foot": list(og.right_foot),
        "leg_in": {name: vertex_ids[v] for name, v in zip(og.left_foot, og.leg_in)},
        "leg_out": {name: vertex_ids[v] for name, v in zip(og.right_foot, og.leg_out)},
    }


def parse_model(text: str) -> ModelFile:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError("json-syntax", exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise ModelFormatError("json-syntax", "nested too deeply to decode") from None
    _require(isinstance(obj, dict), "schema", "model file must be a JSON object")
    version = obj.get("format")
    # JSON true and 1.0 compare equal to 1 but are not the integer 1
    _require(type(version) is int and version == FORMAT_VERSION, "schema", f"format must be {FORMAT_VERSION}, got {version!r}")
    _require_known(obj, frozenset({"format", "algebra", "graph", "open_graph", "morphism"}), "top-level")
    _require(
        not ("graph" in obj and "open_graph" in obj),
        "schema",
        "a model holds either a graph or an open_graph, not both",
    )
    _require(
        any(k in obj for k in ("algebra", "graph", "open_graph")),
        "schema",
        "model has no algebra, graph, or open_graph section",
    )

    model = ModelFile()
    if "algebra" in obj:
        model.algebra = parse_algebra(obj["algebra"])
    if "graph" in obj:
        model.graph, model.vertex_ids, model.edge_ids = parse_graph(obj["graph"])
    if "open_graph" in obj:
        model.open_graph, model.vertex_ids, model.edge_ids = parse_open_graph(obj["open_graph"])
    if "morphism" in obj:
        morphism = obj["morphism"]
        _require(
            isinstance(morphism, dict)
            and isinstance(morphism.get("f0"), list)
            and isinstance(morphism.get("f1"), list)
            and all(isinstance(v, int) and not isinstance(v, bool) for v in morphism["f0"] + morphism["f1"]),
            "schema",
            "morphism must carry integer arrays f0 and f1",
        )
        g = model.any_graph
        if g is not None:
            _require(
                len(morphism["f0"]) == g.graph.n_vertices and len(morphism["f1"]) == g.graph.n_edges,
                "schema",
                "morphism arrays do not match the graph's vertex and edge counts",
            )
        model.morphism = (tuple(morphism["f0"]), tuple(morphism["f1"]))
    return model


def model_to_json(model: ModelFile) -> dict:
    obj: dict[str, Any] = {"format": model.format_version}
    if model.algebra is not None:
        obj["algebra"] = algebra_to_json(model.algebra)
    if model.graph is not None:
        obj["graph"] = graph_to_json(model.graph, model.vertex_ids or None, model.edge_ids or None)
    if model.open_graph is not None:
        obj["open_graph"] = open_graph_to_json(
            model.open_graph, model.vertex_ids or None, model.edge_ids or None
        )
    if model.morphism is not None:
        obj["morphism"] = {"f0": list(model.morphism[0]), "f1": list(model.morphism[1])}
    return obj


_encode_str = json.encoder.encode_basestring_ascii
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _scalar_text(value: Any) -> Optional[str]:
    """json's text for a scalar, or None for a list, tuple or dict."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if isinstance(value, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _encoder(values, nl: str):
    """The function that writes each of `values`, or None unless all are
    scalars or all are lists of scalars, each then one `_bracketed` join
    that closes at newline `nl`; not int.__repr__ for a bool, which is not
    json's spelling."""
    kinds = set(map(type, values))
    cells = kinds and kinds <= {list, tuple}
    if cells:
        kinds = set(map(type, itertools.chain.from_iterable(values)))
    encode = _encode_str if kinds == {str} else int.__repr__ if kinds == {int} else _scalar_text if kinds <= _SCALARS else None
    return (lambda cell: _bracketed(map(encode, cell), nl)) if cells and encode else encode


def _bracketed(texts, nl: str, brackets: str = "[]") -> str:
    """The item `texts` laid out as json's indent writes a container that
    closes at newline `nl`: one item per line, two spaces deeper, and bare
    `brackets` when there are none.  No item text is empty, so a join that
    comes out empty had no items."""
    inner = nl + "  "
    body = ("," + inner).join(texts)
    return brackets[0] + inner + body + nl + brackets[1] if body else brackets


def _record_list(records: list, nl: str) -> Optional[str]:
    """A list of dicts that share one key set of strings and hold only
    scalars or lists of scalars, written at newline `nl` column by column,
    or None when the general walk must write it.  Every column's types are
    checked before any is written; each row is one `%` of a template that
    holds the keys."""
    keys = records[0].keys()
    if not keys or set(map(type, records)) != {dict} or set(map(type, keys)) != {str}:
        return None
    if not all(map(keys.__eq__, map(dict.keys, records))):
        return None
    names = sorted(keys)
    columns: list = []
    for name in names:
        column = list(map(operator.itemgetter(name), records))
        encode = _encoder(column, nl + "    ")
        if encode is None:
            return None
        columns.append(map(encode, column))
    # a `%` in a key is doubled, so only the cells fill the template
    template = _bracketed([_encode_str(name).replace("%", "%%") + ": %s" for name in names], nl + "  ", "{}")
    return _bracketed(map(template.__mod__, zip(*columns)), nl)


_END = object()
_CONTAINERS = frozenset({list, tuple, dict})


def _canonical_json(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    With an `indent`, json writes through its pure-Python encoder, one
    generator step per scalar.  Here scalars are encoded by json's C
    functions, a list or tuple of scalars is one `join`, and so is each
    list of scalars in a list of them, and a list of dicts of scalars or
    lists of scalars that share one key set is written column by column
    (`_record_list`).  All are laid out by `_bracketed`.  Everything else,
    such as a record list with a dict in a column, goes through the
    general walk, where containers are walked on an explicit stack and
    their text streams into one list of parts.  Raises TypeError and
    ValueError where json.dumps does, and TypeError for a dict key that is
    not a `str` (json.dumps would write an int, float, bool or None key as
    a string; no model or payload has one).
    """
    parts: list[str] = []
    emit = parts.append
    open_ids: set[int] = set()
    # the open container: its items left, the separators before its first
    # and later items, the newline before each item, its closing text,
    # whether it is a dict, and its id; `obj` sits in a bare one-item
    # container, and the containers around the open one wait on `outer`
    items, sep, comma, inner, close, is_dict, ident = iter((obj,)), "", "", "\n", "", False, None
    outer: list[tuple] = []
    while True:
        item = next(items, _END)
        while item is _END:
            emit(close)
            open_ids.discard(ident)
            if not outer:
                return "".join(parts)
            items, comma, inner, close, is_dict, ident = outer.pop()
            sep = comma
            item = next(items, _END)
        if is_dict:
            key, value = item
            emit(sep + _encode_str(key) + ": ")
        else:
            value = item
            emit(sep)
        sep, nl = comma, inner
        kind = type(value)
        if kind is str:
            emit(_encode_str(value))
        elif kind is int:
            emit(int.__repr__(value))
        elif kind not in _CONTAINERS and (text := _scalar_text(value)) is not None:
            emit(text)
        elif not value:
            emit("{}" if isinstance(value, dict) else "[]")
        else:
            if not isinstance(value, dict):
                text = None
                if type(value[0]) is dict:
                    # one record gains nothing from columns
                    text = _record_list(value, nl) if len(value) > 1 else None
                elif (encode := _encoder(value, nl + "  ")) is not None:
                    text = _bracketed(map(encode, value), nl)
                if text is not None:
                    emit(text)
                    continue
            if id(value) in open_ids:
                raise ValueError("Circular reference detected")
            outer.append((items, comma, inner, close, is_dict, ident))
            ident = id(value)
            open_ids.add(ident)
            is_dict = isinstance(value, dict)
            items = iter(sorted(value.items()) if is_dict else value)
            sep = inner = nl + "  "
            comma = "," + inner
            close = nl + ("}" if is_dict else "]")
            emit("{" if is_dict else "[")


def _match_groups_json(groups: list, grades: list[str], truncated: bool) -> str:
    """`_canonical_json` of ``{"matches": [...], "truncated": truncated}``
    with one record ``{"vertex_map": ..., "edge_paths": ..., "grades":
    grades}`` per match, written from `motifs.find_motif_groups`' groups
    without building the records.

    Each distinct walk list is written once and the grades once; a walk
    is one `%` of the format for its length, and a record is one `%` of
    one template over ``itertools.product`` of its group's walk texts and
    vertex map.
    """
    record_nl, field_nl, cell_nl = "\n    ", "\n      ", "\n        "
    # id -> each distinct walk list, and then the texts of its walks
    lists = {id(walks): walks for _, group, _ in groups for walks in group}
    longest = max(map(len, itertools.chain.from_iterable(lists.values())), default=0)
    formats = [_bracketed(["%d"] * n, cell_nl) for n in range(longest + 1)]
    walk_texts = {ident: [formats[len(walk)] % walk for walk in walks] for ident, walks in lists.items()}
    # a record's slots: a walk text per motif edge, then a host vertex per
    # motif vertex; a `%` in a grade is doubled, so only they fill it
    template = _bracketed([
        '"edge_paths": ' + _bracketed(["%s"] * len(grades), field_nl),
        '"grades": ' + _bracketed(map(_encode_str, grades), field_nl).replace("%", "%%"),
        '"vertex_map": ' + _bracketed(["%d"] * (len(groups[0][0]) if groups else 0), field_nl),
    ], record_nl, "{}")
    records: list[str] = []
    for vertex_map, group, count in groups:
        combos = itertools.product(*[walk_texts[id(walks)] for walks in group], *zip(vertex_map))
        records.extend(map(template.__mod__, itertools.islice(combos, count)))
    truncated_text = "true" if truncated else "false"
    return _bracketed(['"matches": ' + _bracketed(records, "\n  "), '"truncated": ' + truncated_text], "\n", "{}")


def emit_model(model: ModelFile) -> str:
    return _canonical_json(model_to_json(model)) + "\n"


def load_model(path) -> ModelFile:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ModelFormatError("json-syntax", f"not UTF-8: {exc.reason} at byte offset {exc.start}") from None
    return parse_model(text)


def save_model(model: ModelFile, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(emit_model(model))


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: LabeledGraph, name: str = "model") -> str:
    """Graphviz text for a labeled graph; ordering follows the dense ids."""
    lines = [f"digraph {_dot_quote(name)} {{", "  rankdir=LR;"]
    for v, vertex_name in enumerate(g.graph.vertex_names):
        lines.append(f"  v{v} [label={_dot_quote(vertex_name)}];")
    for e in range(g.graph.n_edges):
        label = g.algebra.label_text(g.labels[e])
        lines.append(
            f"  v{g.graph.edge_src[e]} -> v{g.graph.edge_tgt[e]} [label={_dot_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
