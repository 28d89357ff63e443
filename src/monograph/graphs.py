"""Finite directed multigraphs with labeled edges, and label-preserving maps.

Vertices and edges are dense integer ids; display names are kept separately
so parallel edges and renamings never disturb identity.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .algebra import Flags, LabelAlgebra, MonoidHom, TableAlgebra, _tabulate, apply_hom
from .validation import AXIOM, STRUCTURE, ValidationReport, _over_guard, record


@record(frozen=True)
class Graph:
    vertex_names: tuple[str, ...]
    edge_src: tuple[int, ...]
    edge_tgt: tuple[int, ...]

    def __post_init__(self):
        if len(self.edge_src) != len(self.edge_tgt):
            raise ValueError("edge source and target lists differ in length")
        n = len(self.vertex_names)
        ends = (self.edge_src, self.edge_tgt)
        # checked in C; only a failure looks for the first bad endpoint
        if self.edge_src and not (
            set(map(type, itertools.chain(*ends))) <= {int} and min(map(min, ends)) >= 0 and max(map(max, ends)) < n
        ):
            for v in itertools.chain(*ends):
                if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                    raise ValueError(f"edge endpoint {v!r} is not a vertex id")
        # Per vertex, the ids of the edges leaving it, ascending.  Not a
        # field, so equality and hashing still see only the fields; set here
        # rather than cached through `__dict__`, which would move every later
        # attribute load on the graph off the interpreter's fast path.
        object.__setattr__(self, "out_adjacency", _incidence(n, self.edge_src))

    @property
    def in_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the ids of the edges entering it, ascending; built on each read."""
        return _incidence(len(self.vertex_names), self.edge_tgt)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_names)

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    def out_edges(self, v: int) -> list[int]:
        return list(self.out_adjacency[v])

    def in_edges(self, v: int) -> list[int]:
        return list(self.in_adjacency[v])


def _incidence(n_vertices: int, ends: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    table: list[list[int]] = [[] for _ in range(n_vertices)]
    for e, v in enumerate(ends):
        table[v].append(e)
    return tuple(map(tuple, table))


def graph(vertices: Sequence[str], edges: Sequence[tuple[int, int]]) -> Graph:
    """Build a graph from vertex names and (src, tgt) id pairs."""
    src = tuple(e[0] for e in edges)
    tgt = tuple(e[1] for e in edges)
    return Graph(tuple(vertices), src, tgt)


@record(frozen=True)
class LabeledGraph:
    graph: Graph
    algebra: LabelAlgebra
    labels: tuple

    def __post_init__(self):
        labels, algebra = self.labels, self.algebra
        if len(labels) != self.graph.n_edges:
            raise ValueError("labeling is not total on edges")
        # checked in C (a table's elements are the indices below its size);
        # only a failure looks for the first bad label
        if isinstance(algebra, TableAlgebra):
            fits = not labels or (set(map(type, labels)) <= {int} and min(labels) >= 0 and max(labels) < algebra.size)
        else:
            fits = all(map(algebra.contains, labels))
        if not fits:
            for x in labels:
                if not algebra.contains(x):
                    raise ValueError(f"label {x!r} is not an element of the algebra")

    def label_texts(self) -> tuple[str, ...]:
        return tuple(self.algebra.label_text(x) for x in self.labels)


def labeled_graph(
    vertices: Sequence[str],
    edges: Sequence[tuple[int, int]],
    algebra: LabelAlgebra,
    labels: Sequence,
) -> LabeledGraph:
    """Build a labeled graph; string labels are parsed through the algebra."""
    parsed = tuple(
        algebra.parse_label(x) if isinstance(x, str) or not algebra.contains(x) else x
        for x in labels
    )
    return LabeledGraph(graph(vertices, edges), algebra, parsed)


@record(frozen=True)
class GraphMorphism:
    """A pair of maps (vertices, edges); `validate_morphism` checks the squares."""

    source: Graph
    target: Graph
    f0: tuple[int, ...]
    f1: tuple[int, ...]


def identity_morphism(g: Graph) -> GraphMorphism:
    return GraphMorphism(g, g, tuple(range(g.n_vertices)), tuple(range(g.n_edges)))


def compose_morphisms(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValueError("morphisms do not compose: target/source mismatch")
    return GraphMorphism(
        inner.source,
        outer.target,
        tuple(outer.f0[v] for v in inner.f0),
        tuple(outer.f1[e] for e in inner.f1),
    )


def validate_morphism(m: GraphMorphism) -> ValidationReport:
    """Report every edge whose source or target square fails to commute."""
    report = ValidationReport(subject="graph morphism")
    if len(m.f0) != m.source.n_vertices:
        report.add(STRUCTURE, "vertex-map-partial", "vertex map is not total")
    if len(m.f1) != m.source.n_edges:
        report.add(STRUCTURE, "edge-map-partial", "edge map is not total")
    if any(not (0 <= v < m.target.n_vertices) for v in m.f0):
        report.add(STRUCTURE, "dangling-vertex", "vertex map hits a missing vertex id")
    if any(not (0 <= e < m.target.n_edges) for e in m.f1):
        report.add(STRUCTURE, "dangling-edge", "edge map hits a missing edge id")
    if not report.ok:
        return report
    for e in range(m.source.n_edges):
        if m.target.edge_src[m.f1[e]] != m.f0[m.source.edge_src[e]]:
            report.add(AXIOM, "source-square", f"edge {e}: sources do not commute", (e,))
        if m.target.edge_tgt[m.f1[e]] != m.f0[m.source.edge_tgt[e]]:
            report.add(AXIOM, "target-square", f"edge {e}: targets do not commute", (e,))
    return report


def _require_valid(m: GraphMorphism) -> None:
    report = validate_morphism(m)
    if not report.ok:
        raise ValueError(report.summary())


def is_label_preserving(m: GraphMorphism, src: LabeledGraph, dst: LabeledGraph):
    """True iff every edge keeps its label along the map; witness edge otherwise."""
    if m.source != src.graph:
        raise ValueError("morphism source does not match the labeled graph")
    if m.target != dst.graph:
        raise ValueError("morphism target does not match the labeled graph")
    if src.algebra != dst.algebra:
        raise ValueError("both graphs must share one label algebra")
    for e in range(m.source.n_edges):
        if dst.labels[m.f1[e]] != src.labels[e]:
            return False, e
    return True, None


def pullback_labeling(m: GraphMorphism, dst: LabeledGraph) -> LabeledGraph:
    """The unique labeling of the morphism's source that makes it label-preserving."""
    _require_valid(m)
    if m.target != dst.graph:
        raise ValueError("morphism target does not match the labeled graph")
    labels = tuple(dst.labels[m.f1[e]] for e in range(m.source.n_edges))
    return LabeledGraph(m.source, dst.algebra, labels)


def change_labels(hom: MonoidHom, g: LabeledGraph) -> LabeledGraph:
    """Relabel every edge through a homomorphism of label algebras."""
    if g.algebra != hom.source:
        raise ValueError("graph labels do not live in the hom's source algebra")
    return LabeledGraph(g.graph, hom.target, tuple(apply_hom(hom, x) for x in g.labels))


@record(frozen=True)
class Semiautomaton:
    """States acted on by inputs; `action[a][v]` is the next state."""

    state_names: tuple[str, ...]
    input_names: tuple[str, ...]
    action: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.state_names)
        if len(self.action) != len(self.input_names):
            raise ValueError("action is not total on inputs")
        for row in self.action:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise ValueError("action is not total on states")


_MONOID_GUARD = 5000


def from_semiautomaton(sa: Semiautomaton) -> LabeledGraph:
    """The state graph of a semiautomaton, labeled in its transformation monoid.

    Vertices are states; each (input, state) pair contributes one edge from
    the state to its successor, labeled by the input's transformation.  The
    label algebra is the monoid generated by the inputs under composition
    (x * y applies y first), materialized as a finite table by closure
    enumeration, of at most `_MONOID_GUARD` elements.
    """
    n = len(sa.state_names)
    identity = tuple(range(n))
    generators = [tuple(row) for row in sa.action]

    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for t in frontier:
            for g in generators:
                composed = tuple(t[g[v]] for v in range(n))  # t after g
                if composed not in index:
                    if len(elements) >= _MONOID_GUARD:
                        space = f"transformation monoid of {len(elements) + 1} elements"
                        raise ValueError(_over_guard(space, _MONOID_GUARD))
                    index[composed] = len(elements)
                    elements.append(composed)
                    new_frontier.append(composed)
        frontier = new_frontier

    size = len(elements)
    table = _tabulate(size, lambda x, y: index[tuple(elements[x][w] for w in elements[y])])
    commutative = all(table[a * size + b] == table[b * size + a] for a in range(size) for b in range(a))
    algebra = TableAlgebra(
        tuple("[" + ",".join(map(str, t)) + "]" for t in elements),
        table,
        unit=0,
        flags=Flags(commutative=commutative),
    )

    edges = []
    labels = []
    for a, row in enumerate(sa.action):
        for v in range(n):
            edges.append((v, row[v]))
            labels.append(index[generators[a]])
    return LabeledGraph(graph(sa.state_names, edges), algebra, tuple(labels))


def undirected_components(g: Graph) -> list[list[int]]:
    """Partition vertices into blocks joined by undirected paths, ordered
    by their least vertex, each ascending.

    Union-find with path halving, linking the larger root below the
    smaller: a parent is never larger than its child, and a root is the
    least vertex of its block."""
    parent = list(range(g.n_vertices))
    for a, b in zip(g.edge_src, g.edge_tgt):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b

    # ascending, a vertex's parent was met before it and points at its root
    # by then, and each block is met first at its root
    blocks: dict[int, list[int]] = {}
    for v in range(g.n_vertices):
        root = parent[v]
        while parent[root] != root:
            root = parent[root]
        parent[v] = root
        blocks.setdefault(root, []).append(v)
    return list(blocks.values())
