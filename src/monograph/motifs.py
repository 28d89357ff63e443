"""Motif search: finding pattern graphs inside a host as Kleisli morphisms.

A motif occurrence assigns host vertices to motif vertices and a bounded
host path to each motif edge, with matching endpoints and grade.  Arbitrary
path lengths would make the search unbounded, so a length limit is part of
the interface.

The search walks the host once per source vertex it touches, grouping the
walks by (end, grade), and then assigns motif vertices by backtracking,
checking each motif edge against those tables as soon as both its endpoints
are placed (candidate filtering as in Ullmann, J. ACM 1976, and VF2,
Cordella et al., IEEE TPAMI 2004).  No step recurses, so deep hosts and
long path limits never exhaust the interpreter's stack.
"""

from __future__ import annotations

import itertools
import math

from .algebra import CATALOG
from .graphs import Graph, LabeledGraph, labeled_graph
from .paths import KleisliMorphism, Path
from .validation import _over_guard

DEFAULT_MAX_PATH_LEN = 6
# the most walks `find_motifs` tables from one host vertex: a dense host at
# a long path limit has exponentially many, and each is held in memory
_WALK_GUARD = 10**6


def _walk_tree(
    g: Graph, start: int, max_len: int, guard: float = math.inf
) -> tuple[list[int], list[int], list[int]]:
    """Every walk of at most `max_len` edges from `start`, as a prefix tree
    in lexicographic edge-id order, prefixes first.

    Returns ``(parents, edges, ends)``: walk 0 is the empty walk at `start`,
    and walk i > 0 is walk ``parents[i]`` followed by edge ``edges[i]``,
    ending at ``ends[i]``.  An explicit stack keeps the depth of recursion
    constant, and the tree costs O(walks) however long they are.  Raises
    ValueError as soon as the tree holds more than `guard` walks.
    """
    out_adjacency, edge_tgt = g.out_adjacency, g.edge_tgt
    parents, edges, ends = [0], [-1], [start]
    stack = [(0, e, 1) for e in reversed(out_adjacency[start])] if max_len > 0 else []
    while stack and len(parents) <= guard:
        parent, e, depth = stack.pop()
        walk = len(parents)
        at = edge_tgt[e]
        parents.append(parent)
        edges.append(e)
        ends.append(at)
        if depth < max_len:
            stack.extend([(walk, f, depth + 1) for f in reversed(out_adjacency[at])])
    if len(parents) > guard:
        raise ValueError(_over_guard(f"motif walks {len(parents)} from host vertex {start}", guard))
    return parents, edges, ends


def _edges_of(walk: int, parents: list[int], edges: list[int]) -> tuple[int, ...]:
    """The edge sequence of a walk, read back through its prefixes."""
    trail = []
    while walk:
        trail.append(edges[walk])
        walk = parents[walk]
    trail.reverse()
    return tuple(trail)


def paths_between(host: LabeledGraph, start: int, end: int, max_len: int) -> list[Path]:
    """All paths from start to end with at most `max_len` edges, in
    lexicographic edge-id order (the empty path first when start == end)."""
    parents, edges, ends = _walk_tree(host.graph, start, max_len)
    return [Path(start, _edges_of(walk, parents, edges)) for walk, at in enumerate(ends) if at == end]


class _PathTable:
    """The walks of at most `max_len` edges from one host vertex, by
    (end, grade), each list in walk order.

    Grades follow `paths.grade`: grade(p + e) = mul(label[e], grade(p)),
    and the empty walk grades to the unit.  A walk's `Path` is built the
    first time a match uses it.
    """

    __slots__ = ("start", "parents", "edges", "by_end_grade", "_ends", "_paths")

    def __init__(self, host: LabeledGraph, start: int, max_len: int):
        mul, labels = host.algebra.mul, host.labels
        self.start = start
        self.parents, self.edges, ends = _walk_tree(host.graph, start, max_len, _WALK_GUARD)
        grades = [host.algebra.one]
        for parent, e in itertools.islice(zip(self.parents, self.edges), 1, None):
            grades.append(mul(labels[e], grades[parent]))
        self.by_end_grade: dict[tuple, list[int]] = {}
        for walk, key in enumerate(zip(ends, grades)):
            self.by_end_grade.setdefault(key, []).append(walk)
        self._ends: dict = {}
        self._paths: dict[int, Path] = {}

    def ends_with(self, value) -> list[int]:
        """The ends of the walks grading to `value`, ascending."""
        ends = self._ends.get(value)
        if ends is None:
            ends = self._ends[value] = sorted(at for at, grade in self.by_end_grade if grade == value)
        return ends

    def path(self, walk: int) -> Path:
        p = self._paths.get(walk)
        if p is None:
            p = self._paths[walk] = Path(self.start, _edges_of(walk, self.parents, self.edges))
        return p


def find_motifs(
    motif: LabeledGraph,
    host: LabeledGraph,
    max_path_len: int = DEFAULT_MAX_PATH_LEN,
    max_results: int = 10000,
):
    """All occurrences of `motif` in `host` with edge images of bounded length.

    Returns ``(matches, truncated)``.  Matches come in a deterministic
    lexicographic order: by vertex assignment first, then by the edge-id
    sequences of the chosen paths.  Raises ValueError when a host vertex
    it searches from has more than `_WALK_GUARD` (10^6) walks within the
    limit.
    """
    if motif.algebra != host.algebra:
        raise ValueError("motif and host must share one label algebra")
    if max_path_len < 1:
        raise ValueError("max_path_len must be at least 1")
    if max_results < 0:
        raise ValueError("max_results must be at least 0")
    m_graph = motif.graph
    m_src, m_tgt, m_labels = m_graph.edge_src, m_graph.edge_tgt, motif.labels
    k, n = m_graph.n_vertices, host.graph.n_vertices
    # the motif edges to check when vertex i is placed: those whose later
    # endpoint is i; the first one entering i from an earlier vertex narrows
    # i's candidates to the ends its source's walks reach with its label
    checks: list[list[int]] = [[] for _ in range(k)]
    for e in range(m_graph.n_edges):
        checks[max(m_src[e], m_tgt[e])].append(e)
    narrow = [next((e for e in checks[i] if m_tgt[e] == i != m_src[e]), None) for i in range(k)]
    tables: dict[int, _PathTable] = {}
    # when every motif edge leaves vertex 0, only the table of vertex 0's
    # host vertex is ever read, so the others are dropped as it moves on
    one_source = all(s == 0 for s in m_src)

    def table_at(u: int) -> _PathTable:
        table = tables.get(u)
        if table is None:
            table = tables[u] = _PathTable(host, u, max_path_len)
        return table

    def candidates(i: int):
        e = narrow[i]
        if e is None:
            return iter(range(n))
        return iter(table_at(assignment[m_src[e]]).ends_with(m_labels[e]))

    fits: list = [None] * m_graph.n_edges  # per motif edge: (table, candidate walks)
    assignment = [-1] * k
    trying = [candidates(0)] if k else []  # per placed level: host vertices left to try
    matches: list[KleisliMorphism] = []
    level = 0
    while level >= 0:
        if level == k:
            vertex_map = tuple(assignment)
            for combo in itertools.product(*[walks for _, walks in fits]):
                if len(matches) >= max_results:
                    return matches, True
                edge_map = tuple(table.path(w) for (table, _), w in zip(fits, combo))
                matches.append(KleisliMorphism(motif, host, vertex_map, edge_map))
            level -= 1
            continue
        v = next(trying[level], None)
        if v is None:
            trying.pop()
            level -= 1
            continue
        assignment[level] = v
        if level == 0 and one_source:
            tables.clear()
        for e in checks[level]:
            table = table_at(assignment[m_src[e]])
            walks = table.by_end_grade.get((assignment[m_tgt[e]], m_labels[e]))
            if walks is None:
                break
            fits[e] = (table, walks)
        else:
            level += 1
            if level < k:
                trying.append(candidates(level))
    return matches, False


def _sign_motif(vertices, edges):
    return labeled_graph(
        vertices,
        [(s, t) for s, t, _ in edges],
        CATALOG["SIGN"],
        [label for _, _, label in edges],
    )


def _motif_catalog() -> dict[str, LabeledGraph]:
    v, w = 0, 1
    catalog = {
        "positive-autoregulation": _sign_motif(["v"], [(0, 0, "+")]),
        "negative-autoregulation": _sign_motif(["v"], [(0, 0, "-")]),
        "positive-stimulation": _sign_motif(["v", "w"], [(v, w, "+")]),
        "negative-stimulation": _sign_motif(["v", "w"], [(v, w, "-")]),
        "positive-feedback-loop": _sign_motif(["v", "w"], [(v, w, "+"), (w, v, "+")]),
        "negative-feedback-loop": _sign_motif(["v", "w"], [(v, w, "+"), (w, v, "-")]),
        "double-negative-feedback-loop": _sign_motif(["v", "w"], [(v, w, "-"), (w, v, "-")]),
        "coherent-feedforward": _sign_motif(["v", "w"], [(v, w, "+"), (v, w, "+")]),
        "incoherent-feedforward": _sign_motif(["v", "w"], [(v, w, "+"), (v, w, "-")]),
        "double-negative-feedforward": _sign_motif(["v", "w"], [(v, w, "-"), (v, w, "-")]),
    }
    for tag, (a, b) in {"pp": ("+", "+"), "pm": ("+", "-"), "mm": ("-", "-")}.items():
        catalog[f"branch-{tag}"] = _sign_motif(["u", "v", "w"], [(0, 1, a), (0, 2, b)])
        catalog[f"gate-{tag}"] = _sign_motif(["v", "w", "u"], [(0, 2, a), (1, 2, b)])
        # coherent feedforward overlapping a logic gate
        catalog[f"overlapping-feedforward-gate-{tag}"] = _sign_motif(
            ["v", "w", "u"], [(0, 1, "+"), (0, 1, "+"), (0, 2, a), (1, 2, b)]
        )
        # incoherent feedforward overlapping a branch
        catalog[f"overlapping-feedforward-branch-{tag}"] = _sign_motif(
            ["u", "v", "w"], [(0, 1, a), (0, 2, b), (1, 2, "+"), (1, 2, "-")]
        )
    return catalog


_CATALOG = _motif_catalog()
MOTIF_NAMES = tuple(sorted(_CATALOG))


def builtin_motif(name: str) -> LabeledGraph:
    """A named {+,-} pattern from the standard regulatory-network repertoire."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(f"unknown motif {name!r}; known: {', '.join(MOTIF_NAMES)}") from None
