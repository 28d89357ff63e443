"""Motif search: finding pattern graphs inside a host as Kleisli morphisms.

A motif occurrence assigns host vertices to motif vertices and a bounded
host path to each motif edge, with matching endpoints and grade.  Arbitrary
path lengths would make the search unbounded, so a length limit is part of
the interface.

The search walks the host once per source vertex it touches, grouping the
walks by (end, grade), and then assigns motif vertices by backtracking,
checking each motif edge against those tables as soon as both its endpoints
are placed, and drawing a vertex's candidates from the tables of placed
neighbours at either end of its edges (candidate filtering as in Ullmann,
J. ACM 1976, and VF2, Cordella et al., IEEE TPAMI 2004).  No step recurses,
so deep hosts and long path limits never exhaust the interpreter's stack.
"""

from __future__ import annotations

import functools
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
    and the empty walk grades to the unit.  The `Path`s of one (end, grade)
    are built the first time a match uses them, and every later match
    shares them.
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
        self._paths: dict[tuple, list[Path]] = {}

    def ends_with(self, value) -> list[int]:
        """The ends of the walks grading to `value`, ascending."""
        ends = self._ends.get(value)
        if ends is None:
            ends = self._ends[value] = sorted(at for at, grade in self.by_end_grade if grade == value)
        return ends

    def paths(self, key: tuple) -> list[Path]:
        """The paths of the walks filed under `key`, (end, grade), in walk order."""
        paths = self._paths.get(key)
        if paths is None:
            start, parents, edges = self.start, self.parents, self.edges
            paths = self._paths[key] = [Path(start, _edges_of(w, parents, edges)) for w in self.by_end_grade[key]]
        return paths


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
    # a vertex i that nothing earlier enters, with an edge e = i -> j to a
    # later j that an earlier vertex enters by f: i's image needs a walk
    # graded like e into an end that the walks of f's source reach graded
    # like f, so its candidates come from the other end, through `starts`
    lookahead = [
        None if narrow[i] is not None else next(
            ((e, f) for e in range(m_graph.n_edges) if m_src[e] == i < m_tgt[e]
             for f in checks[m_tgt[e]] if m_tgt[f] == m_tgt[e] and m_src[f] < i),
            None,
        )
        for i in range(k)
    ]
    tables: dict[int, _PathTable] = {}
    # (end, grade) -> the host vertices with such a walk, ascending; filed
    # from every table when a lookahead first needs it
    starts: dict[tuple, list[int]] = {}
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
        if e is not None:
            return iter(table_at(assignment[m_src[e]]).ends_with(m_labels[e]))
        if lookahead[i] is None:
            return iter(range(n))
        if not starts:
            for u in range(n):
                for key in table_at(u).by_end_grade:
                    starts.setdefault(key, []).append(u)
        e, f = lookahead[i]
        label = m_labels[e]
        ends = table_at(assignment[m_src[f]]).ends_with(m_labels[f])
        return iter(sorted(set().union(*[starts.get((x, label), ()) for x in ends])))

    fits: list = [None] * m_graph.n_edges  # per motif edge: (table, (end, grade))
    assignment = [-1] * k
    trying = [candidates(0)] if k else []  # per placed level: host vertices left to try
    matches: list[KleisliMorphism] = []
    level = 0
    while level >= 0:
        if level == k:
            # every choice of one path per motif edge, in lexicographic order
            combos = itertools.product(*[table.paths(key) for table, key in fits])
            match = functools.partial(KleisliMorphism, motif, host, tuple(assignment))
            matches.extend(map(match, itertools.islice(combos, max_results - len(matches))))
            if next(combos, None) is not None:
                return matches, True
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
            key = (assignment[m_tgt[e]], m_labels[e])
            if key not in table.by_end_grade:
                break
            fits[e] = (table, key)
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
